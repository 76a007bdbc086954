#include "conformance/shrink.hpp"

#include <algorithm>

namespace ascp::conformance {

namespace {

constexpr double kDspFs = 240e3;

/// Shortest duration that still covers every remaining fault's detection
/// window (injection + 0.25 s), or 0.05 s for fault-free scenarios.
double min_duration(const Scenario& s) {
  double need = 0.05;
  for (const auto& f : s.faults)
    need = std::max(need, static_cast<double>(f.inject_at) / kDspFs + 0.25);
  return need;
}

void clamp_stimulus(Scenario& s) {
  // Keep segment bookkeeping consistent with a shortened run: stretch the
  // final (or only) segment so the stimulus still spans the duration.
  if (!s.rate.empty()) s.rate.back().duration = std::max(s.rate.back().duration, s.duration_s);
  if (!s.temp.empty()) s.temp.back().duration = std::max(s.temp.back().duration, s.duration_s);
  // Bursts past the new end are dead weight; the drop pass removes them, but
  // pruning here keeps intermediate candidates canonical.
  std::erase_if(s.bursts, [&](const Burst& b) { return b.t0 >= s.duration_s; });
}

}  // namespace

Scenario shrink_scenario(Scenario failing, const StillFails& still_fails, int max_attempts,
                         ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats& st = stats ? *stats : local;

  auto try_edit = [&](Scenario candidate) {
    if (st.attempts >= max_attempts) return false;
    ++st.attempts;
    clamp_stimulus(candidate);
    if (!still_fails(candidate)) return false;
    ++st.accepted;
    failing = std::move(candidate);
    return true;
  };

  bool progress = true;
  while (progress && st.attempts < max_attempts) {
    progress = false;

    // Drop faults one at a time (a multi-fault repro is rarely minimal).
    for (std::size_t i = 0; i < failing.faults.size();) {
      Scenario c = failing;
      c.faults.erase(c.faults.begin() + static_cast<long>(i));
      if (try_edit(std::move(c)))
        progress = true;
      else
        ++i;
    }
    // Drop bursts.
    for (std::size_t i = 0; i < failing.bursts.size();) {
      Scenario c = failing;
      c.bursts.erase(c.bursts.begin() + static_cast<long>(i));
      if (try_edit(std::move(c)))
        progress = true;
      else
        ++i;
    }
    // Drop register writes.
    for (std::size_t i = 0; i < failing.regs.size();) {
      Scenario c = failing;
      c.regs.erase(c.regs.begin() + static_cast<long>(i));
      if (try_edit(std::move(c)))
        progress = true;
      else
        ++i;
    }
    // Drop trailing stimulus segments (keep at least one of each).
    while (failing.rate.size() > 1) {
      Scenario c = failing;
      c.rate.pop_back();
      if (!try_edit(std::move(c))) break;
      progress = true;
    }
    while (failing.temp.size() > 1) {
      Scenario c = failing;
      c.temp.pop_back();
      if (!try_edit(std::move(c))) break;
      progress = true;
    }
    // Truncate recorded traces (halve the sample tail — a shorter recording
    // that still reproduces is a much smaller repro artifact).
    for (std::size_t i = 0; i < failing.rate.size(); ++i) {
      while (failing.rate[i].kind == SegKind::Trace && failing.rate[i].samples.size() > 2) {
        Scenario c = failing;
        auto& g = c.rate[i];
        g.samples.resize(std::max<std::size_t>(2, g.samples.size() / 2));
        if (!try_edit(std::move(c))) break;
        progress = true;
      }
    }
    // Simplify the surviving stimulus to constants. A trace collapses to its
    // first sample (its b slot is meaningless); other kinds prefer their
    // baseline offset.
    for (std::size_t i = 0; i < failing.rate.size(); ++i) {
      if (failing.rate[i].kind == SegKind::Constant) continue;
      Scenario c = failing;
      auto& g = c.rate[i];
      const double level = g.kind == SegKind::Trace
                               ? (g.samples.empty() ? 0.0 : g.samples.front())
                               : (g.b != 0.0 ? g.b : g.a);
      g = Segment{SegKind::Constant, g.duration, level, 0.0, 0.0, 0.0, {}};
      if (try_edit(std::move(c))) progress = true;
    }
    // Halve the duration toward the detection-window floor.
    while (failing.duration_s > min_duration(failing) + 1e-9) {
      Scenario c = failing;
      c.duration_s = std::max(min_duration(c), c.duration_s / 2.0);
      if (!try_edit(std::move(c))) break;
      progress = true;
    }
    // Neutralize the MEMS corner and the wordlength ablation.
    if (failing.quad_scale != 1.0 || failing.drift_scale != 1.0 || failing.datapath_bits != 0) {
      Scenario c = failing;
      c.quad_scale = 1.0;
      c.drift_scale = 1.0;
      c.datapath_bits = 0;
      if (try_edit(std::move(c))) progress = true;
    }
  }
  return failing;
}

}  // namespace ascp::conformance
