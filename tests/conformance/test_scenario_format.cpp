// Conformance-layer unit tests: `.scenario` serialization exactness, the
// legal envelope of the header fields (the generator draws inside it and the
// parser refuses values outside it), the generator's legality contract
// against the platform's declared register fields, and the shrinker's
// minimization guarantees.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "conformance/generator.hpp"
#include "conformance/legal_envelope.hpp"
#include "conformance/scenario.hpp"
#include "conformance/shrink.hpp"
#include "core/gyro_system.hpp"

namespace ascp::conformance {
namespace {

constexpr double kDspFs = 240e3;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(ScenarioFormat, TextRoundTripIsByteStable) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Scenario s = generate_scenario(seed);
    const std::string text = to_text(s);
    const Scenario back = from_text(text);
    EXPECT_EQ(to_text(back), text) << "seed " << seed;
  }
}

TEST(ScenarioFormat, RoundTripPreservesFloatBitPatterns) {
  // Values that lose digits under naive %g printing must still come back
  // bit-identical — replay determinism depends on it.
  Scenario s;
  s.seed = 0xDEADBEEFCAFEF00Dull;
  s.cls = ScenarioClass::DiffIdeal;
  s.duration_s = 0.1 + 0.2;  // 0.30000000000000004
  s.quad_scale = 1.0 / 3.0;
  s.drift_scale = 2.0 / 7.0;
  s.output_bw_hz = 33.333333333333336;
  s.rate.push_back(
      {SegKind::Chirp, 0.3, 0.1234567890123456789, -1e-17, 1.5, 29.999999999999996, {}});
  s.temp.push_back({SegKind::Ramp, 0.3, -39.99999999999999, 85.0, 0.0, 0.0, {}});
  s.bursts.push_back({0.012345678901234567, 0.01, 99.99999999999999, 1234.5678901234567});
  s.faults.push_back({FaultKind::QuadratureStep, 160001, 12345, 3.0000000000000004e6});
  s.regs.push_back({true, core::reg::kAfePgaPrimary, 0x28});

  const Scenario back = from_text(to_text(s));
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_TRUE(same_bits(back.duration_s, s.duration_s));
  EXPECT_TRUE(same_bits(back.quad_scale, s.quad_scale));
  EXPECT_TRUE(same_bits(back.drift_scale, s.drift_scale));
  EXPECT_TRUE(same_bits(back.output_bw_hz, s.output_bw_hz));
  ASSERT_EQ(back.rate.size(), 1u);
  EXPECT_TRUE(same_bits(back.rate[0].a, s.rate[0].a));
  EXPECT_TRUE(same_bits(back.rate[0].b, s.rate[0].b));
  EXPECT_TRUE(same_bits(back.rate[0].f1, s.rate[0].f1));
  ASSERT_EQ(back.bursts.size(), 1u);
  EXPECT_TRUE(same_bits(back.bursts[0].t0, s.bursts[0].t0));
  EXPECT_TRUE(same_bits(back.bursts[0].freq, s.bursts[0].freq));
  ASSERT_EQ(back.faults.size(), 1u);
  EXPECT_EQ(back.faults[0].kind, FaultKind::QuadratureStep);
  EXPECT_EQ(back.faults[0].inject_at, 160001);
  EXPECT_EQ(back.faults[0].clear_after, 12345);
  EXPECT_TRUE(same_bits(back.faults[0].param, s.faults[0].param));
  ASSERT_EQ(back.regs.size(), 1u);
  EXPECT_TRUE(back.regs[0].afe);
  EXPECT_EQ(back.regs[0].addr, core::reg::kAfePgaPrimary);
  EXPECT_EQ(back.regs[0].value, 0x28);
}

TEST(ScenarioFormat, TraceSegmentRoundTripsWithBitExactSamples) {
  Scenario s;
  s.cls = ScenarioClass::Invariant;
  s.duration_s = 0.05;
  Segment g;
  g.kind = SegKind::Trace;
  g.duration = 0.05;
  g.f0 = 1000.0;  // sample rate
  g.samples = {0.1 + 0.2, 1.0 / 3.0, -29.999999999999996, 1e-17};
  s.rate.push_back(g);

  const std::string text = to_text(s);
  EXPECT_NE(text.find("rate trace"), std::string::npos);
  const Scenario back = from_text(text);
  ASSERT_EQ(back.rate.size(), 1u);
  ASSERT_EQ(back.rate[0].kind, SegKind::Trace);
  ASSERT_EQ(back.rate[0].samples.size(), g.samples.size());
  for (std::size_t i = 0; i < g.samples.size(); ++i)
    EXPECT_TRUE(same_bits(back.rate[0].samples[i], g.samples[i])) << i;
  EXPECT_EQ(to_text(back), text);
}

TEST(ScenarioFormat, TraceSegmentEvaluatesWithHoldSemantics) {
  Scenario s;
  s.duration_s = 1.0;
  Segment g;
  g.kind = SegKind::Trace;
  g.duration = 1.0;
  g.f0 = 4.0;  // 4 samples/s → each covers 0.25 s
  g.samples = {1.0, 2.0, 3.0};
  s.rate.push_back(g);
  const auto p = rate_profile(s);
  EXPECT_DOUBLE_EQ(p.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.at(0.26), 2.0);
  EXPECT_DOUBLE_EQ(p.at(0.51), 3.0);
  EXPECT_DOUBLE_EQ(p.at(0.9), 3.0);   // past the recording: hold last
  EXPECT_DOUBLE_EQ(p.at(10.0), 3.0);  // past the segment: hold last
}

TEST(ScenarioFormat, TraceSegmentTruncatedSampleListRejected) {
  Scenario s;
  Segment g;
  g.kind = SegKind::Trace;
  g.f0 = 100.0;
  g.samples = {1.0, 2.0, 3.0};
  s.rate.push_back(g);
  std::string text = to_text(s);
  // Drop the final sample but keep the declared count of 3.
  const auto pos = text.rfind(" 3\n");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, 2);
  EXPECT_THROW(from_text(text), std::runtime_error);
}

TEST(ScenarioFormat, TraceSampleCountBoundedByTheLine) {
  // A one-line record naming 2^24 samples must fail on its count before the
  // parser sizes a 128 MiB sample vector: each sample takes at least two of
  // the characters left on the line.
  const std::string text = "ascp-scenario v1\nrate trace 0.01 0 0 0 0 16777216 1 2 3\nend\n";
  try {
    from_text(text);
    FAIL() << "a trace count the line cannot hold parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace sample count 16777216 exceeds the 6 characters"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioFormat, MalformedInputThrowsWithDiagnostics) {
  EXPECT_THROW(from_text("this is not a scenario"), std::runtime_error);
  EXPECT_THROW(from_text("class no_such_class\n"), std::runtime_error);
  // A valid prefix with a corrupted record (before the terminating `end`)
  // must still be rejected; anything after `end` is ignored by design.
  Scenario s = generate_scenario(3);
  std::string text = to_text(s);
  text.insert(text.rfind("end\n"), "fault NotInTheCatalogue 0 -1 0\n");
  EXPECT_THROW(from_text(text), std::runtime_error);
  EXPECT_NO_THROW(from_text(to_text(s) + "trailing garbage after end\n"));
}

// A header value outside its legal range fails with that field's one error;
// each bound itself parses. The values the parser used to accept ran
// "ok": `duration -1` with no samples, `output_bw -5`, `datapath_bits 200`.
TEST(ScenarioFormat, HeaderValuesOutsideTheLegalEnvelopeAreRefused) {
  const std::string text = to_text(generate_scenario(3));
  const auto with_line = [&](const std::string& key, const std::string& value) {
    const std::size_t at = text.find("\n" + key + " ") + 1;
    const std::size_t end = text.find('\n', at);
    return text.substr(0, at) + key + " " + value + text.substr(end);
  };
  const auto error_of = [](const std::string& t) -> std::string {
    try {
      from_text(t);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "parsed";
  };
  const std::string duration = "outside the legal range [0.00053333333333333336, 10]";
  const struct {
    const char* key;
    const char* value;
    std::string error;
  } refused[] = {
      {"duration", "-1", "scenario parse error at line 5: duration -1 " + duration},
      {"duration", "0", "scenario parse error at line 5: duration 0 " + duration},
      {"duration", "0.0005",  // printed to round-trip precision
       "scenario parse error at line 5: duration 0.00050000000000000001 " + duration},
      {"duration", "10.5", "scenario parse error at line 5: duration 10.5 " + duration},
      {"output_bw", "-5",
       "scenario parse error at line 8: output_bw -5 outside the legal range [25, 75]"},
      {"output_bw", "75.5",
       "scenario parse error at line 8: output_bw 75.5 outside the legal range [25, 75]"},
      {"datapath_bits", "200",
       "scenario parse error at line 9: datapath_bits 200 outside the legal range [2, 59]"},
      {"datapath_bits", "1",
       "scenario parse error at line 9: datapath_bits 1 outside the legal range [2, 59]"},
      {"datapath_bits", "-16",
       "scenario parse error at line 9: datapath_bits -16 outside the legal range [2, 59]"},
  };
  for (const auto& r : refused)
    EXPECT_EQ(error_of(with_line(r.key, r.value)), r.error) << r.key << " " << r.value;

  const struct {
    const char* key;
    const char* value;
  } accepted[] = {
      {"duration", "0.00053333333333333336"}, {"duration", "10"}, {"output_bw", "25"},
      {"output_bw", "75"}, {"datapath_bits", "0"}, {"datapath_bits", "2"},
      {"datapath_bits", "59"},
  };
  for (const auto& a : accepted)
    EXPECT_EQ(error_of(with_line(a.key, a.value)), "parsed") << a.key << " " << a.value;
}

// The MEMS scales have an envelope too. `quad_scale 1e300` used to parse and
// drive the MEMS model to NaN, so the oracle blamed the platform, and a
// negative `drift_scale` reversed the temperature physics.
TEST(ScenarioFormat, MemsScalesOutsideTheLegalEnvelopeAreRefused) {
  const auto error_of = [](double quad, double drift) -> std::string {
    Scenario s = generate_scenario(3);
    s.quad_scale = quad;
    s.drift_scale = drift;
    try {
      from_text(to_text(s));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "parsed";
  };
  EXPECT_EQ(error_of(1e300, 1.0),
            "scenario parse error at line 6: quad_scale 1.0000000000000001e+300 outside the "
            "legal range [0, 2]");
  EXPECT_EQ(error_of(-0.5, 1.0),
            "scenario parse error at line 6: quad_scale -0.5 outside the legal range [0, 2]");
  EXPECT_EQ(error_of(1.0, -1.0),
            "scenario parse error at line 7: drift_scale -1 outside the legal range [0, 1.5]");
  EXPECT_EQ(error_of(1.0, 2.0),
            "scenario parse error at line 7: drift_scale 2 outside the legal range [0, 1.5]");
  for (double quad : {kQuadScale.lo, kQuadScale.hi})
    for (double drift : {kDriftScale.lo, kDriftScale.hi})
      EXPECT_EQ(error_of(quad, drift), "parsed") << quad << " " << drift;
}

TEST(ScenarioGenerator, SameSeedYieldsByteIdenticalScenarios) {
  for (std::uint64_t seed : {1ull, 2026ull, 0x123456789ull}) {
    EXPECT_EQ(to_text(generate_scenario(seed)), to_text(generate_scenario(seed)))
        << "seed " << seed;
  }
}

TEST(ScenarioGenerator, DrawsStayInsideTheLegalOperatingSpace) {
  const GeneratorConfig cfg;
  // One platform instance provides the ground truth for register legality:
  // the declared writable field masks of both register files.
  core::GyroSystem g(core::default_gyro_system(core::Fidelity::Ideal));
  auto writable_mask = [](platform::RegisterFile& rf, std::uint16_t addr) -> std::uint16_t {
    const auto* fields = rf.fields_of(addr);
    if (!fields) return 0;
    std::uint16_t mask = 0;
    for (const auto& f : *fields)
      if (f.writable && !f.reserved)
        mask |= static_cast<std::uint16_t>(((1u << f.width) - 1u) << f.lsb);
    return mask;
  };

  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Scenario s = generate_scenario(seed, cfg);
    ASSERT_TRUE(kDurationS.contains(s.duration_s)) << "seed " << seed;
    ASSERT_GE(s.quad_scale, 0.5);
    ASSERT_LE(s.quad_scale, 1.5);
    ASSERT_GE(s.drift_scale, 0.5);
    ASSERT_LE(s.drift_scale, 1.5);
    ASSERT_TRUE(kOutputBwHz.contains(s.output_bw_hz)) << "seed " << seed;
    ASSERT_TRUE(s.datapath_bits == 0 || kDatapathBits.contains(s.datapath_bits)) << "seed " << seed;

    for (const auto& seg : s.rate) {
      ASSERT_LE(std::abs(seg.a), cfg.max_base_dps) << "seed " << seed;
      ASSERT_LE(std::abs(seg.b), cfg.max_base_dps) << "seed " << seed;
    }
    for (const auto& seg : s.temp) {
      ASSERT_GE(seg.a, -40.0) << "seed " << seed;
      ASSERT_LE(seg.a, 85.0) << "seed " << seed;
      if (seg.kind == SegKind::Ramp) {
        ASSERT_GE(seg.b, -65.0) << "seed " << seed;  // -30 start − 25 swing floor
        ASSERT_LE(seg.b, 85.0) << "seed " << seed;
      }
    }
    for (const auto& b : s.bursts) {
      ASSERT_GE(b.t0, 0.0) << "seed " << seed;
      ASSERT_LE(b.t0 + b.duration, s.duration_s + 1e-9) << "seed " << seed;
      ASSERT_LE(b.amplitude, cfg.max_burst_dps) << "seed " << seed;
    }
    for (const auto& f : s.faults) {
      // Injection only after the supervisor's worst-case arming window.
      ASSERT_GE(f.inject_at, static_cast<long>(cfg.min_inject_s * kDspFs) - 1)
          << "seed " << seed << " " << fault_kind_name(f.kind);
      ASSERT_LT(static_cast<double>(f.inject_at) / kDspFs, s.duration_s) << "seed " << seed;
      if (fault_requires_full(f.kind)) {
        ASSERT_TRUE(s.full_fidelity) << "seed " << seed << " " << fault_kind_name(f.kind);
      }
    }
    for (const auto& w : s.regs) {
      auto& rf = w.afe ? g.afe_regs() : g.regs();
      const std::uint16_t mask = writable_mask(rf, w.addr);
      ASSERT_NE(mask, 0) << "seed " << seed << " write to undeclared reg " << w.addr;
      ASSERT_EQ(w.value & ~mask, 0)
          << "seed " << seed << " value " << w.value << " spills outside writable field of reg "
          << w.addr;
    }
  }
}

TEST(ScenarioShrink, MinimizesToTheFailureRelevantCore) {
  // A deliberately noisy failing scenario whose "failure" only needs the
  // NcoPhaseJump fault: everything else must shrink away.
  Scenario s;
  s.cls = ScenarioClass::Fault;
  s.full_fidelity = false;
  s.duration_s = 1.2;
  s.quad_scale = 1.4;
  s.drift_scale = 0.6;
  s.datapath_bits = 20;
  s.rate = {{SegKind::Sine, 0.4, 50.0, 5.0, 7.0, 0.0, {}},
            {SegKind::Chirp, 0.4, 30.0, 0.0, 2.0, 20.0, {}},
            {SegKind::Constant, 0.4, 10.0, 0.0, 0.0, 0.0, {}}};
  s.temp = {{SegKind::Constant, 0.6, 40.0, 0.0, 0.0, 0.0, {}},
            {SegKind::Ramp, 0.6, 40.0, 60.0, 0.0, 0.0, {}}};
  s.bursts = {{0.1, 0.01, 40.0, 300.0}, {0.3, 0.02, 60.0, 0.0}, {0.5, 0.01, 20.0, 800.0}};
  s.regs = {{false, core::reg::kSenseGain, 100}, {true, core::reg::kAfePgaPrimary, 30}};
  s.faults = {{FaultKind::ReferenceDrift, 168000, -1, -0.5},
              {FaultKind::NcoPhaseJump, 168000, -1, 1.5}};

  const auto still_fails = [](const Scenario& c) {
    for (const auto& f : c.faults)
      if (f.kind == FaultKind::NcoPhaseJump) return true;
    return false;
  };

  ShrinkStats stats;
  const Scenario min = shrink_scenario(s, still_fails, 200, &stats);

  EXPECT_TRUE(still_fails(min));  // the contract: the result still fails
  ASSERT_EQ(min.faults.size(), 1u);
  EXPECT_EQ(min.faults[0].kind, FaultKind::NcoPhaseJump);
  EXPECT_TRUE(min.bursts.empty());
  EXPECT_TRUE(min.regs.empty());
  EXPECT_EQ(min.rate.size(), 1u);
  EXPECT_EQ(min.temp.size(), 1u);
  EXPECT_EQ(min.rate[0].kind, SegKind::Constant);
  // Duration shrinks to the fault's detection window: inject (0.70 s) + 0.25.
  EXPECT_NEAR(min.duration_s, 168000.0 / kDspFs + 0.25, 1e-9);
  // MEMS corner and wordlength ablation neutralized.
  EXPECT_EQ(min.quad_scale, 1.0);
  EXPECT_EQ(min.drift_scale, 1.0);
  EXPECT_EQ(min.datapath_bits, 0);
  EXPECT_GT(stats.accepted, 0);
  EXPECT_LE(stats.attempts, 200);
  // Stimulus bookkeeping stays consistent after all edits.
  EXPECT_GE(min.rate[0].duration, min.duration_s);
}

TEST(ScenarioShrink, TruncatesTraceSegmentsWhenTheFailureSurvives) {
  Scenario s;
  s.cls = ScenarioClass::Invariant;
  s.duration_s = 0.1;
  Segment g;
  g.kind = SegKind::Trace;
  g.duration = 0.1;
  g.f0 = 10000.0;
  g.samples.assign(1024, 5.0);
  s.rate.push_back(g);

  // Failure independent of the trace contents: the shrinker should halve the
  // sample list all the way to its floor of 2.
  const Scenario min = shrink_scenario(s, [](const Scenario&) { return true; }, 500);
  ASSERT_EQ(min.rate.size(), 1u);
  // The constant-simplify pass then collapses the trace to its first sample.
  EXPECT_EQ(min.rate[0].kind, SegKind::Constant);
  EXPECT_EQ(min.rate[0].a, 5.0);
  EXPECT_TRUE(min.rate[0].samples.empty());
}

TEST(ScenarioShrink, TraceCollapseUsesFirstSampleNotEmptySlots) {
  Scenario s;
  s.cls = ScenarioClass::Invariant;
  s.duration_s = 0.1;
  Segment g;
  g.kind = SegKind::Trace;
  g.duration = 0.1;
  g.f0 = 1000.0;
  g.samples = {42.0, 43.0};
  s.rate.push_back(g);

  // Only accept the collapse-to-constant edit (reject truncation first so the
  // level is taken from the untruncated head sample).
  const Scenario min =
      shrink_scenario(s, [](const Scenario& c) { return c.rate[0].kind != SegKind::Trace ||
                                                        c.rate[0].samples.size() == 2; }, 100);
  ASSERT_EQ(min.rate.size(), 1u);
  EXPECT_EQ(min.rate[0].kind, SegKind::Constant);
  EXPECT_EQ(min.rate[0].a, 42.0);
}

TEST(ScenarioShrink, RespectsTheAttemptBudget) {
  Scenario s = generate_scenario(11);
  s.bursts.assign(30, Burst{0.01, 0.005, 20.0, 100.0});
  int calls = 0;
  ShrinkStats stats;
  shrink_scenario(
      s, [&](const Scenario&) { ++calls; return true; }, 10, &stats);
  EXPECT_LE(calls, 10);
  EXPECT_EQ(stats.attempts, calls);
}

}  // namespace
}  // namespace ascp::conformance
