#include "core/noise_crew.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace ascp::core {

namespace {

/// Standard-normal streams one helper holds: half an Ideal lockstep
/// group's Brownian forces; a Full member puts at most two on a helper (a
/// charge amp's white stream and the Brownian force).
constexpr std::size_t kNormal = sensor::GyroMems::kLanes / 2;
/// Flicker streams one helper holds: a Full member's charge amp and PGA on
/// one chain. Full-fidelity systems always run alone.
constexpr std::size_t kFlicker = 2;
/// Doubles per 64-byte cache line.
constexpr long kLine = 64 / sizeof(double);

void relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// `v` has reached `target` on a counter that only rises (wrap-safe).
bool reached(std::uint32_t v, std::uint32_t target) {
  return static_cast<std::int32_t>(v - target) >= 0;
}

/// A count one thread raises and one other thread awaits. The waiter spins,
/// then sleeps in an atomic wait, and the raiser notifies only a sleeper
/// whose wake-up count it reached, so a run that never waits makes no
/// system call.
class Counter {
 public:
  void raise_to(std::uint32_t v) {
    v_.store(v, std::memory_order_seq_cst);
    if (asleep_.load(std::memory_order_seq_cst) &&
        reached(v, wake_.load(std::memory_order_seq_cst)))
      v_.notify_one();
  }

  /// The count has reached `target`.
  bool at(std::uint32_t target) const {
    return reached(v_.load(std::memory_order_acquire), target);
  }

  /// Returns once the count reaches `target`, spinning for up to kSpinNs;
  /// a waiter that has to sleep sleeps until it reaches `wake` (at least
  /// `target`).
  void await(std::uint32_t target, std::uint32_t wake) {
    if (at(target)) return;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(NoiseCrew::kSpinNs);
    // The yield lets a thread the scheduler put on this CPU run: the one
    // this wait is for, or whatever else shares the CPU.
    do {
      for (int i = 0; i < 64; ++i) {
        if (reached(v_.load(std::memory_order_acquire), target)) return;
        relax();
      }
      std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < until);
    wake_.store(wake, std::memory_order_seq_cst);
    asleep_.store(true, std::memory_order_seq_cst);
    for (std::uint32_t v = v_.load(std::memory_order_seq_cst); !reached(v, wake);
         v = v_.load(std::memory_order_seq_cst))
      v_.wait(v, std::memory_order_seq_cst);
    asleep_.store(false, std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::uint32_t> v_{0};
  std::atomic<std::uint32_t> wake_{0};
  std::atomic<bool> asleep_{false};
};

bool one_cpu() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set) < 2;
#endif
  return std::thread::hardware_concurrency() < 2;
}

/// The CPU this thread runs on, or −1 where that is unknown.
int current_cpu() {
#ifdef __linux__
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Blocks between two checks that the helpers run apart from the caller.
constexpr std::uint32_t kSpreadBlocks = 64;

thread_local std::unique_ptr<NoiseCrew> t_crew;
thread_local bool t_inline = false;

/// One ring block of a stream's values, on cache lines of its own.
struct alignas(64) Row {
  double v[NoiseCrew::kBlock];
};

/// One helper's streams of one kind: the working copies it draws from,
/// each stream's state at every ring block's start, and the ring.
template <typename Gen>
struct Streams {
  Streams(std::size_t cap, const Gen& g)
      : cap(cap), gen(cap, g), saved(NoiseCrew::kSlots * cap, g), rows(NoiseCrew::kSlots * cap) {}

  double* row(std::size_t slot, std::size_t s) { return rows[slot * cap + s].v; }

  /// Saves each stream's state in `slot` and draws its next `n` values.
  void draw(std::size_t slot, long n) {
    for (std::size_t s = 0; s < count; ++s) {
      saved[slot * cap + s] = gen[s];
      double* r = row(slot, s);
      for (long t = 0; t < n; ++t) r[t] = ascp::ReadAhead<Gen>::draw(gen[s]);
    }
  }

  std::size_t cap, count = 0;  ///< streams held, and in the current job
  std::vector<Gen> gen;
  std::vector<Gen> saved;  ///< [slot][stream]
  std::vector<Row> rows;   ///< [slot][stream]
};

}  // namespace

struct NoiseCrew::Helper {
  bool active() const { return normal.count + flicker.count > 0; }

  // The current job's streams.
  Streams<Rng> normal{kNormal, Rng()};
  Streams<FlickerNoise> flicker{kFlicker, FlickerNoise(Rng(), 0.0)};

  std::size_t index = 0;     ///< 0: the primary helper, 1: the sense helper
  std::atomic<int> cpu{-1};  ///< where the helper last checked it ran
  std::uint32_t posted = 0;  ///< jobs posted (calling thread only)
  Counter job;               ///< raised by the calling thread to post a job
  Counter finished;          ///< the last job the helper is done with
  Counter drawn;             ///< blocks of the current job in the ring
  Counter released;          ///< blocks of the current job read and done with
  std::thread thread;        ///< last: it uses everything above
};

template <typename Fn>
void NoiseCrew::visit(const Site& s, Fn&& fn) {
  Helper& h = *helpers_[s.helper];
  if (s.normal) fn(*s.normal, h.normal, std::size_t{s.index});
  else fn(*s.flicker, h.flicker, std::size_t{s.index});
}

NoiseCrew* NoiseCrew::here() {
  if (t_inline) return nullptr;
  if (!t_crew) {
    t_inline = true;  // unless the helpers start
    if (one_cpu()) return nullptr;
    try {
      t_crew = std::make_unique<NoiseCrew>();
    } catch (...) {
      return nullptr;  // no helpers: this thread draws inline
    }
    t_inline = false;
  }
  return t_crew.get();
}

void NoiseCrew::draw_inline_here() { t_inline = true; }

NoiseCrew::NoiseCrew() {
  for (std::size_t i = 0; i < helpers_.size(); ++i) {
    helpers_[i] = std::make_unique<Helper>();
    helpers_[i]->index = i;
  }
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
#endif
  try {
    for (auto& h : helpers_) h->thread = std::thread([this, &h = *h] { draw_loop(h); });
  } catch (...) {
    stop_.store(true);
    for (auto& h : helpers_)
      if (h->thread.joinable()) {
        h->job.raise_to(h->posted + 1);
        h->thread.join();
      }
    throw;
  }
}

NoiseCrew::~NoiseCrew() {
  stop_.store(true);
  abandon();  // a job the owning thread never ended, if any
  for (auto& h : helpers_) {
    h->job.raise_to(++h->posted);
    h->thread.join();
  }
}

void NoiseCrew::draw_loop(Helper& h) {
  for (std::uint32_t seen = 0;; ++seen) {
    h.job.await(seen + 1, seen + 1);
    if (stop_.load()) return;
    spread(h);
    draw_job(h);
    h.finished.raise_to(seen + 1);
  }
}

void NoiseCrew::spread(Helper& h) {
  int cpu = current_cpu();
#ifdef __linux__
  // A scheduler may wake a helper on the CPU of the thread that woke it,
  // and leave it there while other CPUs idle. There the calling thread and
  // the helper take turns, and the run goes no faster than drawing inline,
  // so the helper moves: helper i to the i-th allowed CPU besides the
  // caller's, or the next one when the other helper runs there. Its full
  // mask is restored at once; the move holds until the scheduler moves it.
  const int caller = caller_cpu_.load(std::memory_order_relaxed);
  std::size_t others = 0;
  for (const int c : cpus_) others += c != caller;
  if (cpu >= 0 && cpu == caller && others > 0) {
    const auto nth_other = [&](std::size_t k) {
      for (const int c : cpus_)
        if (c != caller && k-- == 0) return c;
      return -1;
    };
    int target = nth_other(h.index % others);
    if (target == helpers_[1 - h.index]->cpu.load(std::memory_order_relaxed))
      target = nth_other((h.index + 1) % others);
    cpu_set_t one, all;
    CPU_ZERO(&one);
    CPU_ZERO(&all);
    CPU_SET(target, &one);
    for (const int c : cpus_) CPU_SET(c, &all);
    if (sched_setaffinity(0, sizeof one, &one) == 0) {
      sched_setaffinity(0, sizeof all, &all);
      cpu = current_cpu();
    }
  }
#endif
  h.cpu.store(cpu, std::memory_order_relaxed);
}

void NoiseCrew::draw_job(Helper& h) {
  for (std::uint32_t j = 0; j < blocks_; ++j) {
    // Slot j % kSlots is free once block j − kSlots is released; a helper
    // that has to sleep wakes with half the ring free.
    if (j >= kSlots) {
      const std::uint32_t free = j - kSlots + 1;
      h.released.await(free, free + kSlots / 2 - 1);
    }
    if (cancel_.load(std::memory_order_acquire)) return;
    if (j % kSpreadBlocks == kSpreadBlocks - 1) spread(h);
    const std::size_t slot = j % kSlots;
    const long n = std::min(kBlock, ticks_ - static_cast<long>(j) * kBlock);
    h.normal.draw(slot, n);
    h.flicker.draw(slot, n);
    h.drawn.raise_to(j + 1);
  }
}

bool NoiseCrew::begin(std::span<const NoiseMember> members, long ticks) {
  if (busy_ || ticks < kBlock || members.size() > members_.size()) return false;
  const long blocks = (ticks + kBlock - 1) / kBlock;
  if (blocks > (1L << 30)) return false;
  if (cool_until_) {
    if (Clock::now() < *cool_until_) return false;
    cool_until_.reset();
  }
  // Lay the streams out over the helpers; a run with more streams than the
  // ring holds draws inline.
  std::array<std::size_t, 2> normal{}, flicker{};
  for (std::size_t k = 0; k < members.size(); ++k) {
    Member& m = members_[k];
    m.n_sites = 0;
    m.left = false;
    const auto add = [&m](Site s, std::size_t& count) {
      s.index = static_cast<std::uint8_t>(count++);
      m.sites[m.n_sites++] = s;
    };
    for (std::uint8_t h = 0; h < 2; ++h) {
      if (afe::NoiseSource* ca = members[k].charge_amp[h]) {
        add({&ca->white(), nullptr, h}, normal[h]);
        if (ca->has_flicker()) add({nullptr, &ca->flicker(), h}, flicker[h]);
      }
      if (afe::NoiseSource* pga = members[k].pga[h]; pga && pga->has_flicker())
        add({nullptr, &pga->flicker(), h}, flicker[h]);
    }
    // Member 0's Brownian force goes to the sense helper, next to the sense
    // chain; a group's lanes alternate between the helpers.
    const auto h = static_cast<std::uint8_t>((k + 1) % 2);
    if (members[k].mems) add({&members[k].mems->brownian(), nullptr, h}, normal[h]);
  }
  for (std::size_t h = 0; h < 2; ++h)
    if (normal[h] > kNormal || flicker[h] > kFlicker) return false;

  // A cancelled job may still be winding down: wait until both helpers are
  // done with it before reusing their buffers.
  for (auto& h : helpers_) h->finished.await(h->posted, h->posted);
  ticks_ = ticks;
  blocks_ = static_cast<std::uint32_t>(blocks);
  cancel_.store(false, std::memory_order_relaxed);
  n_members_ = members.size();
  for (std::size_t h = 0; h < 2; ++h) {
    helpers_[h]->normal.count = normal[h];
    helpers_[h]->flicker.count = flicker[h];
  }
  for (std::size_t k = 0; k < n_members_; ++k)
    for (std::size_t i = 0; i < members_[k].n_sites; ++i)
      visit(members_[k].sites[i],
            [](auto& stream, auto& streams, std::size_t s) { streams.gen[s] = stream.gen; });
  caller_cpu_.store(current_cpu(), std::memory_order_relaxed);
  for (auto& h : helpers_) {
    if (!h->active()) continue;
    h->drawn.raise_to(0);
    h->released.raise_to(0);
    h->job.raise_to(++h->posted);  // publishes everything above
  }
  busy_ = true;
  ++jobs_;
  block_ = 0;
  await_block(0);
  attach(0);
  return true;
}

bool NoiseCrew::await_block(std::uint32_t block) {
  bool starved = false;
  for (auto& h : helpers_) {
    if (!h->active() || h->drawn.at(block + 1)) continue;
    // The first block's wait includes the helpers' wake-up: not timed.
    if (block == 0) {
      h->drawn.await(1, 1);
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    h->drawn.await(block + 1, block + 1);
    const Clock::time_point t1 = Clock::now();
    const auto ns = [](Clock::duration d) {
      return std::chrono::duration<double, std::nano>(d).count();
    };
    other_ns_ += ns(t0 - mark_);
    waited_ns_ += ns(t1 - t0);
    mark_ = t1;
    // Past the window, both shrink together: they weigh its last stretch.
    if (const double sum = waited_ns_ + other_ns_; sum > kWindowNs) {
      waited_ns_ *= kWindowNs / sum;
      other_ns_ *= kWindowNs / sum;
    }
    starved |= waited_ns_ > kStarvedNs && waited_ns_ > other_ns_;
  }
  return !starved;
}

void NoiseCrew::attach(std::uint32_t block) {
  // The rows were written on the helpers' cores: fetch every line of them
  // now, not one miss at a time as the run reads them.
  const std::size_t slot = block % kSlots;
  for (std::size_t k = 0; k < n_members_; ++k) {
    const Member& m = members_[k];
    if (m.left) continue;
    for (std::size_t i = 0; i < m.n_sites; ++i)
      visit(m.sites[i], [slot](auto& stream, auto& streams, std::size_t s) {
        const double* row = streams.row(slot, s);
        for (long t = 0; t < kBlock; t += kLine) __builtin_prefetch(row + t);
        stream.ahead = row;
      });
  }
}

bool NoiseCrew::next_block() {
  // Block block_ stays unreleased until the next one is drawn, so a
  // hand-back can still rewind through it.
  if (!await_block(block_ + 1)) {
    for (std::size_t k = 0; k < n_members_; ++k)
      if (!members_[k].left) leave(k);
    abandon();
    ++handbacks_;
    // The weighing starts afresh once the cool-down ends, so helpers that
    // are still starved hand back again after kStarvedNs of waits.
    cool_until_ = mark_ = Clock::now() + std::chrono::nanoseconds(kCoolNs);
    waited_ns_ = other_ns_ = 0.0;
    return false;
  }
  ++block_;
  if (block_ % kSpreadBlocks == 0) caller_cpu_.store(current_cpu(), std::memory_order_relaxed);
  for (auto& h : helpers_)
    if (h->active()) h->released.raise_to(block_);
  attach(block_);
  return true;
}

void NoiseCrew::leave(std::size_t k) {
  // The attached block's slot holds each stream's state at the block start
  // until the block is released: replay the values read since.
  Member& m = members_[k];
  const std::size_t slot = block_ % kSlots;
  for (std::size_t i = 0; i < m.n_sites; ++i)
    visit(m.sites[i], [slot](auto& stream, auto& streams, std::size_t s) {
      auto gen = streams.saved[slot * streams.cap + s];
      for (const double* p = streams.row(slot, s); p != stream.ahead; ++p) stream.draw(gen);
      stream.gen = gen;
      stream.ahead = nullptr;
    });
  m.left = true;
}

void NoiseCrew::end() {
  for (auto& h : helpers_) h->finished.await(h->posted, h->posted);
  for (std::size_t k = 0; k < n_members_; ++k) {
    const Member& m = members_[k];
    if (m.left) continue;
    for (std::size_t i = 0; i < m.n_sites; ++i)
      visit(m.sites[i], [](auto& stream, auto& streams, std::size_t s) {
        stream.gen = streams.gen[s];
        stream.ahead = nullptr;
      });
  }
  busy_ = false;
}

void NoiseCrew::abandon() {
  cancel_.store(true, std::memory_order_release);
  // Wake a helper waiting for a free slot; it sees the cancel and stops.
  for (auto& h : helpers_) h->released.raise_to(blocks_ + kSlots);
  busy_ = false;
}

}  // namespace ascp::core
