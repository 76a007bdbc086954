// noise_crew.hpp — two helper threads that draw a run's analog noise ahead.
//
// Much of a Full-fidelity tick is Box–Muller noise, and none of it depends
// on the signal: the MEMS Brownian force and the white and flicker streams
// of the charge amps and PGAs each come from their own state alone (the
// temperature only scales a drawn deviate). A NoiseCrew draws most of them
// for a GyroSystem::run_group on two helper threads, one per analog chain,
// while the calling thread runs the frames. A helper draws two kinds of row:
// standard normals from an Rng, and flicker samples from a FlickerNoise.
//
//   primary helper: the primary charge amp's white and flicker streams and
//                   the primary PGA's flicker stream;
//   sense helper:   the same for the sense chain, and the MEMS Brownian force.
//
// An Ideal lockstep group has only Brownian streams: its lanes alternate
// between the two helpers. The calling thread keeps both PGAs' white
// deviates and the SAR and temperature-sensor draws: about 2.4 Box–Muller
// deviates per Full tick, against about 5 on the primary helper and 6 on
// the sense helper. Each helper's share of a tick still stays under what
// the calling thread does per tick, so the calling thread sets a run's
// pace. A run whose helpers drew the PGAs' white deviates too went as fast as
// its slowest helper, and its speed changed with how the cores were
// loaded (DESIGN.md, "Drawing noise ahead").
//
// Each helper draws its streams, in order, from copies of the states the
// run began with, into a ring of kSlots blocks of kBlock ticks, and saves
// every stream's state at each block start. Every stream has its own
// read-ahead cursor (ascp::ReadAhead): the run attaches each cursor to its
// stream's row, moves it to the next block every kBlock ticks, prefetching
// the new rows' lines, and at its end writes the helpers' final states back
// into the live streams: only the calling thread writes those. A member
// that throws is rewound from its block's saved state through exactly the
// values it read (at most one block of redraws, through the streams' own
// draw routine); a run whose members all threw cancels the rest of its job
// without waiting for it. So every output bit is what an inline run gives.
//
// A wait spins for up to kSpinNs before it sleeps, so helpers stay awake
// across the gaps between a frame loop's runs: a helper woken from sleep
// can take a scheduler's wake-up latency to start, which the run waits out.
// The spin yields the CPU about once a microsecond, so a thread that shares
// the waiter's CPU still runs, and a helper that finds itself on the
// calling thread's CPU moves to another one (spread).
//
// Helpers that share busy CPUs draw only in their time slices, and would
// pace a run at a fraction of what drawing inline gives. So the calling
// thread times each wait for a block that does not return at once (not a
// run's first block, whose wait includes the helpers' wake-up), and weighs
// those waits against the rest of its time over about the last kWindowNs.
// Once the waits pass both kStarvedNs and the rest, the run hands back: it
// rewinds every member as a throw would, cancels the job and draws the rest
// inline, and the thread draws inline for kCoolNs before it tries its
// helpers again. The window, not the run, is the unit: a single wait of a
// few milliseconds, which a shared host gives a run now and then, must not
// outweigh a run of one millisecond.
//
// One crew per thread, started by the first run long enough to use it;
// the helpers never allocate (the calling thread sizes every buffer). A
// thread draws inline when it is a pool worker of a farm with two or more
// workers (the farm already spreads channels over the cores), when the
// process may use only one CPU, or when its helpers could not start; a run
// draws inline when it is shorter than one block, runs inside another
// run's callback, has more streams than the ring holds, or starts within
// kCoolNs of a hand-back.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "afe/noise.hpp"
#include "sensor/gyro_mems.hpp"

namespace ascp::core {

/// The streams of one run_group member a crew draws ahead.
struct NoiseMember {
  /// Each chain's charge amp and PGA noise, the primary chain first (Full
  /// fidelity; null at Ideal).
  std::array<afe::NoiseSource*, 2> charge_amp{}, pga{};
  sensor::GyroMems* mems = nullptr;
};

class NoiseCrew {
 public:
  static constexpr long kBlock = 64;             ///< ticks per ring block
  static constexpr std::uint32_t kSlots = 4;     ///< ring blocks: 256 ticks
  static constexpr long kSpinNs = 2'000'000;     ///< a wait's spin before it sleeps
  static constexpr long kStarvedNs = 5'000'000;   ///< the least waits that hand back
  static constexpr long kWindowNs = 100'000'000;  ///< the span waits are weighed over
  static constexpr long kCoolNs = 100'000'000;    ///< inline draws after a hand-back

  /// This thread's crew, started at the first call, or null where this
  /// thread draws inline (see the file comment).
  static NoiseCrew* here();
  /// Every later run on this thread draws inline and starts no helper.
  static void draw_inline_here();

  /// Starts both helpers (throws what std::thread throws).
  NoiseCrew();
  /// Joins both helpers.
  ~NoiseCrew();
  NoiseCrew(const NoiseCrew&) = delete;
  NoiseCrew& operator=(const NoiseCrew&) = delete;

  /// Starts drawing `ticks` ticks of every member's streams and attaches
  /// the first block. Returns false, attaching nothing, when the run must
  /// draw inline: shorter than a block, nested in another run, more streams
  /// than the ring holds, or within kCoolNs of a hand-back.
  bool begin(std::span<const NoiseMember> members, long ticks);
  /// Attaches the next block: called before every kBlock-th tick. Returns
  /// false when the run hands back (see the file comment): every member is
  /// then detached, its streams rewound to exactly the values it read, and
  /// the rest of the run draws inline.
  bool next_block();
  /// Member k ran its last tick (it threw): rewinds each of its streams to
  /// exactly the values it read, and detaches them.
  void leave(std::size_t k);
  /// Every member still attached ran all the ticks: writes their streams'
  /// final states and detaches them.
  void end();
  /// Every member left: cancels the rest of the job without waiting for it.
  void abandon();

  /// Runs whose noise this crew drew ahead.
  std::uint64_t jobs() const { return jobs_; }
  /// Runs handed back to inline draws because the thread waited on its
  /// helpers longer than it did anything else (see the file comment).
  std::uint64_t handbacks() const { return handbacks_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct Helper;
  /// One attached stream: which helper draws it, and its index there.
  struct Site {
    ascp::ReadAhead<ascp::Rng>* normal = nullptr;            ///< standard normals, or
    ascp::ReadAhead<ascp::FlickerNoise>* flicker = nullptr;  ///< flicker samples
    std::uint8_t helper = 0, index = 0;
  };
  struct Member {
    /// A Full member's: two charge-amp whites, four flickers, the Brownian force.
    std::array<Site, 7> sites;
    std::size_t n_sites = 0;
    bool left = false;
  };

  /// fn(stream, the helper's streams of its kind, index) for site `s`.
  template <typename Fn>
  void visit(const Site& s, Fn&& fn);
  /// Waits until every helper has drawn `block`, timing each wait that does
  /// not return at once but the first block's; false once the waits
  /// outweigh the rest (see the file comment).
  bool await_block(std::uint32_t block);
  void attach(std::uint32_t block);
  /// A helper's loop: wait for a job, draw it, report it finished.
  void draw_loop(Helper& h);
  /// Moves helper `h` off the calling thread's CPU if it runs there.
  void spread(Helper& h);
  void draw_job(Helper& h);

  std::array<std::unique_ptr<Helper>, 2> helpers_;
  std::array<Member, sensor::GyroMems::kLanes> members_;
  std::size_t n_members_ = 0;
  bool busy_ = false;
  std::uint32_t block_ = 0;  ///< the attached block
  std::uint64_t jobs_ = 0, handbacks_ = 0;
  // Timed waits and the rest of the time, in ns, over about kWindowNs
  // before mark_, the end of the last timed wait.
  double waited_ns_ = 0.0, other_ns_ = 0.0;
  Clock::time_point mark_ = Clock::now();
  std::optional<Clock::time_point> cool_until_;  ///< runs draw inline until then
  // The job, written before it is posted to the helpers.
  long ticks_ = 0;
  std::uint32_t blocks_ = 0;
  std::atomic<bool> cancel_{false};
  std::atomic<bool> stop_{false};
  std::vector<int> cpus_;            ///< the CPUs this process may run on
  std::atomic<int> caller_cpu_{-1};  ///< where the calling thread last ran
};

}  // namespace ascp::core
