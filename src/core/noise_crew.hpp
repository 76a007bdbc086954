// noise_crew.hpp — two helper threads that draw a run's analog noise ahead.
//
// Much of a Full-fidelity tick is Box–Muller noise, and none of it depends
// on the signal: the MEMS Brownian force and the white and flicker parts of
// the charge amps each come from their own stream's state alone (the
// temperature only scales a drawn deviate). A NoiseCrew draws those deviates
// for a GyroSystem::run_group on two helper threads, one per analog chain,
// while the calling thread runs the frames:
//
//   primary helper: the primary charge amp;
//   sense helper:   the sense charge amp and the MEMS Brownian force.
//
// An Ideal lockstep group has only Brownian streams: its lanes alternate
// between the two helpers. Both PGAs draw their own noise on the calling
// thread. That keeps each helper's share of a tick well under the calling
// thread's, so the calling thread sets a run's pace and the helpers keep
// ahead of it even on a core half as fast as its own: a run whose helpers
// drew all four chains' noise went as fast as its slowest helper, so its
// speed changed with how the cores were loaded (DESIGN.md, "Drawing noise
// ahead").
//
// Each helper draws its streams, in order, from copies of the states the
// run began with, into a ring of kSlots blocks of kBlock ticks, and saves
// every stream's state at each block start. The run attaches a cursor to
// each NoiseSource and GyroMems (read_ahead), moves it to the next block
// every kBlock ticks, and at its end writes the helpers' final states back
// into the live streams: only the calling thread writes those. A member
// that throws is rewound from its block's saved state through exactly the
// deviates it read (at most one block of redraws, through the streams' own
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
// One crew per thread, started by the first run long enough to use it;
// the helpers never allocate (the calling thread sizes every buffer). A
// thread draws inline when it is a pool worker of a farm with two or more
// workers (the farm already spreads channels over the cores), when the
// process may use only one CPU, or when its helpers could not start; a run
// draws inline when it is shorter than one block, runs inside another
// run's callback, or has more streams than the ring holds.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "afe/noise.hpp"
#include "sensor/gyro_mems.hpp"

namespace ascp::core {

/// The streams of one run_group member a crew draws ahead.
struct NoiseMember {
  /// The primary and sense charge amps' noise (Full fidelity; null at Ideal).
  std::array<afe::NoiseSource*, 2> charge_amp{};
  sensor::GyroMems* mems = nullptr;
};

class NoiseCrew {
 public:
  static constexpr long kBlock = 64;            ///< ticks per ring block
  static constexpr std::uint32_t kSlots = 4;    ///< ring blocks: 256 ticks
  static constexpr long kSpinNs = 2'000'000;    ///< a wait's spin before it sleeps

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
  /// draw inline: shorter than a block, nested in another run, or more
  /// streams than the ring holds.
  bool begin(std::span<const NoiseMember> members, long ticks);
  /// Attaches the next block: called before every kBlock-th tick.
  void next_block();
  /// Member k ran its last tick (it threw): rewinds each of its streams to
  /// exactly the deviates it read, and detaches them.
  void leave(std::size_t k);
  /// Every member still attached ran all the ticks: writes their streams'
  /// final states and detaches them.
  void end();
  /// Every member left: cancels the rest of the job without waiting for it.
  void abandon();

  /// Runs whose noise this crew drew ahead.
  std::uint64_t jobs() const { return jobs_; }

 private:
  struct Helper;
  /// One attached stream: which helper draws it, and its index there.
  struct Site {
    afe::NoiseSource* noise = nullptr;  ///< a NoiseSource, or
    sensor::GyroMems* mems = nullptr;   ///< a Brownian force
    std::uint8_t helper = 0, index = 0;
  };
  struct Member {
    std::array<Site, 3> sites;
    std::size_t n_sites = 0;
    bool left = false;
  };

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
  std::uint64_t jobs_ = 0;
  // The job, written before it is posted to the helpers.
  long ticks_ = 0;
  std::uint32_t blocks_ = 0;
  std::atomic<bool> cancel_{false};
  std::atomic<bool> stop_{false};
  std::vector<int> cpus_;            ///< the CPUs this process may run on
  std::atomic<int> caller_cpu_{-1};  ///< where the calling thread last ran
};

}  // namespace ascp::core
