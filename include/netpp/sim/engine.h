// Discrete-event simulation engine.
//
// A minimal, deterministic event-queue engine used by the flow-level network
// simulator and the §4 mechanism models. Events are closures scheduled at
// absolute simulated times; ties are broken by insertion order (FIFO), which
// keeps runs reproducible.
//
// Internals are built for high event churn (the flow simulator schedules and
// cancels a completion candidate per rate change): the priority queue holds
// small POD entries (time, FIFO seq, slot) while the callbacks live in a
// slot table recycled through a free list, and cancellation is an O(1)
// generation check instead of a hash-set erase. Event handles encode
// (generation, slot); a handle goes stale as soon as its event fires or is
// cancelled, and the generation tag keeps recycled slots from resurrecting
// stale handles.
//
// Events scheduled at exactly now() (a batch of flow injections at the
// current time, say) skip the binary heap: they go into a FIFO lane beside
// it, in which they are already sorted by (time, seq), because they share
// the time and take increasing sequence numbers. Each pop takes the smaller
// of the two fronts in (time, seq), so the execution order is the one a
// single heap gives, at O(1) per lane event.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "netpp/units.h"

namespace netpp {

/// Discrete-event engine. Not thread-safe; one engine per simulation.
class SimEngine {
 public:
  using Callback = std::function<void()>;
  /// Opaque handle used to cancel a scheduled event. Valid until the event
  /// fires or is cancelled.
  using EventId = std::uint64_t;

  SimEngine() = default;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Current simulated time. Starts at 0.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now).
  EventId schedule_at(Seconds at, Callback fn);

  /// Schedules `fn` to run `delay` (>= 0) after the current time.
  EventId schedule_after(Seconds delay, Callback fn);

  /// Cancels a pending event. Returns false if it already fired or was
  /// cancelled before.
  bool cancel(EventId id);

  /// Absolute time of a pending event. Throws std::logic_error on a stale
  /// handle. Snapshot support: components record (time, seq) of their
  /// pending events so a restore can re-register them verbatim.
  [[nodiscard]] Seconds event_time(EventId id) const;

  /// FIFO tie-break sequence number of a pending event. Throws
  /// std::logic_error on a stale handle.
  [[nodiscard]] std::uint64_t event_seq(EventId id) const;

  /// Next FIFO sequence number to be assigned (monotone event counter).
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Snapshot restore: drops every pending event and resets the clock and
  /// the FIFO counter to the snapshotted values. Components re-register
  /// their pending events afterwards via restore_event_at().
  void restore_clock(Seconds now, std::uint64_t next_seq);

  /// Snapshot restore: schedules `fn` at `at` with the original FIFO
  /// sequence number `seq` (< next_seq()), so restored events fire in
  /// exactly the order of the uninterrupted run regardless of the order
  /// components re-register them in.
  EventId restore_event_at(Seconds at, std::uint64_t seq, Callback fn);

  /// Runs until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Runs events up to and including time `until`; the clock is left at
  /// `until` even if the queue drained earlier. Returns events executed.
  std::size_t run_until(Seconds until);

  /// Executes the single next event, if any. Returns whether one ran.
  bool step();

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t pending_events() const { return live_; }

  /// Absolute time of the next live event, or +infinity when the queue is
  /// empty. Prunes stale (cancelled/superseded) queue entries as a side
  /// effect, which is why this is non-const; the live event set is
  /// untouched.
  [[nodiscard]] double next_event_time();

 private:
  struct Entry {
    double at;
    std::uint64_t seq;  // FIFO tie-break
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };
  struct Slot {
    Callback fn;
    double at = 0.0;         // scheduled time (for snapshotting)
    std::uint64_t seq = 0;   // FIFO tie-break (for snapshotting)
    std::uint32_t gen = 0;   // bumped on every (re)allocation of the slot
    bool live = false;
  };

  /// Runs the next live event if it is due at or before `until`.
  bool pop_and_run(double until);
  const Slot& checked_slot(EventId id) const;
  EventId push_event(double at, std::uint64_t seq, Callback fn, bool lane);
  [[nodiscard]] bool live(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  }
  /// Discards cancelled entries off both fronts and returns the next live
  /// entry, or null when none is pending; `from_lane` says which front it
  /// is.
  const Entry* front(bool& from_lane);

  Seconds now_{};
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  // Events scheduled at now(), in FIFO order from lane_head_; the buffer is
  // rewound whenever the lane drains, so it never reallocates in steady
  // state.
  std::vector<Entry> lane_;
  std::size_t lane_head_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;  // scheduled, not yet fired/cancelled
};

}  // namespace netpp
