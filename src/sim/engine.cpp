#include "netpp/sim/engine.h"

#include <limits>
#include <stdexcept>
#include <utility>

namespace netpp {

namespace {

constexpr std::uint64_t kSlotMask = 0xffffffffull;
constexpr double kForever = std::numeric_limits<double>::infinity();

}  // namespace

SimEngine::EventId SimEngine::push_event(double at, std::uint64_t seq,
                                         Callback fn, bool lane) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // stale handles and queue entries for this slot die here
  s.live = true;
  s.fn = std::move(fn);
  s.at = at;
  s.seq = seq;
  const Entry entry{at, seq, slot, s.gen};
  if (lane) {
    lane_.push_back(entry);
  } else {
    queue_.push(entry);
  }
  ++live_;
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

SimEngine::EventId SimEngine::schedule_at(Seconds at, Callback fn) {
  if (at < now_) {
    throw std::invalid_argument("cannot schedule an event in the past");
  }
  if (!fn) throw std::invalid_argument("event callback must not be empty");
  // An event at now() takes the newest seq and shares the time of every
  // other lane entry, so appending keeps the lane sorted by (time, seq).
  return push_event(at.value(), next_seq_++, std::move(fn), at == now_);
}

SimEngine::EventId SimEngine::schedule_after(Seconds delay, Callback fn) {
  if (delay.value() < 0.0) {
    throw std::invalid_argument("delay must be non-negative");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

bool SimEngine::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen) return false;  // already fired or cancelled
  s.live = false;
  s.fn = nullptr;  // release captured state eagerly
  free_slots_.push_back(slot);
  --live_;
  return true;  // the queue entry stays behind (see front())
}

const SimEngine::Slot& SimEngine::checked_slot(EventId id) const {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || !slots_[slot].live || slots_[slot].gen != gen) {
    throw std::logic_error("SimEngine: stale event handle");
  }
  return slots_[slot];
}

Seconds SimEngine::event_time(EventId id) const {
  return Seconds{checked_slot(id).at};
}

std::uint64_t SimEngine::event_seq(EventId id) const {
  return checked_slot(id).seq;
}

void SimEngine::restore_clock(Seconds now, std::uint64_t next_seq) {
  queue_ = {};
  lane_.clear();
  lane_head_ = 0;
  slots_.clear();
  free_slots_.clear();
  live_ = 0;
  now_ = now;
  next_seq_ = next_seq;
}

SimEngine::EventId SimEngine::restore_event_at(Seconds at, std::uint64_t seq,
                                               Callback fn) {
  if (at < now_) {
    throw std::invalid_argument("cannot schedule an event in the past");
  }
  if (seq >= next_seq_) {
    throw std::invalid_argument(
        "restored event seq must predate the restored FIFO counter");
  }
  if (!fn) throw std::invalid_argument("event callback must not be empty");
  // An older seq could sort before lane entries at the same time: the heap
  // orders it against everything.
  return push_event(at.value(), seq, std::move(fn), false);
}

const SimEngine::Entry* SimEngine::front(bool& from_lane) {
  // Cancelled entries stay behind in both queues (lazy deletion): their
  // generation no longer matches once the slot is reused, and a dead slot
  // fails the live check.
  while (lane_head_ < lane_.size() && !live(lane_[lane_head_])) ++lane_head_;
  if (lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
  while (!queue_.empty() && !live(queue_.top())) queue_.pop();
  const Entry* heap = queue_.empty() ? nullptr : &queue_.top();
  from_lane = !lane_.empty() && (heap == nullptr || *heap > lane_[lane_head_]);
  return from_lane ? &lane_[lane_head_] : heap;
}

bool SimEngine::pop_and_run(double until) {
  bool from_lane = false;
  const Entry* next = front(from_lane);
  if (next == nullptr || next->at > until) return false;
  const Entry top = *next;
  if (from_lane) {
    ++lane_head_;
  } else {
    queue_.pop();
  }
  Slot& s = slots_[top.slot];
  Callback fn = std::move(s.fn);
  s.fn = nullptr;
  s.live = false;
  free_slots_.push_back(top.slot);
  --live_;
  now_ = Seconds{top.at};
  fn();
  return true;
}

std::size_t SimEngine::run() {
  std::size_t executed = 0;
  while (pop_and_run(kForever)) ++executed;
  return executed;
}

std::size_t SimEngine::run_until(Seconds until) {
  if (until < now_) {
    throw std::invalid_argument("cannot run to a time in the past");
  }
  std::size_t executed = 0;
  while (pop_and_run(until.value())) ++executed;
  now_ = until;
  return executed;
}

bool SimEngine::step() { return pop_and_run(kForever); }

double SimEngine::next_event_time() {
  bool from_lane = false;
  const Entry* next = front(from_lane);
  return next == nullptr ? kForever : next->at;
}

}  // namespace netpp
