// Discrete-event simulation engine.
//
// The whole cluster reproduction is driven by one Simulator: task completions,
// TaskTracker heartbeats (3 s), power-meter samples, control-interval ticks
// (5 min) and job arrivals are all events.  Events at equal timestamps run in
// schedule order (FIFO), which keeps every experiment deterministic for a
// fixed seed.
//
// The queue is an indexed binary heap of small (time, seq, slot) keys; the
// callbacks live in a recycled slot table that also records each slot's heap
// position, so cancel() removes an event in O(log n) instead of leaving a
// tombstone to be popped later.  An id -> slot map is touched only on
// schedule, cancel and pop.

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace eant::sim {

/// Identifies a scheduled event so it can be cancelled before it fires.
using EventId = std::uint64_t;

/// Passive observer of the event loop (the audit layer's tap).  Callbacks
/// fire synchronously inside schedule/execute and must not mutate the
/// simulator.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// An event was enqueued for absolute time t.
  virtual void on_event_scheduled(Seconds t, EventId id) = 0;

  /// An event is about to run; `t` is the (already advanced) clock.
  virtual void on_event_executed(Seconds t, EventId id) = 0;
};

/// Single-threaded event-driven simulator with a monotone clock.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds; starts at 0.
  Seconds now() const { return now_; }

  /// Schedules fn to run at absolute time t (t >= now).
  EventId schedule_at(Seconds t, std::function<void()> fn);

  /// Schedules fn to run dt seconds from now (dt >= 0).
  EventId schedule_after(Seconds dt, std::function<void()> fn) {
    EANT_CHECK(dt >= 0.0, "delay must be non-negative");
    return schedule_at(now_ + dt, std::move(fn));
  }

  /// Schedules fn every `interval` seconds starting at now + first_delay
  /// (defaults to one full interval), until fn returns false or the event is
  /// cancelled.  A non-default first_delay staggers the phase of otherwise
  /// synchronised periodic activities (e.g. TaskTracker heartbeats).
  EventId schedule_periodic(Seconds interval, std::function<bool()> fn,
                            Seconds first_delay = -1.0);

  /// Removes a pending event from the queue in O(log n).  A no-op if the id
  /// already fired, was cancelled or was never scheduled.  Cancelling the event
  /// currently executing stops a periodic event's repetition and is a no-op
  /// for a one-shot.
  void cancel(EventId id);

  /// Executes the next pending event; returns false when the queue is empty.
  bool step();

  /// Runs every event with a timestamp <= t, then advances the clock to t.
  void run_until(Seconds t);

  /// Runs until the queue drains.
  void run();

  /// Number of pending events (cancelled ones have left the queue).
  std::size_t pending() const { return heap_.size(); }

  /// Total number of events executed so far (for perf reporting and tests).
  std::uint64_t executed() const { return executed_; }

  /// Attaches (or, with nullptr, detaches) an observer that is notified of
  /// every schedule and execution.  At most one observer; it must outlive
  /// the simulator or be detached first.
  void set_observer(SimObserver* observer) { observer_ = observer; }

 private:
  /// Heap entry: the (time, seq) total order plus the slot of the payload.
  struct Key {
    Seconds time;
    std::uint64_t seq;  // tie-break: equal-time events fire in schedule order
    std::uint32_t slot;

    bool before(const Key& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  /// A one-shot callback, or a periodic one returning whether to repeat.
  using Callback = std::variant<std::function<void()>, std::function<bool()>>;

  /// A queued event's payload; freed slots are reused by later schedules.
  struct Slot {
    EventId id = 0;
    std::size_t heap_pos = 0;       // index of this slot's key in heap_
    Seconds repeat_interval = 0.0;  // 0 when one-shot
    Callback fn;
  };

  /// Queues an event under `id` at time t and notifies the observer.
  void enqueue(Seconds t, EventId id, Seconds repeat_interval, Callback fn);
  /// Removes the heap root, frees its slot and runs the event.
  void pop_and_execute();
  /// Takes heap_[pos] out of the heap, restoring the heap order.
  void remove_at(std::size_t pos);
  /// Moves `key` up (or down) from the hole at `pos` to its place.
  void sift_up(std::size_t pos, Key key);
  void sift_down(std::size_t pos, Key key);
  void place(std::size_t pos, const Key& key) {
    heap_[pos] = key;
    slots_[key.slot].heap_pos = pos;
  }

  std::vector<Key> heap_;                  // binary min-heap on (time, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<EventId, std::uint32_t> slot_of_;  // queued ids only
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  EventId executing_id_ = 0;  // id of the event being executed (0 = none)
  bool executing_cancelled_ = false;  // cancel(executing_id_) was called
  std::uint64_t executed_ = 0;
  SimObserver* observer_ = nullptr;
};

}  // namespace eant::sim
