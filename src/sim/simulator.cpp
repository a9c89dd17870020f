#include "sim/simulator.h"

#include <limits>
#include <utility>

namespace eant::sim {

EventId Simulator::schedule_at(Seconds t, std::function<void()> fn) {
  EANT_CHECK(t >= now_, "cannot schedule in the past");
  EANT_CHECK(static_cast<bool>(fn), "event callback must be set");
  const EventId id = next_id_++;
  enqueue(t, id, 0.0, std::move(fn));
  return id;
}

EventId Simulator::schedule_periodic(Seconds interval,
                                     std::function<bool()> fn,
                                     Seconds first_delay) {
  EANT_CHECK(interval > 0.0, "periodic interval must be positive");
  EANT_CHECK(static_cast<bool>(fn), "event callback must be set");
  if (first_delay < 0.0) first_delay = interval;
  const EventId id = next_id_++;
  enqueue(now_ + first_delay, id, interval, std::move(fn));
  return id;
}

void Simulator::enqueue(Seconds t, EventId id, Seconds repeat_interval,
                        Callback fn) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    EANT_ASSERT(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                "event slot table overflow");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.id = id;
  s.repeat_interval = repeat_interval;
  s.fn = std::move(fn);
  slot_of_.emplace(id, slot);
  heap_.push_back(Key{t, next_seq_++, slot});
  sift_up(heap_.size() - 1, heap_.back());
  if (observer_) observer_->on_event_scheduled(t, id);
}

void Simulator::cancel(EventId id) {
  if (executing_id_ != 0 && id == executing_id_) {
    executing_cancelled_ = true;  // only a periodic event looks at this
    return;
  }
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return;  // fired, cancelled or never scheduled
  Slot& s = slots_[it->second];
  remove_at(s.heap_pos);
  s.fn = Callback{};  // release the captures now, not at the slot's reuse
  free_slots_.push_back(it->second);
  slot_of_.erase(it);
}

void Simulator::remove_at(std::size_t pos) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // it was the last entry
  if (pos > 0 && last.before(heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void Simulator::sift_up(std::size_t pos, Key key) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!key.before(heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void Simulator::sift_down(std::size_t pos, Key key) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(key)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, key);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  pop_and_execute();
  return true;
}

void Simulator::pop_and_execute() {
  const Key top = heap_.front();
  remove_at(0);
  Slot& s = slots_[top.slot];
  const EventId id = s.id;
  const Seconds repeat_interval = s.repeat_interval;
  Callback fn = std::move(s.fn);
  s.fn = Callback{};
  free_slots_.push_back(top.slot);
  slot_of_.erase(id);

  EANT_ASSERT(top.time >= now_, "event queue went backwards");
  now_ = top.time;
  ++executed_;
  executing_id_ = id;
  executing_cancelled_ = false;
  if (observer_) observer_->on_event_executed(now_, id);
  if (auto* repeat = std::get_if<std::function<bool()>>(&fn)) {
    const bool keep = (*repeat)();
    if (keep && !executing_cancelled_)
      enqueue(now_ + repeat_interval, id, repeat_interval, std::move(fn));
  } else {
    std::get<std::function<void()>>(fn)();
  }
  executing_id_ = 0;
}

void Simulator::run_until(Seconds t) {
  EANT_CHECK(t >= now_, "cannot run to the past");
  while (!heap_.empty() && heap_.front().time <= t) pop_and_execute();
  now_ = t;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace eant::sim
