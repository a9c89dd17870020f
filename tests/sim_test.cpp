// Unit tests for the discrete-event simulation engine: ordering, ties,
// cancellation, periodic events, run_until semantics, and a differential test
// against a brute-force reference engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace eant::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), PreconditionError);
}

TEST(Simulator, RejectsEmptyCallback) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, std::function<void()>{}),
               PreconditionError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int fires = 0;
  const EventId id = sim.schedule_at(1.0, [&] { ++fires; });
  sim.run();
  sim.cancel(id);  // no-op
  sim.cancel(id);
  sim.schedule_at(2.0, [&] { ++fires; });
  sim.run();
  EXPECT_EQ(fires, 2);
}

TEST(Simulator, CancelAfterFireDoesNotLeakPendingCount) {
  // Regression: cancelling an already-fired one-shot used to insert a stale
  // id into the tombstone set forever, skewing (and eventually underflowing)
  // pending().
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  sim.cancel(id);  // stale: must be a true no-op
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 1u);  // would have been 0 (or huge) with the leak
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelOfUnknownIdIsIgnored) {
  Simulator sim;
  sim.cancel(12345);
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule_at(1.0, [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, OneShotSelfCancelDuringCallbackDoesNotLeak) {
  Simulator sim;
  EventId id = 0;
  id = sim.schedule_at(1.0, [&] { sim.cancel(id); });  // cancel self, mid-fire
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, CancelledThenFiredSlotKeepsPendingConsistent) {
  Simulator sim;
  // Cancel a pending event, let its tombstone be consumed, then make sure
  // later ids are unaffected.
  const EventId a = sim.schedule_at(1.0, [] {});
  const EventId b = sim.schedule_at(2.0, [] {});
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  sim.cancel(a);  // long gone
  sim.cancel(b);  // fired
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int fires = 0;
  sim.schedule_at(1.0, [&] { ++fires; });
  sim.schedule_at(2.0, [&] { ++fires; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator sim;
  int fires = 0;
  sim.schedule_at(1.0, [&] { ++fires; });
  sim.schedule_at(7.0, [&] { ++fires; });
  sim.run_until(5.0);
  EXPECT_EQ(fires, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until(10.0);
  EXPECT_EQ(fires, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_THROW(sim.run_until(9.0), PreconditionError);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  int fires = 0;
  sim.schedule_periodic(2.0, [&] {
    ++fires;
    return true;
  });
  sim.run_until(9.0);
  EXPECT_EQ(fires, 4);  // t = 2, 4, 6, 8
}

TEST(Simulator, PeriodicStopsWhenCallbackReturnsFalse) {
  Simulator sim;
  int fires = 0;
  sim.schedule_periodic(1.0, [&] {
    ++fires;
    return fires < 3;
  });
  sim.run_until(100.0);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PeriodicCanBeCancelled) {
  Simulator sim;
  int fires = 0;
  const EventId id = sim.schedule_periodic(1.0, [&] {
    ++fires;
    return true;
  });
  sim.run_until(3.5);
  sim.cancel(id);
  sim.run_until(10.0);
  EXPECT_EQ(fires, 3);
}

TEST(Simulator, PeriodicCancelledFromInsideOwnCallback) {
  Simulator sim;
  int fires = 0;
  EventId id = 0;
  id = sim.schedule_periodic(1.0, [&] {
    ++fires;
    if (fires == 2) sim.cancel(id);
    return true;
  });
  sim.run_until(10.0);
  EXPECT_EQ(fires, 2);
}

TEST(Simulator, PeriodicRejectsNonPositiveInterval) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_periodic(0.0, [] { return true; }),
               PreconditionError);
}

TEST(Simulator, ExecutedCounterCountsFiredEvents) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  const EventId id = sim.schedule_at(2.0, [] {});
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.now());
    if (times.size() < 5) sim.schedule_after(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.back(), 4.0);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = (i * 7919) % 104729 / 100.0;
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed(), 10000u);
}

// --- differential test against a brute-force engine -------------------------

/// The reference engine: a flat vector scanned for the minimum (time, seq) on
/// every pop, with a tombstone per cancel.  Same API and id/seq assignment as
/// Simulator, none of its indexing.
class ReferenceSim {
 public:
  Seconds now() const { return now_; }

  EventId schedule_at(Seconds t, std::function<void()> fn) {
    const EventId id = next_id_++;
    entries_.push_back({t, next_seq_++, id, std::move(fn), 0.0, nullptr});
    return id;
  }
  EventId schedule_after(Seconds dt, std::function<void()> fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }
  EventId schedule_periodic(Seconds interval, std::function<bool()> fn,
                            Seconds first_delay = -1.0) {
    if (first_delay < 0.0) first_delay = interval;
    const EventId id = next_id_++;
    entries_.push_back(
        {now_ + first_delay, next_seq_++, id, nullptr, interval,
         std::move(fn)});
    return id;
  }

  void cancel(EventId id) {
    if (executing_ != 0 && id == executing_) executing_cancelled_ = true;
    for (Entry& e : entries_)
      if (e.id == id && !e.dead) e.dead = true;
  }

  bool step() {
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (e.dead) continue;
      if (best == entries_.size() || e.time < entries_[best].time ||
          (e.time == entries_[best].time && e.seq < entries_[best].seq))
        best = i;
    }
    if (best == entries_.size()) return false;
    Entry entry = std::move(entries_[best]);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(best));
    now_ = entry.time;
    executing_ = entry.id;
    executing_cancelled_ = false;
    if (entry.repeat_fn) {
      if (entry.repeat_fn() && !executing_cancelled_) {
        entry.time = now_ + entry.repeat_interval;
        entry.seq = next_seq_++;
        entries_.push_back(std::move(entry));
      }
    } else {
      entry.fn();
    }
    executing_ = 0;
    return true;
  }

  void run_until(Seconds t) {
    while (next_time() <= t && step()) {
    }
    now_ = t;
  }

  std::size_t pending() const {
    return static_cast<std::size_t>(std::count_if(
        entries_.begin(), entries_.end(),
        [](const Entry& e) { return !e.dead; }));
  }

 private:
  struct Entry {
    Seconds time;
    std::uint64_t seq;
    EventId id;
    std::function<void()> fn;
    Seconds repeat_interval;
    std::function<bool()> repeat_fn;
    bool dead = false;
  };

  Seconds next_time() const {
    Seconds t = std::numeric_limits<Seconds>::infinity();
    for (const Entry& e : entries_)
      if (!e.dead) t = std::min(t, e.time);
    return t;
  }

  std::vector<Entry> entries_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  EventId executing_ = 0;
  bool executing_cancelled_ = false;
};

/// One randomly drawn operation; both engines receive the same list.
struct Op {
  enum Kind {
    kScheduleAt,
    kScheduleAfter,
    kSchedulePeriodic,
    kCancelKnown,  // an id drawn from every id returned so far (live or fired)
    kCancelUnknown,
    kStep,
    kRunUntil,
  } kind;
  Seconds dt = 0.0;        // delay, interval or run_until horizon
  Seconds first = -1.0;    // periodic first_delay (-1 = one interval)
  int behaviour = 0;       // what the callback does (see Harness::callback)
  int limit = 0;           // periodic: firings before returning false
  int cancel_at = 0;       // periodic: firing that cancels itself (0 = none)
  std::size_t pick = 0;    // index into the returned ids, or an offset
};

Op draw_op(Rng& rng) {
  Op op;
  const double u = rng.uniform();
  op.kind = u < 0.22   ? Op::kScheduleAt
            : u < 0.40 ? Op::kScheduleAfter
            : u < 0.48 ? Op::kSchedulePeriodic
            : u < 0.62 ? Op::kCancelKnown
            : u < 0.67 ? Op::kCancelUnknown
            : u < 0.92 ? Op::kStep
                       : Op::kRunUntil;
  // Half-second grid: plenty of equal timestamps to exercise the seq order.
  op.dt = 0.5 * static_cast<double>(rng.uniform_int(0, 8));
  if (op.kind == Op::kSchedulePeriodic) {
    op.dt = 0.5 * static_cast<double>(rng.uniform_int(1, 4));
    op.first = rng.bernoulli(0.5)
                   ? -1.0
                   : 0.5 * static_cast<double>(rng.uniform_int(0, 3));
    op.limit = static_cast<int>(rng.uniform_int(1, 6));
    op.cancel_at =
        rng.bernoulli(0.3) ? static_cast<int>(rng.uniform_int(1, op.limit)) : 0;
  }
  op.behaviour = static_cast<int>(rng.uniform_int(0, 3));
  op.pick = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
  return op;
}

/// An engine plus the log of what it executed, driven by Op lists.
template <typename Engine>
struct Harness {
  Engine sim;
  std::vector<std::pair<EventId, Seconds>> fired;
  std::vector<EventId> ids;

  /// One-shot callbacks: 0 logs, 1 also cancels its own (firing) id, 2 also
  /// cancels another known id, 3 also schedules a plain child event.
  std::function<void()> callback(const Op& op,
                                 const std::shared_ptr<EventId>& self) {
    return [this, op, self] {
      fired.emplace_back(*self, sim.now());
      if (op.behaviour == 1) sim.cancel(*self);
      if (op.behaviour == 2 && !ids.empty())
        sim.cancel(ids[op.pick % ids.size()]);
      if (op.behaviour == 3) {
        auto child = std::make_shared<EventId>(0);
        *child = sim.schedule_after(op.dt, [this, child] {
          fired.emplace_back(*child, sim.now());
        });
        ids.push_back(*child);
      }
    };
  }

  /// Applies op; returns the id it scheduled (0 if none).
  EventId apply(const Op& op) {
    auto self = std::make_shared<EventId>(0);
    switch (op.kind) {
      case Op::kScheduleAt:
        *self = sim.schedule_at(sim.now() + op.dt, callback(op, self));
        break;
      case Op::kScheduleAfter:
        *self = sim.schedule_after(op.dt, callback(op, self));
        break;
      case Op::kSchedulePeriodic: {
        auto fires = std::make_shared<int>(0);
        *self = sim.schedule_periodic(
            op.dt,
            [this, op, self, fires] {
              fired.emplace_back(*self, sim.now());
              ++*fires;
              if (*fires == op.cancel_at) sim.cancel(*self);
              return *fires < op.limit;
            },
            op.first);
        break;
      }
      case Op::kCancelKnown:
        if (!ids.empty()) sim.cancel(ids[op.pick % ids.size()]);
        return 0;
      case Op::kCancelUnknown:
        // Not returned yet (it may be later) or the reserved id 0.
        sim.cancel(op.pick % 3 == 0 ? 0 : ids.size() + 1000 + op.pick);
        return 0;
      case Op::kStep:
        sim.step();
        return 0;
      case Op::kRunUntil:
        sim.run_until(sim.now() + op.dt);
        return 0;
    }
    ids.push_back(*self);
    return *self;
  }
};

TEST(SimulatorDifferential, MatchesBruteForceEngineOnRandomOperations) {
  std::size_t total_fired = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    Harness<Simulator> fast;
    Harness<ReferenceSim> ref;
    for (int i = 0; i < 2000; ++i) {
      const Op op = draw_op(rng);
      const EventId a = fast.apply(op);
      const EventId b = ref.apply(op);
      ASSERT_EQ(a, b) << "seed " << seed << " op " << i;
      ASSERT_EQ(fast.fired, ref.fired) << "seed " << seed << " op " << i;
      ASSERT_EQ(fast.sim.pending(), ref.sim.pending())
          << "seed " << seed << " op " << i;
      ASSERT_EQ(fast.sim.now(), ref.sim.now())
          << "seed " << seed << " op " << i;
    }
    // Drain: the tail of the queue must come out in the same order too.
    fast.sim.run_until(fast.sim.now() + 1000.0);
    ref.sim.run_until(ref.sim.now() + 1000.0);
    ASSERT_EQ(fast.fired, ref.fired) << "seed " << seed << " drain";
    ASSERT_EQ(fast.sim.pending(), 0u);
    ASSERT_EQ(ref.sim.pending(), 0u);
    total_fired += fast.fired.size();
  }
  EXPECT_GT(total_fired, 20000u);  // the operations really ran events
}

}  // namespace
}  // namespace eant::sim
