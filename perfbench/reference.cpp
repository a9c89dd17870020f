#include "reference.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t next(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x >> 17;
}

/// A discrete-event loop: pop the earliest event, update its object and a
/// linked peer, schedule a follow-up.
std::uint64_t event_loop() {
  constexpr std::uint32_t kObjects = 1u << 15;
  struct Obj {
    std::uint64_t hits = 0, sum = 0, mix = 0;
    Obj* peer = nullptr;
    double last = 0.0;
  };
  std::vector<Obj> arena(kObjects);
  std::uint64_t x = 9;
  for (Obj& o : arena) o.peer = &arena[next(x) % kObjects];

  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  for (int i = 0; i < 40000; ++i) {
    queue.push({static_cast<double>(next(x) % 1000000),
                static_cast<std::uint32_t>(next(x) % kObjects)});
  }
  for (int i = 0; i < 160000; ++i) {
    const Event e = queue.top();
    queue.pop();
    Obj& o = arena[e.second];
    ++o.hits;
    o.last = e.first;
    if (o.peer->hits & 1) {
      o.peer->sum += o.hits;
    } else {
      o.peer->mix ^= o.sum;
    }
    queue.push({e.first + static_cast<double>(next(x) % 5000),
                static_cast<std::uint32_t>((e.second * 31 + next(x)) %
                                           kObjects)});
  }
  std::uint64_t h = queue.size();
  for (const Obj& o : arena) h = h * 31 + o.sum + o.mix;
  return h;
}

/// A max-heap growing to about 200k entries.
std::uint64_t heap_churn() {
  std::priority_queue<std::pair<double, std::uint64_t>> heap;
  std::uint64_t x = 3;
  for (int i = 0; i < 300000; ++i) {
    heap.push({static_cast<double>(next(x)), x});
    if (i % 3 == 2) heap.pop();
  }
  return heap.size() + heap.top().second;
}

/// A red-black tree of about 50k nodes, inserted at random and drained
/// from the front.
std::uint64_t tree_churn() {
  std::map<std::uint64_t, int> tree;
  std::uint64_t x = 13;
  for (int i = 0; i < 100000; ++i) {
    tree[next(x)] = i;
    if (i % 2 == 1) tree.erase(tree.begin());
  }
  return tree.size() + static_cast<std::uint64_t>(tree.begin()->second);
}

/// Virtual calls on objects of 64 classes, picked at random: the indirect
/// branches and spread-out code of the simulator's observer and policy
/// hooks.
struct Agent {
  virtual ~Agent() = default;
  virtual void act(std::uint64_t& x) = 0;
  std::uint64_t state = 0;
};

template <int N>
struct Kind final : Agent {
  void act(std::uint64_t& x) override {
    state += (x >> (N % 17)) ^ N;
    if (state & 1) x += N;
  }
};

template <std::size_t... I>
std::unique_ptr<Agent> make_agent(std::size_t kind,
                                  std::index_sequence<I...>) {
  std::unique_ptr<Agent> a;
  ((kind == I ? (a = std::make_unique<Kind<static_cast<int>(I)>>(), 0) : 0),
   ...);
  return a;
}

/// The agents, built on the first call.
const std::vector<std::unique_ptr<Agent>>& agents() {
  constexpr std::size_t kKinds = 64;
  static const std::vector<std::unique_ptr<Agent>> all = [] {
    std::vector<std::unique_ptr<Agent>> v;
    std::uint64_t x = 3;
    for (int i = 0; i < 50000; ++i) {
      v.push_back(make_agent(next(x) % kKinds,
                             std::make_index_sequence<kKinds>{}));
    }
    return v;
  }();
  return all;
}

std::uint64_t dispatch(const std::vector<std::unique_ptr<Agent>>& agents) {
  std::uint64_t x = 5;
  for (int i = 0; i < 600000; ++i) agents[next(x) % agents.size()]->act(x);
  return x;
}

}  // namespace

double reference_slice() {
  static volatile std::uint64_t sink = 0;
  const auto& all = agents();  // built outside the timed part
  const auto t0 = Clock::now();
  sink = sink + event_loop() + heap_churn() + tree_churn() + dispatch(all);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
