// Network fabric tests: topology paths, analytic max-min (water-filling)
// fixtures, event-driven rate recomputation, determinism, the flat-topology
// parity guarantee against the legacy scalar model, the Fig. 1(d) ordering
// under oversubscription, flow recovery when a serving machine crashes, and a
// bitwise differential test of progressive filling against a reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "cluster/catalog.h"
#include "common/rng.h"
#include "exp/builders.h"
#include "exp/runner.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace eant {
namespace {

constexpr double kTol = 1e-6;

// --- topology ---------------------------------------------------------------

TEST(Topology, FlatSpecIsOneRackWithUnlimitedLinks) {
  const net::Topology topo(net::TopologySpec::flat(), 8);
  EXPECT_EQ(topo.num_racks(), 1u);
  for (net::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(topo.rack_of(n), 0u);
    EXPECT_FALSE(topo.is_finite(topo.node_tx(n)));
    EXPECT_FALSE(topo.is_finite(topo.node_rx(n)));
  }
  EXPECT_FALSE(topo.is_finite(topo.rack_up(0)));
}

TEST(Topology, RoundRobinRacksAndThreeLevelLocality) {
  const net::Topology topo(net::TopologySpec::oversubscribed(4), 16);
  EXPECT_EQ(topo.num_racks(), 4u);
  for (net::NodeId n = 0; n < 16; ++n) EXPECT_EQ(topo.rack_of(n), n % 4);
  EXPECT_EQ(topo.locality(3, 3), Locality::kNodeLocal);
  EXPECT_EQ(topo.locality(3, 7), Locality::kRackLocal);   // both rack 3
  EXPECT_EQ(topo.locality(3, 4), Locality::kOffRack);
  const auto racks = topo.rack_assignment();
  ASSERT_EQ(racks.size(), 16u);
  EXPECT_EQ(racks[5], 1u);
}

TEST(Topology, PathCrossesAccessLinksAndUplinksAsNeeded) {
  const net::Topology topo(net::TopologySpec::oversubscribed(2, 100.0, 150.0),
                           4);
  std::vector<net::LinkId> path;
  topo.append_path(0, 0, path);  // loopback: free
  EXPECT_TRUE(path.empty());

  topo.append_path(0, 2, path);  // same rack (0 and 2 are both rack 0)
  EXPECT_EQ(path, (std::vector<net::LinkId>{topo.node_tx(0), topo.node_rx(2)}));

  path.clear();
  topo.append_path(0, 1, path);  // cross-rack
  EXPECT_EQ(path,
            (std::vector<net::LinkId>{topo.node_tx(0), topo.rack_up(0),
                                      topo.rack_down(1), topo.node_rx(1)}));
  EXPECT_DOUBLE_EQ(topo.capacity_mbps(topo.rack_up(0)), 150.0);
  EXPECT_DOUBLE_EQ(topo.capacity_mbps(topo.node_tx(0)), 100.0);
}

// --- analytic max-min fixtures ----------------------------------------------

net::TopologySpec one_rack(double node_mbps) {
  net::TopologySpec spec;
  spec.racks = 1;
  spec.node_mbps = node_mbps;
  return spec;
}

TEST(Fabric, EqualFlowsSplitTheBottleneckEvenly) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 8));
  std::map<net::FlowId, Seconds> done;
  std::vector<net::FlowId> ids;
  // Four 100 MB flows from distinct sources into node 7: its 100 MB/s rx
  // access link is the only shared bottleneck, so max-min gives each 25.
  for (net::NodeId src = 0; src < 4; ++src) {
    ids.push_back(fabric.start_flow(
        src, 7, 100.0, 1000.0, net::TransferClass::kShuffle,
        [&](net::FlowId id) { done[id] = sim.now(); }));
  }
  for (net::FlowId id : ids) {
    EXPECT_NEAR(fabric.flow_rate_mbps(id), 25.0, kTol);
  }
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  for (net::FlowId id : ids) EXPECT_NEAR(done[id], 4.0, kTol);
  EXPECT_EQ(fabric.metrics().flows_completed, 4u);
  EXPECT_NEAR(fabric.metrics().shuffle_mb, 400.0, kTol);
}

TEST(Fabric, PerFlowCapsFreezeAndResidualGoesToTheUncapped) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 8));
  // Caps 10 and 20 freeze below the fair share; the third flow soaks up the
  // rest of the 100 MB/s rx link: water-filling gives {10, 20, 70}.
  const auto a = fabric.start_flow(0, 7, 100.0, 10.0,
                                   net::TransferClass::kRemoteRead, nullptr);
  const auto b = fabric.start_flow(1, 7, 100.0, 20.0,
                                   net::TransferClass::kRemoteRead, nullptr);
  const auto c = fabric.start_flow(2, 7, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, nullptr);
  EXPECT_NEAR(fabric.flow_rate_mbps(a), 10.0, kTol);
  EXPECT_NEAR(fabric.flow_rate_mbps(b), 20.0, kTol);
  EXPECT_NEAR(fabric.flow_rate_mbps(c), 70.0, kTol);
}

TEST(Fabric, BottleneckShareMigratesWhenAFlowFinishes) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
  std::map<net::FlowId, Seconds> done;
  const auto record = [&](net::FlowId id) { done[id] = sim.now(); };
  const auto a =
      fabric.start_flow(0, 3, 50.0, 1000.0, net::TransferClass::kShuffle,
                        record);
  const auto b =
      fabric.start_flow(1, 3, 100.0, 1000.0, net::TransferClass::kShuffle,
                        record);
  // Both get 50 MB/s; A drains its 50 MB at t=1, then B runs at the full
  // 100 MB/s and finishes its remaining 50 MB at t=1.5.
  EXPECT_NEAR(fabric.flow_rate_mbps(a), 50.0, kTol);
  EXPECT_NEAR(fabric.flow_rate_mbps(b), 50.0, kTol);
  sim.run();
  EXPECT_NEAR(done[a], 1.0, kTol);
  EXPECT_NEAR(done[b], 1.5, kTol);
}

TEST(Fabric, OversubscribedUplinkSharedAcrossRackPairs) {
  sim::Simulator sim;
  net::Fabric fabric(
      sim, net::Topology(net::TopologySpec::oversubscribed(2, 100.0, 150.0),
                         4));
  // Nodes 0,2 are rack 0; 1,3 are rack 1.  Two cross-rack flows share rack
  // 0's 150 MB/s uplink: 75 MB/s each (under their 100 MB/s access links).
  const auto a = fabric.start_flow(0, 1, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, nullptr);
  const auto b = fabric.start_flow(2, 3, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, nullptr);
  EXPECT_NEAR(fabric.flow_rate_mbps(a), 75.0, kTol);
  EXPECT_NEAR(fabric.flow_rate_mbps(b), 75.0, kTol);
  sim.run();
  const auto m = fabric.metrics();
  EXPECT_NEAR(m.peak_link_utilization, 1.0, kTol);  // the uplink saturated
  // Solo each flow would run at 100 MB/s (access-link bound): slowdown 4/3.
  EXPECT_NEAR(m.mean_flow_slowdown, 4.0 / 3.0, kTol);
}

TEST(Fabric, RateRecomputationIsEventDrivenNotPolled) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
  fabric.start_flow(0, 3, 50.0, 1000.0, net::TransferClass::kShuffle, nullptr);
  fabric.start_flow(1, 3, 100.0, 1000.0, net::TransferClass::kShuffle,
                    nullptr);
  sim.run();
  // Two completions are the only executed events — rates changed exactly at
  // flow start/finish instants, with no periodic recomputation ticks.
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_NEAR(sim.now(), 1.5, kTol);
}

TEST(Fabric, AbortKeepsPartialBytesAndFreesCapacity) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::Topology(one_rack(100.0), 4));
  const auto a = fabric.start_flow(0, 3, 100.0, 1000.0,
                                   net::TransferClass::kShuffle, nullptr);
  fabric.start_flow(1, 3, 100.0, 1000.0, net::TransferClass::kRemoteRead,
                    nullptr);
  sim.schedule_after(1.0, [&] { fabric.abort_flow(a); });
  sim.run();
  const auto m = fabric.metrics();
  EXPECT_EQ(m.flows_aborted, 1u);
  EXPECT_EQ(m.flows_completed, 1u);
  EXPECT_NEAR(m.shuffle_mb, 50.0, kTol);  // 1 s at the 50 MB/s fair share
  // B: 50 MB in the first second, the remaining 50 MB at 100 MB/s.
  EXPECT_NEAR(m.remote_read_mb, 100.0, kTol);
  EXPECT_NEAR(sim.now(), 1.5, kTol);
  EXPECT_EQ(fabric.active_flows(), 0u);
}

TEST(Fabric, DeterministicUnderIdenticalCallSequences) {
  const auto run_once = [] {
    sim::Simulator sim;
    net::Fabric fabric(
        sim, net::Topology(net::TopologySpec::oversubscribed(4), 16));
    std::vector<Seconds> completions;
    for (std::size_t i = 0; i < 12; ++i) {
      fabric.start_flow(i, (i + 5) % 16, 10.0 + i, 40.0,
                        net::TransferClass::kShuffle,
                        [&](net::FlowId) { completions.push_back(sim.now()); });
    }
    sim.run();
    return completions;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- differential test of progressive filling -------------------------------

/// Progressive filling as Fabric::reallocate computed it before its per-call
/// link caches: every round walks every flow (with a frozen bitmap) and every
/// link of the topology, calling the capacity lookups each time.  The oracle
/// for the fabric's bit-identity: same arithmetic, same order, no shortcuts.
class ReferenceFilling {
 public:
  explicit ReferenceFilling(const net::Topology& topo)
      : topo_(topo),
        factor_(topo.num_links(), 1.0),
        load_(topo.num_links()),
        active_(topo.num_links()) {}

  void add(net::FlowId id, net::NodeId src, net::NodeId dst, double cap) {
    Flow flow;
    topo_.append_path(src, dst, flow.path);
    flow.cap_mbps = cap;
    flows_.emplace(id, std::move(flow));
  }
  void remove(net::FlowId id) { flows_.erase(id); }
  void set_factor(net::LinkId link, double factor) { factor_[link] = factor; }

  bool contains(net::FlowId id) const { return flows_.contains(id); }
  std::size_t size() const { return flows_.size(); }
  double rate(net::FlowId id) const { return flows_.at(id).rate_mbps; }
  double peak() const { return peak_; }
  std::vector<net::FlowId> ids() const {
    std::vector<net::FlowId> out;
    for (const auto& [id, flow] : flows_) out.push_back(id);
    return out;
  }

  void reallocate() {
    if (flows_.empty()) return;
    std::fill(load_.begin(), load_.end(), 0.0);
    std::fill(active_.begin(), active_.end(), std::size_t{0});
    std::size_t unfrozen = 0;
    for (auto& [id, flow] : flows_) {
      flow.rate_mbps = 0.0;
      ++unfrozen;
      for (net::LinkId link : flow.path) ++active_[link];
    }
    std::vector<bool> frozen(flows_.size(), false);
    while (unfrozen > 0) {
      double inc = net::kUnlimitedMbps;
      std::size_t i = 0;
      for (auto& [id, flow] : flows_) {
        if (!frozen[i]) inc = std::min(inc, flow.cap_mbps - flow.rate_mbps);
        ++i;
      }
      for (net::LinkId link = 0; link < load_.size(); ++link) {
        if (active_[link] == 0 || !binds(link)) continue;
        const double residual = effective(link) - load_[link];
        inc = std::min(inc, residual / static_cast<double>(active_[link]));
      }
      inc = std::max(inc, 0.0);
      i = 0;
      for (auto& [id, flow] : flows_) {
        if (!frozen[i]) {
          flow.rate_mbps =
              std::isinf(inc) ? flow.cap_mbps : flow.rate_mbps + inc;
          for (net::LinkId link : flow.path) load_[link] += inc;
        }
        ++i;
      }
      i = 0;
      for (auto& [id, flow] : flows_) {
        if (!frozen[i]) {
          bool stop = flow.rate_mbps >= flow.cap_mbps - kRateTol;
          for (net::LinkId link : flow.path) {
            if (binds(link) && load_[link] >= effective(link) - kRateTol)
              stop = true;
          }
          if (stop) {
            frozen[i] = true;
            --unfrozen;
            for (net::LinkId link : flow.path) --active_[link];
          }
        }
        ++i;
      }
    }
    for (net::LinkId link = 0; link < load_.size(); ++link) {
      if (!binds(link) || factor_[link] <= 0.0 || load_[link] <= 0.0) continue;
      peak_ = std::max(peak_, std::min(1.0, load_[link] / effective(link)));
    }
  }

 private:
  static constexpr double kRateTol = 1e-9;  // the fabric's freeze slack

  struct Flow {
    std::vector<net::LinkId> path;
    double cap_mbps = 0.0;
    double rate_mbps = 0.0;
  };

  double effective(net::LinkId link) const {
    if (factor_[link] <= 0.0) return 0.0;
    return topo_.capacity_mbps(link) * factor_[link];
  }
  bool binds(net::LinkId link) const { return std::isfinite(effective(link)); }

  const net::Topology& topo_;
  std::vector<double> factor_;
  std::map<net::FlowId, Flow> flows_;
  std::vector<double> load_;
  std::vector<std::size_t> active_;
  double peak_ = 0.0;
};

struct FillingCoverage {
  std::size_t compared = 0;     // rate comparisons made
  std::size_t link_bound = 0;   // ... of flows held below their cap
  std::size_t stranded = 0;     // ... of flows held at rate 0
  std::size_t completed = 0;
  std::size_t failed = 0;
};

/// Drives a Fabric and the reference through one random sequence of flow
/// starts, completions (simulator steps), aborts, injected failures and
/// link-factor changes, comparing every rate and the peak utilisation
/// bitwise after each operation.
void check_filling(const net::TopologySpec& spec, std::size_t nodes,
                   std::uint64_t seed, FillingCoverage& cov) {
  sim::Simulator sim;
  const net::Topology topo(spec, nodes);
  net::Fabric fabric(sim, topo);
  ReferenceFilling ref(topo);
  Rng rng(seed);
  const auto pick_flow = [&]() -> net::FlowId {
    const auto ids = ref.ids();
    if (ids.empty()) return 0;
    return ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
  };
  const auto node = [&] {
    return static_cast<net::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
  };
  for (int op = 0; op < 500; ++op) {
    const double u = rng.uniform();
    if (u < 0.35) {
      const net::NodeId src = node();
      net::NodeId dst = node();
      if (dst == src) dst = (src + 1) % nodes;
      const double cap = rng.bernoulli(0.2) ? 5000.0 : rng.uniform(0.5, 120.0);
      const net::FlowId id = fabric.start_flow(
          src, dst, rng.uniform(1.0, 300.0), cap, net::TransferClass::kShuffle,
          [&](net::FlowId done) {
            ref.remove(done);
            ++cov.completed;
          },
          [&](net::FlowId dead, Megabytes) {
            ref.remove(dead);
            ++cov.failed;
          });
      ref.add(id, src, dst, cap);
    } else if (u < 0.43) {
      const net::FlowId id = pick_flow();
      fabric.abort_flow(id);
      ref.remove(id);
    } else if (u < 0.47) {
      fabric.fail_flow(pick_flow());  // the failure handler updates ref
    } else if (u < 0.60) {
      const auto link = static_cast<net::LinkId>(rng.uniform_int(
          0, static_cast<std::int64_t>(topo.num_links()) - 1));
      const double v = rng.uniform();
      const double factor = v < 0.40   ? 1.0
                            : v < 0.55 ? 0.5
                            : v < 0.65 ? 0.0
                                       : rng.uniform(0.05, 1.0);
      fabric.set_link_factor(link, factor);
      ref.set_factor(link, fabric.link_factor(link));
    } else {
      sim.step();
    }
    // Re-filling an unchanged flow set reproduces the same rates and loads,
    // so running the reference after an operation that did not reallocate
    // the fabric leaves its rates and peak as they were.
    ref.reallocate();
    ASSERT_EQ(fabric.active_flows(), ref.size()) << "seed " << seed;
    for (const net::FlowId id : ref.ids()) {
      ASSERT_TRUE(fabric.active(id)) << "seed " << seed << " flow " << id;
      EXPECT_EQ(fabric.flow_rate_mbps(id), ref.rate(id))
          << "seed " << seed << " op " << op << " flow " << id;
      ++cov.compared;
      if (ref.rate(id) <= 0.0) {
        ++cov.stranded;
      } else if (ref.rate(id) < fabric.flow_cap_mbps(id)) {
        ++cov.link_bound;
      }
    }
    EXPECT_EQ(fabric.metrics().peak_link_utilization, ref.peak())
        << "seed " << seed << " op " << op;
  }
}

TEST(FabricDifferential, FillingMatchesReferenceBitwiseOnFlatTopology) {
  FillingCoverage cov;
  for (std::uint64_t seed = 1; seed <= 30; ++seed)
    check_filling(net::TopologySpec::flat(), 12, seed, cov);
  EXPECT_GT(cov.compared, 10000u);
  EXPECT_GT(cov.stranded, 0u);  // dead access links strand flows
  EXPECT_GT(cov.completed, 0u);
  EXPECT_GT(cov.failed, 0u);
}

TEST(FabricDifferential,
     FillingMatchesReferenceBitwiseOnOversubscribedTopology) {
  FillingCoverage cov;
  for (std::uint64_t seed = 1; seed <= 30; ++seed)
    check_filling(net::TopologySpec::oversubscribed(), 16, seed, cov);
  EXPECT_GT(cov.compared, 10000u);
  EXPECT_GT(cov.link_bound, 1000u);  // links, not caps, set most rates
  EXPECT_GT(cov.stranded, 0u);
  EXPECT_GT(cov.completed, 0u);
  EXPECT_GT(cov.failed, 0u);
}

// --- end-to-end: parity, ordering, recovery ---------------------------------

exp::RunConfig net_config(std::uint64_t seed = 7) {
  exp::RunConfig cfg;
  cfg.seed = seed;
  cfg.noise = mr::NoiseConfig::typical();
  return cfg;
}

exp::RunMetrics run_small(exp::SchedulerKind kind, exp::RunConfig cfg,
                          workload::AppKind app = workload::AppKind::kTerasort) {
  exp::Run run(exp::paper_fleet(), kind, cfg);
  run.submit(exp::job_batch(app, 3000.0, 8, 3));
  run.execute();
  return run.metrics();
}

TEST(FabricIntegration, FlatTopologyReproducesLegacyScalarTiming) {
  const auto legacy = run_small(exp::SchedulerKind::kFair, net_config());
  auto cfg = net_config();
  cfg.topology = net::TopologySpec::flat();
  const auto flat = run_small(exp::SchedulerKind::kFair, cfg);

  // On one flat rack with unlimited links the per-flow caps reproduce the
  // scalar transfer times exactly; tiny deviations can only come from
  // event-ordering ties, so makespan and energy agree within 1%.
  EXPECT_FALSE(legacy.fabric_active);
  EXPECT_TRUE(flat.fabric_active);
  EXPECT_NEAR(flat.makespan / legacy.makespan, 1.0, 0.01);
  EXPECT_NEAR(flat.total_energy / legacy.total_energy, 1.0, 0.01);
  EXPECT_GT(flat.network.shuffle_mb, 0.0);
  EXPECT_GE(flat.network.mean_flow_slowdown, 1.0 - kTol);
  EXPECT_NEAR(flat.network.mean_flow_slowdown, 1.0, 1e-3);  // nothing binds
}

TEST(FabricIntegration, OversubscriptionHurtsShuffleHeavyAppsMost) {
  // Fig. 1(d): Wordcount is map-heavy while Grep and Terasort move most of
  // their bytes in the shuffle, so a contended fabric must stretch the
  // latter two more.  Completion ratio = oversubscribed / flat, per app.
  std::map<workload::AppKind, double> ratio;
  for (workload::AppKind app :
       {workload::AppKind::kWordcount, workload::AppKind::kGrep,
        workload::AppKind::kTerasort}) {
    auto flat_cfg = net_config();
    flat_cfg.topology = net::TopologySpec::flat();
    const auto flat = run_small(exp::SchedulerKind::kFair, flat_cfg, app);
    auto over_cfg = net_config();
    over_cfg.topology = net::TopologySpec::oversubscribed();
    const auto over = run_small(exp::SchedulerKind::kFair, over_cfg, app);
    ratio[app] = over.mean_completion() / flat.mean_completion();
  }
  EXPECT_GT(ratio[workload::AppKind::kGrep],
            ratio[workload::AppKind::kWordcount]);
  EXPECT_GT(ratio[workload::AppKind::kTerasort],
            ratio[workload::AppKind::kWordcount]);
}

TEST(FabricIntegration, CrashedServerFlowsAbortAndWorkRetransfers) {
  auto cfg = net_config(11);
  cfg.topology = net::TopologySpec::oversubscribed();
  // Take down two machines mid-run (with transfers in flight) and bring
  // them back: their in-flight transfers must abort, re-queued work
  // re-transfers from surviving sources, and every job still completes.
  cfg.faults.crash_for(2, 60.0, 400.0);
  cfg.faults.crash_for(9, 120.0, 400.0);
  cfg.job_tracker.tracker_expiry_window = 30.0;

  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kFair, cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, 3000.0, 8, 4));
  run.execute();
  const auto m = run.metrics();

  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs.size(), 4u);
  EXPECT_GT(m.killed_attempts, 0u);
  EXPECT_GT(m.network.flows_aborted, 0u);
  EXPECT_GT(
      run.job_tracker().counters().retransferred_flows + m.lost_map_outputs,
      0u);
}

}  // namespace
}  // namespace eant
