#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "audit/digest.h"
#include "core/eant_scheduler.h"
#include "exp/runner.h"

namespace perfbench {

using namespace eant;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SimTap : public sim::SimObserver {
 public:
  std::uint64_t scheduled = 0;
  void on_event_scheduled(Seconds, sim::EventId) override { ++scheduled; }
  void on_event_executed(Seconds, sim::EventId) override {}
};

class FlowTap : public net::FabricObserver {
 public:
  std::uint64_t started = 0;
  std::uint64_t callbacks = 0;  ///< start, finish, abort and fail callbacks
  void on_flow_started(net::FlowId, net::TransferClass, Megabytes) override {
    ++started;
    ++callbacks;
  }
  void on_flow_finished(net::FlowId, Megabytes, Megabytes) override {
    ++callbacks;
  }
  void on_flow_aborted(net::FlowId, Megabytes, Megabytes) override {
    ++callbacks;
  }
};

class MachineTap : public cluster::MachineObserver {
 public:
  std::uint64_t changes = 0;
  void on_machine_state(cluster::MachineId, Seconds, double, bool) override {
    ++changes;
  }
};

/// Attaches the taps for the lifetime of a traced execute() and detaches
/// them on every exit path, since the Run outlives them.
class Taps {
 public:
  explicit Taps(exp::Run& run) : run_(run) {
    run_.simulator().set_observer(&sim);
    if (run_.fabric() != nullptr) run_.fabric()->set_observer(&flow);
    for (std::size_t m = 0; m < run_.cluster().size(); ++m) {
      run_.cluster().machine(m).set_observer(&machine);
    }
  }
  ~Taps() {
    run_.simulator().set_observer(nullptr);
    if (run_.fabric() != nullptr) run_.fabric()->set_observer(nullptr);
    for (std::size_t m = 0; m < run_.cluster().size(); ++m) {
      run_.cluster().machine(m).set_observer(nullptr);
    }
  }
  Taps(const Taps&) = delete;
  Taps& operator=(const Taps&) = delete;

  SimTap sim;
  FlowTap flow;
  MachineTap machine;

 private:
  exp::Run& run_;
};

/// Run::execute() driven one Simulator::step() at a time, with each step
/// timed and filed under at most one layer, the first in this order whose
/// counter advanced during it: re-replication (rereplicated_blocks), flow
/// (any fabric observer callback: a start re-runs progressive filling just
/// as a finish, abort or failure does), control tick (E-Ant intervals) and
/// heartbeat (JobTracker::heartbeats).  The classes are exclusive so that a
/// heartbeat which launches a reduce, and with it the reduce's shuffle
/// flows, counts as fabric work rather than inflating the heartbeat share.
void traced_execute(exp::Run& run, Seconds time_limit, TraceStats& ts) {
  sim::Simulator& sim = run.simulator();
  const mr::JobTracker& jt = run.job_tracker();
  const core::EAntScheduler* eant = run.eant();
  Taps taps(run);
  ts.pending_at_start = sim.pending();

  const auto step = [&] {
    if (sim.now() > time_limit) {
      throw std::runtime_error("run exceeded the safety time limit");
    }
    const std::uint64_t heartbeats = jt.heartbeats();
    const std::size_t ticks = eant != nullptr ? eant->intervals() : 0;
    const std::size_t rerep = jt.rereplicated_blocks();
    const std::uint64_t flow_callbacks = taps.flow.callbacks;
    const std::uint64_t scheduled = taps.sim.scheduled;

    const auto t0 = Clock::now();
    const bool progressed = sim.step();
    const double dt = seconds_since(t0);
    if (!progressed) {
      throw std::runtime_error("event queue drained with work outstanding");
    }

    ts.all.add(dt);
    // A step that completed a block copy also ends a flow, but its cost is
    // the NameNode's choice of the next copy, so re-replication comes first.
    if (jt.rereplicated_blocks() != rerep) {
      ts.rerep.add(dt);
    } else if (taps.flow.callbacks != flow_callbacks) {
      ts.flow.add(dt);
      ts.scheduled_in_flow_steps += taps.sim.scheduled - scheduled;
    } else if (eant != nullptr && eant->intervals() != ticks) {
      ts.control_tick.add(dt);
    } else if (jt.heartbeats() != heartbeats) {
      ts.heartbeat.add(dt);
    }
    ts.pending_peak = std::max(ts.pending_peak, sim.pending());
  };
  // The same two loops as Run::execute(): run until every job resolved, then
  // drain in-flight block recovery.
  while (!jt.all_done()) step();
  while (jt.rereplication_active() > 0) step();

  ts.events_scheduled = taps.sim.scheduled;
  ts.flows_started = taps.flow.started;
  ts.machine_state_changes = taps.machine.changes;
}

SimOutputs sim_outputs(exp::Run& run, const exp::RunMetrics& m,
                       std::size_t submitted) {
  const mr::JobTracker& jt = run.job_tracker();
  SimOutputs o;
  o.events_executed = run.simulator().executed();
  o.energy_kj = m.total_energy_kj();
  o.makespan_s = m.makespan;
  o.wasted_energy_frac = m.wasted_energy_fraction();
  o.submitted = submitted;
  o.completed = jt.jobs_completed();
  o.failed = jt.jobs_failed();
  o.dropped = jt.jobs_dropped();

  audit::Fnv1a h;
  h.mix(m.total_energy);
  h.mix(m.wasted_energy);
  h.mix(m.makespan);
  h.mix(o.events_executed);
  h.mix(static_cast<std::uint64_t>(o.dropped));
  std::vector<double> done;
  for (const exp::JobMetrics& j : m.jobs) {
    h.mix(static_cast<std::uint64_t>(j.id));
    h.mix(j.completion_time);
    h.mix(static_cast<std::uint64_t>(j.failed));
    if (!j.failed) done.push_back(j.completion_time);
  }
  o.fingerprint = h.value();
  o.job_p50_s = quantile(done, 0.5);
  if (done.size() >= 11) o.job_tail = tail_completion(std::move(done));
  return o;
}

LayerCounts layer_counts(exp::Run& run, const exp::RunMetrics& m) {
  const mr::JobTracker& jt = run.job_tracker();
  LayerCounts c;
  c.heartbeats = jt.heartbeats();
  c.select_job_calls = jt.select_job_calls();
  c.killed_attempts = jt.killed_attempts();
  c.failed_attempts = jt.failed_attempts();
  c.control_ticks = run.eant() != nullptr ? run.eant()->intervals() : 0;
  if (m.fabric_active) {
    c.flows_completed = m.network.flows_completed;
    c.flows_aborted = m.network.flows_aborted;
    c.flows_failed = m.network.flows_failed;
    c.net_total_mb = m.network.total_mb();
    c.mean_flow_slowdown = m.network.mean_flow_slowdown;
    c.peak_link_util = m.network.peak_link_utilization;
  }
  c.node_local_frac = m.locality_fraction();
  c.rack_local_frac = m.rack_locality_fraction();
  c.rereplicated_blocks = jt.rereplicated_blocks();
  c.corruptions_injected = jt.corruptions_injected();
  c.corruptions_detected = jt.corruptions_detected();
  c.corruptions_repaired = jt.corruptions_repaired();
  c.scrubbed_mb = jt.scrubbed_mb();
  return c;
}

/// Generates the inputs and builds the run, timing each part.
std::unique_ptr<exp::Run> set_up(const std::string& name, std::uint64_t seed,
                                 Size size, bool audit, Rep& rep,
                                 std::size_t& submitted, Seconds& time_limit) {
  auto t0 = Clock::now();
  Workload w = make_workload(name, seed, size, audit);
  rep.generate_s = seconds_since(t0);

  t0 = Clock::now();
  auto run = std::make_unique<exp::Run>(w.fleet, w.scheduler, w.config);
  rep.run_ctor_s = seconds_since(t0);

  t0 = Clock::now();
  run->submit(w.jobs);
  rep.submit_s = seconds_since(t0);

  submitted = w.jobs.size();
  time_limit = w.config.time_limit;
  return run;
}

}  // namespace

Tail tail_completion(std::vector<double> times) {
  constexpr std::size_t kBeyond = 10;
  if (times.size() <= kBeyond) {
    throw std::invalid_argument("tail needs at least 11 completions");
  }
  std::sort(times.begin(), times.end());
  const std::size_t idx = times.size() - kBeyond - 1;
  Tail t;
  t.value = times[idx];
  t.beyond = kBeyond;
  t.percentile =
      100.0 * static_cast<double>(idx + 1) / static_cast<double>(times.size());
  return t;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Rep run_rep(const std::string& workload, std::uint64_t seed, Size size,
            bool audit, Mode mode) {
  if (audit && mode == Mode::kTraced) {
    throw std::invalid_argument("a traced rep cannot carry the auditor");
  }
  Rep rep;
  std::size_t submitted = 0;
  Seconds time_limit = 0.0;
  std::unique_ptr<exp::Run> run =
      set_up(workload, seed, size, audit, rep, submitted, time_limit);

  auto t0 = Clock::now();
  if (mode == Mode::kTraced) {
    traced_execute(*run, time_limit, rep.trace);
  } else {
    run->execute();
  }
  rep.execute_s = seconds_since(t0);

  t0 = Clock::now();
  const exp::RunMetrics m = run->metrics();
  rep.metrics_s = seconds_since(t0);

  rep.sim = sim_outputs(*run, m, submitted);
  rep.counts = layer_counts(*run, m);
  rep.audited = m.audited;
  if (m.audited) rep.audit = m.audit;
  return rep;
}

double setup_batch(const std::string& workload, std::uint64_t seed, Size size,
                   bool audit, int count) {
  double total_s = 0.0;
  for (int i = 0; i < count; ++i) {
    Rep rep;
    std::size_t submitted = 0;
    Seconds time_limit = 0.0;
    set_up(workload, seed, size, audit, rep, submitted, time_limit);
    total_s += rep.setup_s();
  }
  return total_s / count;
}

}  // namespace perfbench
