// One execution of a workload, timed from the benchmark's side of the public
// API, plus the simulated outputs the correctness gates compare.
//
// A plain rep times set-up (input generation, Run construction, submit),
// Run::execute() and Run::metrics().  A traced rep replaces execute() with
// the same loop driven through Simulator::step(), timing every step and
// filing it under the first layer whose public counter advanced during it; it
// also attaches the simulator, fabric and machine observer taps, which are
// free only when the auditor is off.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/report.h"
#include "workloads.h"

namespace perfbench {

/// The completion time of the highest percentile that still has at least
/// ten completed jobs beyond it: the 11th-largest of `times`.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in percent
  std::size_t beyond = 0;   ///< completions strictly above the value
};

/// Requires at least 11 values.
Tail tail_completion(std::vector<double> times);

/// Linear-interpolation quantile (q in [0, 1]) of unsorted values; 0 when
/// empty.
double quantile(std::vector<double> values, double q);

/// Simulated outputs: deterministic for a workload and seed, whatever the
/// host, the tracing or the auditing.
struct SimOutputs {
  /// Total and wasted energy, makespan, events, per-job times.
  std::uint64_t fingerprint = 0;
  std::uint64_t events_executed = 0;
  double energy_kj = 0.0;
  double makespan_s = 0.0;
  double job_p50_s = 0.0;
  Tail job_tail;
  double wasted_energy_frac = 0.0;  ///< the share spent on discarded work
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t dropped = 0;

  bool conserved() const { return completed + failed + dropped == submitted; }
  double jobs_ok_frac() const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(completed) /
                                static_cast<double>(submitted);
  }
};

/// Exact per-layer work counts read from public accessors after a run.
struct LayerCounts {
  std::uint64_t heartbeats = 0;
  std::uint64_t select_job_calls = 0;
  std::size_t killed_attempts = 0;
  std::size_t failed_attempts = 0;
  std::size_t control_ticks = 0;
  std::size_t flows_completed = 0;
  std::size_t flows_aborted = 0;
  std::size_t flows_failed = 0;
  double net_total_mb = 0.0;
  double mean_flow_slowdown = 0.0;
  double peak_link_util = 0.0;
  double node_local_frac = 0.0;
  double rack_local_frac = 0.0;
  std::size_t rereplicated_blocks = 0;
  std::size_t corruptions_injected = 0;
  std::size_t corruptions_detected = 0;
  std::size_t corruptions_repaired = 0;
  double scrubbed_mb = 0.0;

  bool operator==(const LayerCounts&) const = default;
};

/// Host time of one step class over a traced execute().
struct StepClass {
  std::vector<double> us;  ///< per-step microseconds
  double total_s = 0.0;
  void add(double seconds) {
    us.push_back(seconds * 1e6);
    total_s += seconds;
  }
};

/// What only a traced rep measures.
struct TraceStats {
  std::uint64_t pending_at_start = 0;  ///< queued before execute() began
  std::uint64_t events_scheduled = 0;  ///< enqueued during execute()
  std::size_t pending_peak = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t scheduled_in_flow_steps = 0;
  std::uint64_t machine_state_changes = 0;
  StepClass all, heartbeat, control_tick, flow, rerep;
};

/// One rep's measurements.
struct Rep {
  double generate_s = 0.0;
  double run_ctor_s = 0.0;
  double submit_s = 0.0;
  double execute_s = 0.0;
  double metrics_s = 0.0;
  double setup_s() const { return generate_s + run_ctor_s + submit_s; }

  SimOutputs sim;
  LayerCounts counts;
  bool audited = false;
  eant::audit::AuditReport audit;
  TraceStats trace;  ///< filled by kTraced reps only
};

enum class Mode { kPlain, kTraced };

/// Generates the workload from the seed, builds and runs it to completion.
/// `audit` attaches the auditor (never together with kTraced: the taps the
/// trace uses are the auditor's).
Rep run_rep(const std::string& workload, std::uint64_t seed, Size size,
            bool audit, Mode mode);

/// Times `count` set-ups alone (generate, construct, submit), discarding
/// each run unexecuted, and returns their mean: one set-up lasts about a
/// millisecond, too short to time steadily on its own.
double setup_batch(const std::string& workload, std::uint64_t seed, Size size,
                   bool audit, int count);

}  // namespace perfbench
