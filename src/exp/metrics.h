// Metric collection for experiments: per-machine energy/utilisation,
// per-job completion times, task-placement histograms and locality — the raw
// material for every figure in the paper's evaluation section.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "audit/report.h"
#include "cluster/cluster.h"
#include "common/units.h"
#include "core/energy_model.h"
#include "mapreduce/job_tracker.h"
#include "net/fabric.h"
#include "workload/job_spec.h"

namespace eant::exp {

/// Aggregates per machine type (Fig. 8(a)/(b)).
struct TypeMetrics {
  std::string type_name;
  std::size_t machine_count = 0;
  Joules energy = 0.0;        ///< exact integrated energy, summed over machines
  double avg_utilization = 0; ///< time-averaged CPU utilisation (fraction)
  std::size_t completed_maps = 0;
  std::size_t completed_reduces = 0;
  /// Completed tasks per application name (Fig. 9(a)).
  std::map<std::string, std::size_t> tasks_by_app;
};

/// Per-job results (Fig. 8(c), fairness).
struct JobMetrics {
  mr::JobId id = 0;
  std::string class_name;  ///< e.g. "Wordcount-S"
  workload::TenantId tenant = 0;
  Seconds submit_time = 0.0;
  Seconds completion_time = 0.0;  ///< finish - submit
  Seconds deadline = -1.0;        ///< absolute deadline; < 0 = none
  bool missed_deadline = false;   ///< had a deadline and blew (or failed) it
  std::size_t maps = 0;
  std::size_t reduces = 0;
  double map_task_seconds = 0.0;
  double shuffle_seconds = 0.0;
  double reduce_task_seconds = 0.0;
  bool failed = false;  ///< ran out of task attempts; excluded from means
};

/// Per-tenant SLO aggregates over one run (the continuous-traffic bench's
/// reporting unit).  Latency percentiles are over completed jobs only.
struct TenantMetrics {
  workload::TenantId tenant = 0;
  std::size_t jobs = 0;         ///< finished jobs (completed + failed)
  std::size_t jobs_failed = 0;
  Seconds latency_p50 = 0.0;
  Seconds latency_p95 = 0.0;
  Seconds latency_p99 = 0.0;
  Seconds mean_latency = 0.0;
  Joules energy = 0.0;          ///< Eq. 2 estimate over completed tasks
  double slot_seconds = 0.0;    ///< completed task-seconds
  std::size_t preemptions = 0;  ///< attempts preempted from this tenant
  std::size_t deadline_jobs = 0;
  std::size_t deadline_misses = 0;

  // --- admission control (zero unless the overload subsystem is enabled) ------
  /// Rejections are counted apart from deadline misses: a rejected job never
  /// ran, so it appears in no latency percentile and no miss count.
  std::size_t jobs_rejected = 0;  ///< rejection events (retries re-count)
  std::size_t jobs_dropped = 0;   ///< gave up after the retry budget
  std::size_t retries = 0;        ///< backpressure retries scheduled
  std::size_t jobs_goodput = 0;   ///< completed on time (deadlined or not)
  std::size_t peak_backlog = 0;   ///< max admitted-but-unfinished jobs
  std::size_t backlog_bound = 0;  ///< configured queue bound (0 = disabled)

  /// Mean Eq. 2 task energy per completed job, in kJ (0 when none).
  double energy_per_job_kj() const {
    const std::size_t completed = jobs - jobs_failed;
    return completed == 0
               ? 0.0
               : energy / kJoulesPerKilojoule / static_cast<double>(completed);
  }
};

/// Everything measured over one experiment run.  The JobTracker's tallies
/// (jobs, attempts, fetches, re-replication, corruption, failover) are the
/// inherited mr::JobTrackerCounters fields.
struct RunMetrics : mr::JobTrackerCounters {
  std::string scheduler_name;
  Seconds makespan = 0.0;   ///< sim time when the last job finished
  Joules total_energy = 0.0;
  std::vector<TypeMetrics> by_type;
  std::vector<JobMetrics> jobs;
  std::vector<TenantMetrics> by_tenant;  ///< sorted by tenant id
  std::size_t deadline_misses = 0;       ///< over all tenants
  std::size_t total_tasks = 0;
  std::size_t local_maps = 0;       ///< node-local maps
  std::size_t rack_local_maps = 0;  ///< fed from a same-rack replica
  std::size_t total_maps = 0;

  // --- network fabric (only meaningful when fabric_active) -------------------
  bool fabric_active = false;  ///< flow-model network vs legacy scalars
  net::FabricMetrics network;

  // --- fault & recovery accounting (fig. 13) ---------------------------------
  Joules wasted_energy = 0.0;         ///< Eq. 2 estimate over discarded work

  // --- degraded-mode accounting ----------------------------------------------
  std::size_t link_faults = 0;           ///< applied degrading net transitions
  std::size_t perf_faults = 0;           ///< applied fail-slow degradations
  std::size_t under_replicated_blocks = 0;  ///< still queued at snapshot time
  /// Blocks short of `replication` live replicas that are neither recorded
  /// lost nor queued/in-flight for recovery — must be 0 (the "no block falls
  /// through the cracks" invariant).
  std::size_t replication_violations = 0;

  // --- data-integrity accounting (zero unless corruption faults ran) ----------
  /// Mean seconds from injection to detection, over detected corruptions.
  Seconds mean_detection_latency = 0.0;
  /// Eq. 2 estimate over work discarded for corruption (subset of
  /// wasted_energy) — the energy bill of silent data corruption.
  Joules wasted_energy_corruption = 0.0;

  // --- overload protection (zero unless admission is enabled) -----------------
  bool admission_active = false;    ///< the run had the subsystem enabled
  std::size_t jobs_rejected = 0;    ///< rejection events across tenants
  std::size_t admission_retries = 0;  ///< backpressure retries scheduled
  std::size_t overload_transitions = 0;  ///< detector state changes
  Seconds time_elevated = 0.0;   ///< sim time spent in Elevated
  Seconds time_saturated = 0.0;  ///< sim time spent in Saturated
  Seconds time_critical = 0.0;   ///< sim time spent in Critical

  // --- invariant audit (only meaningful when audited) ------------------------
  bool audited = false;  ///< the run had the InvariantAuditor attached
  /// FNV-1a over the ordered observation stream; bit-identical across two
  /// runs of the same RunConfig + seed, different otherwise.
  std::uint64_t determinism_digest = 0;
  audit::AuditReport audit;

  Seconds mean_recovery_time() const;
  double wasted_energy_kj() const {
    return wasted_energy / kJoulesPerKilojoule;
  }

  /// Fraction of the fleet's total energy that went into discarded work.
  double wasted_energy_fraction() const {
    return total_energy <= 0.0 ? 0.0 : wasted_energy / total_energy;
  }

  double locality_fraction() const {
    return total_maps == 0
               ? 0.0
               : static_cast<double>(local_maps) / static_cast<double>(total_maps);
  }

  /// Fraction of maps fed from a same-rack (but not same-node) replica.
  double rack_locality_fraction() const {
    return total_maps == 0 ? 0.0
                           : static_cast<double>(rack_local_maps) /
                                 static_cast<double>(total_maps);
  }

  /// Mean completion time of jobs whose class matches (empty = all jobs).
  Seconds mean_completion(const std::string& class_name = {}) const;

  /// Total energy in kilojoules (the paper's plotting unit).
  double total_energy_kj() const { return total_energy / kJoulesPerKilojoule; }

  const TypeMetrics& type(const std::string& name) const;
  const TenantMetrics& tenant(workload::TenantId id) const;
};

/// Collects reports/energies during a run; owned by the Run harness.
class MetricsCollector {
 public:
  MetricsCollector(cluster::Cluster& cluster, mr::JobTracker& jt);

  /// Installs listeners on the JobTracker.  Call once, before execution.
  void install();

  /// Snapshots final metrics (energies/utilisations read at call time).
  RunMetrics finalize(const std::string& scheduler_name);

 private:
  cluster::Cluster& cluster_;
  mr::JobTracker& jt_;
  core::EnergyModel model_;  ///< Eq. 2 estimator for wasted-work energy
  Joules wasted_energy_ = 0.0;
  Joules wasted_energy_corruption_ = 0.0;
  std::map<workload::TenantId, Joules> tenant_energy_;
  std::map<workload::TenantId, double> tenant_slot_seconds_;
  std::map<workload::TenantId, std::size_t> tenant_preemptions_;
  std::map<std::string, std::map<std::string, std::size_t>> tasks_by_type_app_;
  std::map<std::string, std::size_t> maps_by_type_;
  std::map<std::string, std::size_t> reduces_by_type_;
  std::vector<JobMetrics> jobs_;
  std::size_t total_tasks_ = 0;
  std::size_t local_maps_ = 0;
  std::size_t rack_local_maps_ = 0;
  std::size_t total_maps_ = 0;
  Seconds last_finish_ = 0.0;
};

}  // namespace eant::exp
