// Overload protection: admission control, client backpressure, and graceful
// degradation ("brownout") under saturation.
//
// The continuous-traffic service model is open-loop: arrivals follow the
// trace no matter how far the cluster falls behind, so a rate-scale past
// capacity used to grow the JobTracker's queues without bound until every
// tenant's SLO collapsed together.  This module closes the protection gap in
// three layers:
//
//  * OverloadDetector — EWMA of slot occupancy, queue depth per slot, and
//    queue-wait vs. deadline slack, folded on a periodic detector tick and
//    classified into Normal / Elevated / Saturated / Critical with
//    hysteresis: escalation is immediate, de-escalation decays one level per
//    tick and only when the smoothed signals clear a fraction
//    (kOverloadHysteresis) of the escalation thresholds.  Every
//    state transition is an audit::Record, so flapping shows up in digests.
//
//  * AdmissionControl::decide — runs at JobTracker::submit time.  Per-tenant
//    queues are bounded in proportion to tenant weight (weighted-fair
//    admission); deadlined jobs face an EDF feasibility test against the
//    current backlog (reject what cannot finish by its deadline anyway);
//    under Saturated/Critical load the shedding policy rejects
//    lowest-weight non-deadlined work first, protecting deadlined tenants.
//
//  * Backpressure — a rejected JobSpec re-enters the arrival stream after a
//    capped exponential backoff drawn from a dedicated forked RNG stream
//    (deterministic, digest-stable), up to max_retries before the job is
//    dropped.  A conservation ledger (jobs and megabytes: arrivals ==
//    admitted + dropped, retries scheduled == retries that fired) is checked
//    at finalize so no job can silently vanish in the retry loop.
//
// The brownout reactions themselves live with their owners: the JobTracker
// suspends speculation and throttles re-replication, and each scheduler
// reacts to Scheduler::on_overload_state (Fair drops its locality wait,
// Capacity pauses preemption churn, E-Ant skips decline rounds).  All of it
// is restored in reverse order as the detector decays back to Normal.
//
// Everything here is inert by default (enabled = false): a run with the
// subsystem compiled in but disabled schedules no events, consumes no RNG,
// and produces bit-identical digests to the pre-admission simulator.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mapreduce/overload.h"
#include "mapreduce/task.h"
#include "workload/job_spec.h"

namespace eant::audit {
class InvariantAuditor;
}

namespace eant::mr {

/// Per-tenant admission policy.  The weight drives both the queue bound
/// (bound = max(1, ceil(weight * queue_bound_per_weight))) and the shedding
/// order (lowest-weight tenants shed first).  Tenants not listed default to
/// weight 1.0.
struct AdmissionTenantPolicy {
  workload::TenantId tenant = 0;
  double weight = 1.0;
};

/// Escalation thresholds of the overload detector, evaluated against the
/// smoothed signals.  Occupancy is 1 - free_slots/total_slots in [0,1].
/// Backlog is total outstanding demand in task waves per slot — (running +
/// pending tasks) / slots — so 1.0 means exactly full, 1.25 means a
/// quarter-wave queued on top, 2.5 means every slot has well over a full
/// extra wave waiting.  Demand, not queue length alone, because weighted
/// queue bounds cap the queued fraction themselves: a threshold on the
/// bounded queue would leave the brownout reactions permanently dormant.
/// Slack pressure is the fraction of active deadlined jobs whose estimated
/// wait already overruns their deadline.
inline constexpr double kElevatedOccupancy = 0.9;
inline constexpr double kElevatedBacklog = 1.0;
inline constexpr double kSaturatedBacklog = 1.25;
inline constexpr double kCriticalBacklog = 2.5;
inline constexpr double kSlackPressureThreshold = 0.5;

/// De-escalation hysteresis: to leave a level, the smoothed signals must
/// drop below hysteresis * the escalation threshold; the level then decays
/// one step per tick (so recovery restores brownout measures in reverse
/// order of shedding).
inline constexpr double kOverloadHysteresis = 0.7;

static_assert(kOverloadHysteresis > 0.0 && kOverloadHysteresis <= 1.0,
              "admission hysteresis must lie in (0, 1]");
static_assert(kElevatedBacklog <= kSaturatedBacklog &&
                  kSaturatedBacklog <= kCriticalBacklog,
              "admission backlog thresholds must be ordered");

/// Tunables for the overload-protection subsystem.  Defaults are inert:
/// enabled = false means no detector events, no RNG consumption, and
/// digests identical to a build without the subsystem.
struct AdmissionConfig {
  /// Master switch.  Off: JobTracker::submit admits everything, exactly as
  /// before this subsystem existed.
  bool enabled = false;

  // --- overload detector ------------------------------------------------------

  /// Period of the detector tick (seconds of sim time).
  Seconds detector_interval = 15.0;

  /// EWMA smoothing factor for the detector signals (weight of the newest
  /// sample); 1.0 = no smoothing.
  double ewma_alpha = 0.3;

  // --- admission control ------------------------------------------------------

  /// Admitted-but-unfinished jobs allowed per unit of tenant weight.
  double queue_bound_per_weight = 8.0;

  /// Per-tenant weights; unlisted tenants get weight 1.0.
  std::vector<AdmissionTenantPolicy> tenants;

  // --- backpressure -----------------------------------------------------------

  /// Retries before a rejected job is dropped for good.
  int max_retries = 5;

  /// Seed of the retry-backoff RNG stream.  0 = the Run harness substitutes
  /// the run seed, so retries are deterministic per run yet independent of
  /// every other stream.
  std::uint64_t retry_seed = 0;
};

/// Pure hysteresis classifier over the three smoothed load signals — no
/// simulator dependencies, unit-testable in isolation.  fold() is called
/// once per detector tick.
class OverloadDetector {
 public:
  explicit OverloadDetector(const AdmissionConfig& cfg);

  /// Folds one sample of each signal into the EWMAs and returns the
  /// (possibly changed) state.  Escalates immediately to the classified
  /// level; decays at most one level per call, and only when the signals
  /// clear the hysteresis-scaled thresholds.
  OverloadState fold(double occupancy, double backlog_per_slot,
                     double slack_pressure);

  OverloadState state() const { return static_cast<OverloadState>(level_); }
  double occupancy_ewma() const { return occ_; }
  double backlog_ewma() const { return backlog_; }
  double slack_pressure_ewma() const { return slack_; }

 private:
  /// The level the smoothed signals justify when thresholds are scaled by
  /// `scale` (1.0 = escalation thresholds, hysteresis = floor for decay).
  int classify(double scale) const;

  AdmissionConfig cfg_;
  double occ_ = 0.0;
  double backlog_ = 0.0;
  double slack_ = 0.0;
  bool primed_ = false;  ///< first fold seeds the EWMAs instead of blending
  int level_ = 0;
};

/// Why a submission was rejected (or not).  Values are mixed into audit
/// records — append only.
enum class AdmissionVerdict : std::uint32_t {
  kAdmit = 0,
  kQueueFull = 1,   ///< tenant's weighted queue bound reached
  kShed = 2,        ///< load shedding under Saturated/Critical state
  kInfeasible = 3,  ///< deadlined job cannot finish in time anyway
};

/// "admit" / "queue-full" / "shed" / "infeasible".
const char* admission_verdict_name(AdmissionVerdict v);

/// Per-tenant admission ledger: conservation counters plus the live backlog
/// against its bound.  Exposed read-only through AdmissionControl::ledgers()
/// and folded into exp::TenantMetrics.
struct TenantAdmissionLedger {
  double weight = 1.0;
  std::size_t bound = 1;  ///< admitted-but-unfinished job bound

  std::size_t arrivals = 0;        ///< fresh submissions (attempt 0)
  std::size_t admitted = 0;        ///< decide() said kAdmit
  std::size_t rejections = 0;      ///< rejection events (retries re-count)
  std::size_t retries = 0;         ///< backoff retries scheduled
  std::size_t retry_arrivals = 0;  ///< backoff retries that fired
  std::size_t dropped = 0;         ///< gave up after max_retries

  std::size_t backlog = 0;  ///< currently admitted-but-unfinished
  std::size_t peak_backlog = 0;

  Megabytes arrived_mb = 0.0;
  Megabytes admitted_mb = 0.0;
  Megabytes dropped_mb = 0.0;
};

/// The admission-control engine owned by the JobTracker.  The JobTracker
/// calls decide() per submission, the note_* taps as jobs move through their
/// lifecycle, tick() from the periodic detector event, and finalize() at end
/// of run for the conservation checks.  This class never touches the
/// simulator; all timing flows in through `now` arguments, which keeps it
/// deterministic and unit-testable.
class AdmissionControl {
 public:
  AdmissionControl(const AdmissionConfig& cfg, audit::InvariantAuditor* auditor);

  const AdmissionConfig& config() const { return cfg_; }

  // --- admission --------------------------------------------------------------

  /// The admission decision for one submission attempt.  Pure with respect
  /// to simulator state: the caller supplies the cluster signals.
  AdmissionVerdict decide(const workload::JobSpec& spec, int attempt,
                          int total_slots, std::size_t pending_tasks,
                          Seconds now);

  /// A fresh job arrived from the trace (attempt 0, counted exactly once
  /// even if the submission is buffered across a master outage).
  void note_arrival(const workload::JobSpec& spec);

  /// decide() said kAdmit and submit_now assigned `id`.  Audits the queue
  /// bound ("admission-queue-bound": backlog must never exceed it).
  void note_admitted(JobId id, const workload::JobSpec& spec, Seconds now);

  /// decide() rejected the submission.  Emits the kJobReject record; when a
  /// retry is still allowed, draws the backoff delay into *retry_delay,
  /// emits kJobRetry, and returns true.  Returns false when the job is
  /// dropped for good.
  bool note_rejection(const workload::JobSpec& spec, AdmissionVerdict verdict,
                      int attempt, Seconds now, Seconds* retry_delay);

  /// A scheduled backoff retry fired (conservation: must eventually match
  /// every note_rejection that returned true).
  void note_retry_arrival(workload::TenantId tenant);

  /// First task of an admitted job launched (the admitted-then-starved
  /// check keys off jobs that never reach this point).
  void note_first_launch(JobId id);

  /// An admitted job finished (completed or failed).  Releases its backlog
  /// slot; audits "admission-deadline-starved" if a deadlined job was
  /// admitted but never launched a task before its deadline passed.
  void note_job_finished(JobId id, const workload::JobSpec& spec, Seconds now);

  /// Feeds one observed task duration into the EDF feasibility estimate.
  void note_task_duration(Seconds duration);

  // --- detector ---------------------------------------------------------------

  /// One detector tick: folds the signals, emits kOverloadState on a
  /// transition, accumulates time-in-state.  Returns the new state.
  OverloadState tick(double occupancy, double backlog_per_slot,
                     double slack_pressure, Seconds now);

  // --- end of run -------------------------------------------------------------

  /// Closes the time-in-state accounting and runs the conservation checks
  /// ("admission-conservation", "admission-retry-conservation").
  /// Idempotent.
  void finalize(Seconds now);

  // --- accessors --------------------------------------------------------------

  OverloadState state() const { return state_; }
  const std::map<workload::TenantId, TenantAdmissionLedger>& ledgers() const {
    return ledgers_;
  }
  std::size_t total_rejections() const;
  std::size_t total_retries() const;
  std::size_t transitions() const { return transitions_; }
  Seconds time_in(OverloadState s) const {
    return time_in_state_[static_cast<int>(s)];
  }
  double mean_task_seconds() const { return task_s_ewma_; }

 private:
  struct AdmittedJob {
    workload::TenantId tenant = 0;
    Seconds deadline = -1.0;
    bool launched = false;
  };

  /// The tenant's ledger, created on first touch with its configured (or
  /// default) weight and the derived queue bound.
  TenantAdmissionLedger& ledger(workload::TenantId tenant);

  /// Sole mutation site of state_: accumulates time-in-state, bumps the
  /// transition count, and emits the kOverloadState audit record.
  void transition_to(OverloadState next, Seconds now);

  AdmissionConfig cfg_;
  audit::InvariantAuditor* auditor_;  // may be null (unaudited run)
  OverloadDetector detector_;
  Rng retry_rng_;  ///< dedicated stream: Rng(retry_seed).fork(0x0ad)

  OverloadState state_ = OverloadState::kNormal;
  Seconds state_since_ = 0.0;
  Seconds time_in_state_[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t transitions_ = 0;

  double min_weight_ = 1.0;  ///< lowest configured tenant weight (shed first)
  double task_s_ewma_ = 0.0;
  std::size_t task_samples_ = 0;

  std::map<workload::TenantId, TenantAdmissionLedger> ledgers_;
  std::map<JobId, AdmittedJob> admitted_;
  bool finalized_ = false;
};

}  // namespace eant::mr
