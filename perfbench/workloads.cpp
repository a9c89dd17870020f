#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "cluster/catalog.h"
#include "common/rng.h"
#include "net/topology.h"
#include "tenancy/presets.h"
#include "tenancy/traffic.h"
#include "workload/msd.h"

namespace perfbench {

using namespace eant;

namespace {

constexpr std::size_t kPaperFleetSize = 16;
constexpr std::uint64_t kFaultScheduleSeed = 0xc4a05;

/// The paper-reproduction run configuration (bench/bench_common.h): typical
/// noise, a 120 s E-Ant control interval scaled with the workload, and no
/// cross-class negative feedback.
exp::RunConfig paper_config(std::uint64_t seed) {
  exp::RunConfig cfg;
  cfg.seed = seed;
  cfg.noise = mr::NoiseConfig::typical();
  cfg.eant.control_interval = 120.0;
  cfg.eant.negative_feedback = false;
  return cfg;
}

/// A random permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  rng.shuffle(p);
  return p;
}

/// Equal-probability strata of n draws, visited in random order: the i-th
/// value is u in [0, 1) from the stratum order[i].
class Strata {
 public:
  Strata(std::size_t n, Rng& rng) : order_(permutation(n, rng)), rng_(rng) {}
  double draw(std::size_t i) {
    return (static_cast<double>(order_[i]) + rng_.uniform()) /
           static_cast<double>(order_.size());
  }

 private:
  std::vector<std::size_t> order_;
  Rng& rng_;
};

/// Jobs shaped like workload::MsdGenerator's mix (same class shares, size
/// and reduce ranges, log-uniform sizes), drawn by stratified sampling:
/// class counts are fixed by the shares, and each class's sizes and reduce
/// counts take one jittered draw per equal-probability stratum, in seeded
/// random order.  Inter-arrival gaps are uniform on [0.5, 1.5] x the mean,
/// also stratified, rather than MsdGenerator's exponential gaps, whose
/// bursts make the host cost of a contended run swing by half between
/// seeds.  Every seed still changes every job, but the total input volume
/// and the arrival span barely move, so the spread between seeded runs
/// measures the host more than the draw.
std::vector<workload::JobSpec> stratified_msd(
    const workload::MsdConfig& c, const std::vector<workload::AppKind>& apps,
    Rng& rng) {
  struct Band {
    workload::SizeClass cls;
    double share;
    Megabytes lo, hi;
    int rlo, rhi;
  };
  const Band bands[] = {
      {workload::SizeClass::kSmall, c.small_share, c.small_min_mb,
       c.small_max_mb, c.small_min_reduces, c.small_max_reduces},
      {workload::SizeClass::kMedium, c.medium_share, c.medium_min_mb,
       c.medium_max_mb, c.medium_min_reduces, c.medium_max_reduces},
      {workload::SizeClass::kLarge, c.large_share, c.large_min_mb,
       c.large_max_mb, c.large_min_reduces, c.large_max_reduces},
  };
  const double total_share = c.small_share + c.medium_share + c.large_share;
  const auto n = static_cast<std::size_t>(c.num_jobs);

  std::vector<workload::JobSpec> jobs;
  std::vector<double> order_key;
  jobs.reserve(n);
  for (std::size_t b = 0; b < 3; ++b) {
    const Band& band = bands[b];
    const std::size_t k =
        b == 2 ? n - jobs.size()
               : static_cast<std::size_t>(std::lround(
                     static_cast<double>(n) * band.share / total_share));
    Strata sizes(k, rng);
    Strata reduce_counts(k, rng);
    const double log_lo = std::log(band.lo);
    const double log_hi = std::log(band.hi);
    for (std::size_t i = 0; i < k; ++i) {
      const double us = sizes.draw(i);
      const double ur = reduce_counts.draw(i);
      workload::JobSpec job;
      job.size_class = band.cls;
      job.input_mb = std::max(kHdfsBlockMb,
                              std::exp(log_lo + us * (log_hi - log_lo)) *
                                  c.input_scale);
      const double reduces =
          (band.rlo + ur * static_cast<double>(band.rhi - band.rlo)) *
          c.reduce_scale;
      job.num_reduces = std::max(1, static_cast<int>(std::lround(reduces)));
      job.app = apps[jobs.size() % apps.size()];
      jobs.push_back(job);
      // Each class's jobs sit at evenly spread places in the arrival order.
      order_key.push_back((static_cast<double>(i) + rng.uniform()) /
                          static_cast<double>(k));
    }
  }
  std::vector<std::size_t> by_key(n);
  std::iota(by_key.begin(), by_key.end(), std::size_t{0});
  std::sort(by_key.begin(), by_key.end(), [&](std::size_t a, std::size_t b) {
    return order_key[a] < order_key[b];
  });
  std::vector<workload::JobSpec> ordered;
  ordered.reserve(n);
  for (std::size_t i : by_key) ordered.push_back(jobs[i]);
  jobs = std::move(ordered);

  Strata gaps(n, rng);
  Seconds t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].submit_time = t;
    t += c.mean_interarrival * (0.5 + gaps.draw(i));
  }
  return jobs;
}

sched::TenantShareConfig tenant_shares(const tenancy::TrafficConfig& mix) {
  sched::TenantShareConfig share;
  for (const auto& t : mix.tenants) {
    share.tenants.push_back(
        sched::TenantQueue{t.profile.tenant, t.profile.name, t.profile.weight});
  }
  return share;
}

// eant-scale: E-Ant on 16 copies of the paper's fleet (256 heterogeneous
// nodes) and the MSD mix scaled with the fleet — 16x the jobs arriving 16x
// as fast — over the default (scalar) network.
Workload eant_scale(std::uint64_t seed, Size size) {
  const std::size_t copies = size == Size::kFull ? 16 : 2;
  Workload w;
  w.fleet = [copies](cluster::Cluster& c) {
    for (std::size_t i = 0; i < copies; ++i) cluster::add_paper_fleet(c);
  };
  w.scheduler = exp::SchedulerKind::kEAnt;
  w.config = paper_config(seed);

  workload::MsdConfig msd;
  msd.num_jobs = 87 * static_cast<int>(copies);
  msd.input_scale = 1.0 / 200.0;
  msd.mean_interarrival = 60.0 / static_cast<double>(copies);
  Rng rng(seed);
  w.jobs = stratified_msd(msd, workload::all_apps(), rng);
  return w;
}

// shuffle-contention: Fair on the paper fleet over the 4-rack
// oversubscribed fabric; a stream of small shuffle-heavy (Terasort, Grep)
// jobs of the MSD medium class.  The small and large classes are left out,
// and the jobs are many and small: with a few large shuffles, whether they
// overlapped made the host cost differ 2x between seeds.
Workload shuffle_contention(std::uint64_t seed, Size size) {
  Workload w;
  w.fleet = exp::paper_fleet();
  w.scheduler = exp::SchedulerKind::kFair;
  w.config = paper_config(seed);
  w.config.topology = net::TopologySpec::oversubscribed();

  workload::MsdConfig msd;
  msd.num_jobs = size == Size::kFull ? 1200 : 24;
  msd.small_share = 0.0;
  msd.large_share = 0.0;
  msd.input_scale = 1.0 / 2000.0;
  msd.reduce_scale = 1.0 / 16.0;
  msd.mean_interarrival = 8.0;
  Rng rng(seed);
  w.jobs = stratified_msd(
      msd, {workload::AppKind::kTerasort, workload::AppKind::kGrep}, rng);
  return w;
}

/// Adds fault episodes at `mtbf` per machine over the horizon, their count
/// fixed at its expectation and drawn by stratified sampling: start times take one jittered draw per equal slice of the
/// horizon, each machine is hit once per round of `machines` episodes, and
/// durations are exponential with mean `mean_duration`, one draw per
/// equal-probability stratum.  `add(machine, start, duration)` records one.
template <typename Add>
void stratified_episodes(std::size_t machines, Seconds horizon,
                         Seconds mtbf, Seconds mean_duration, Rng& rng,
                         Add add) {
  const auto n = static_cast<std::size_t>(std::lround(
      horizon * static_cast<double>(machines) / mtbf));
  Strata durations(n, rng);
  std::vector<std::size_t> victims;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % machines == 0) victims = permutation(machines, rng);
    const Seconds t = (static_cast<double>(i) + rng.uniform()) /
                      static_cast<double>(n) * horizon;
    add(victims[i % machines], t,
        -mean_duration * std::log1p(-durations.draw(i)));
  }
}

// tenant-chaos: the three-tenant mix at 2x rate over three days on the paper
// fleet, tenant-mode Capacity over the oversubscribed fabric, with the full
// fault mix and an hourly scrub.  Audited in its end-to-end runs.
Workload tenant_chaos(std::uint64_t seed, Size size, bool audit) {
  constexpr Seconds kDay = 86400.0;
  const Seconds horizon = size == Size::kFull ? 3.0 * kDay : 0.25 * kDay;
  Workload w;
  w.fleet = exp::paper_fleet();
  w.scheduler = exp::SchedulerKind::kCapacity;
  w.config = paper_config(seed);
  w.config.topology = net::TopologySpec::oversubscribed();

  tenancy::TrafficConfig mix =
      tenancy::presets::three_tenant_mix(horizon, /*rate_scale=*/2.0);
  w.config.tenancy = tenant_shares(mix);
  Rng rng(seed);
  w.jobs = tenancy::TrafficGenerator(std::move(mix)).generate(rng);

  // Crashes and fail-slow episodes follow a fixed schedule, part of the
  // workload like the fleet: the same 24 crashes (MTBF 2 d, MTTR 30 min) and
  // 24 half-speed episodes (MTBF 2 d, mean 1 h) for every seed.  Crash
  // times set the re-replication volume, which dominates this workload's
  // host cost, and slow episodes set the job tail; drawn per seed, they
  // moved the host cost by 5-15% and the tail by 25% between seeds.  The
  // seed still draws the traffic, block placement, noise, transient
  // failures and corruption.
  sim::FaultPlan& f = w.config.faults;
  Rng schedule(kFaultScheduleSeed);
  stratified_episodes(kPaperFleetSize, horizon, 2.0 * kDay, 1800.0, schedule,
                      [&f](std::size_t m, Seconds t, Seconds d) {
                        f.crash_for(m, t, d);
                      });
  stratified_episodes(kPaperFleetSize, horizon, 2.0 * kDay, 3600.0, schedule,
                      [&f](std::size_t m, Seconds t, Seconds d) {
                        f.slow_for(m, t, d, /*cpu_factor=*/0.5);
                      });
  f.fetch_failure_prob = 0.01;
  f.task_failure_prob = 0.005;
  f.corruption_mtbf = 1.0 * kDay;  // silent bit rot
  w.config.job_tracker.scrub_period = 3600.0;
  w.config.audit.enabled = audit;
  return w;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "eant-scale" || name == "shuffle-contention" ||
         name == "tenant-chaos";
}

bool audited_workload(const std::string& name) {
  return name == "tenant-chaos";
}

Workload make_workload(const std::string& name, std::uint64_t seed, Size size,
                       bool audit) {
  if (name == "eant-scale") return eant_scale(seed, size);
  if (name == "shuffle-contention") return shuffle_contention(seed, size);
  if (name == "tenant-chaos") return tenant_chaos(seed, size, audit);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
