// perf_smoke — the simulator-throughput baseline for the scale arc.
//
// Runs a homogeneous Terasort batch at four fleet sizes under E-Ant and
// Capacity, and under Fair on the oversubscribed 4-rack fabric at 64 and 256
// nodes (so the network model's cost is tracked too), and emits
// BENCH_perf_smoke.json: simulated events per wall-clock second, wall-clock
// seconds, peak RSS, and the scheduler-work attribution (time inside
// Scheduler::select_job, per processed heartbeat) against node and task
// count.  Future scale/speed PRs diff their numbers against this
// file's committed trajectory; the absolute values are machine-dependent,
// the shape (events/sec should stay roughly flat as the fleet grows, and
// select_job time per heartbeat should not blow up with job count) is not.
//
// It also times the thread-per-seed sweep driver (exp/sweep.h): an 8-seed
// audited sweep of a 256-node Terasort batch at 4 workers vs serial, emitted
// as seeds/min — the wall-clock win every multi-seed bench (chaos_campaign,
// continuous_traffic) inherits.  On a single-core runner the speedup is ~1;
// the field still tracks driver overhead.
//
// Each row runs kRowRepeats times and the sweep kSweepRepeats times; wall
// times are reported as the median and the minimum of those samples (a
// single millisecond-scale sample is mostly host noise).  Each row sample
// runs in a forked child, so its peak RSS is that row's own peak rather
// than the largest peak of every row measured before it; the first
// child's is kept.
//
// Usage: perf_smoke [out.json]   (default BENCH_perf_smoke.json)

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>  // lint-ok: wall-clock
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/catalog.h"
#include "exp/builders.h"
#include "exp/cli.h"
#include "exp/runner.h"
#include "exp/sweep.h"

using namespace eant;

namespace {

constexpr int kRowRepeats = 3;
constexpr int kSweepRepeats = 5;

const char* topology_name(bool oversubscribed) {
  return oversubscribed ? "oversubscribed" : "none";
}

/// Median of an odd number of samples.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Peak resident set size in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Row {
  exp::SchedulerKind scheduler = exp::SchedulerKind::kEAnt;
  bool oversubscribed = false;  ///< TopologySpec::oversubscribed(), else none
  std::size_t nodes = 0;
  std::size_t jobs = 0;
  std::size_t tasks = 0;
  std::uint64_t events = 0;
  Seconds sim_makespan = 0.0;
  double wall_seconds = 0.0;      ///< median over the repeats
  double wall_min_seconds = 0.0;  ///< minimum over the repeats
  double events_per_sec = 0.0;
  double peak_rss_mib = 0.0;
  std::uint64_t heartbeats = 0;
  std::uint64_t select_job_calls = 0;
  double select_job_wall_s = 0.0;
  double select_us_per_heartbeat = 0.0;
};

Row measure(exp::SchedulerKind kind, std::size_t nodes, bool oversubscribed) {
  // Work scales with the fleet: jobs proportional to nodes so every size
  // runs at comparable utilisation and the per-event cost is comparable.
  // The 4-rack oversubscribed fabric is heavily contended, so its rows run a
  // quarter of the jobs on a quarter of the input (256 nodes: ~0.6 s).
  const int jobs = static_cast<int>(oversubscribed ? nodes / 16 : nodes / 4);
  const double input_mb = oversubscribed ? 1000.0 : 4000.0;
  exp::RunConfig cfg;
  cfg.seed = 7;
  cfg.job_tracker.measure_scheduler_time = true;
  if (oversubscribed) cfg.topology = net::TopologySpec::oversubscribed();
  exp::Run run(exp::homogeneous(cluster::catalog::xeon_e5(), nodes), kind,
               cfg);
  run.submit(exp::job_batch(workload::AppKind::kTerasort, input_mb, 8, jobs));

  const auto t0 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
  run.execute();
  const auto t1 = std::chrono::steady_clock::now();  // lint-ok: wall-clock

  Row r;
  r.scheduler = kind;
  r.oversubscribed = oversubscribed;
  r.nodes = nodes;
  r.jobs = static_cast<std::size_t>(jobs);
  const exp::RunMetrics m = run.metrics();
  r.tasks = m.total_tasks;
  r.events = run.simulator().executed();
  r.sim_makespan = m.makespan;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds
                           : 0.0;
  r.peak_rss_mib = peak_rss_mib();
  const mr::JobTracker& jt = run.job_tracker();
  r.heartbeats = jt.heartbeats();
  r.select_job_calls = jt.select_job_calls();
  r.select_job_wall_s = jt.counters().select_job_wall_seconds;
  r.select_us_per_heartbeat =
      r.heartbeats > 0 ? r.select_job_wall_s * 1e6 /
                             static_cast<double>(r.heartbeats)
                       : 0.0;
  return r;
}

// A row crosses the pipe from the measuring child as raw bytes.
static_assert(std::is_trivially_copyable_v<Row>);

[[noreturn]] void die(const char* what) {
  std::perror(what);
  std::exit(1);
}

/// measure() in a forked child, which sends its row back over a pipe.  The
/// parent never runs a simulation, so each child starts from the same small
/// footprint and its ru_maxrss is the peak of this row alone.
Row measure_in_child(exp::SchedulerKind kind, std::size_t nodes,
                     bool oversubscribed) {
  int fds[2];
  if (pipe(fds) != 0) die("pipe");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) die("fork");
  if (pid == 0) {
    close(fds[0]);
    const Row r = measure(kind, nodes, oversubscribed);
    const char* p = reinterpret_cast<const char*>(&r);
    std::size_t left = sizeof r;
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(1);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  Row r;
  char* p = reinterpret_cast<char*>(&r);
  std::size_t got = 0;
  while (got < sizeof r) {
    const ssize_t n = read(fds[0], p + got, sizeof r - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || got != sizeof r) {
    std::fprintf(stderr, "perf_smoke: measuring child failed\n");
    std::exit(1);
  }
  return r;
}

/// kRowRepeats children of one row: the median-wall sample, with the
/// minimum wall beside it and the first child's peak RSS.
Row measure_row(exp::SchedulerKind kind, std::size_t nodes,
                bool oversubscribed) {
  std::vector<Row> samples;
  for (int i = 0; i < kRowRepeats; ++i)
    samples.push_back(measure_in_child(kind, nodes, oversubscribed));
  const double first_rss = samples.front().peak_rss_mib;
  std::sort(samples.begin(), samples.end(), [](const Row& a, const Row& b) {
    return a.wall_seconds < b.wall_seconds;
  });
  Row r = samples[samples.size() / 2];
  r.wall_min_seconds = samples.front().wall_seconds;
  r.peak_rss_mib = first_rss;
  return r;
}

struct SweepRow {
  std::size_t seeds = 0;
  unsigned threads = 0;
  double wall_parallel_s = 0.0;      ///< median over the repeats
  double wall_parallel_min_s = 0.0;  ///< minimum over the repeats
  double wall_serial_s = 0.0;        ///< median over the repeats
  double wall_serial_min_s = 0.0;    ///< minimum over the repeats
  double seeds_per_min = 0.0;  ///< at `threads` workers, median wall
  double speedup = 0.0;        ///< median serial wall / median parallel wall
};

SweepRow measure_sweep() {
  constexpr std::size_t kSeeds = 8;
  constexpr unsigned kThreads = 4;
  exp::RunConfig cfg;
  cfg.audit.enabled = true;  // digest on: the production sweep configuration
  // Sized so the serial sweep lasts over half a second on a 4-core host: a
  // sweep of millisecond runs measures thread start-up and host noise.
  constexpr std::size_t kNodes = 256;
  const auto jobs = exp::job_batch(workload::AppKind::kTerasort, 4000.0, 8,
                                   static_cast<int>(kNodes / 4));
  const auto fleet = exp::homogeneous(cluster::catalog::xeon_e5(), kNodes);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= kSeeds; ++s) seeds.push_back(s);

  exp::SweepConfig sweep;
  SweepRow r;
  r.seeds = kSeeds;
  r.threads = kThreads;

  const auto timed = [&](unsigned threads) {
    sweep.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
    exp::sweep_seeds(fleet, exp::SchedulerKind::kEAnt, cfg, jobs, seeds, sweep);
    const auto t1 = std::chrono::steady_clock::now();  // lint-ok: wall-clock
    return std::chrono::duration<double>(t1 - t0).count();
  };
  std::vector<double> parallel, serial;
  for (int i = 0; i < kSweepRepeats; ++i) {
    parallel.push_back(timed(kThreads));
    serial.push_back(timed(1));
  }
  r.wall_parallel_s = median(parallel);
  r.wall_parallel_min_s = *std::min_element(parallel.begin(), parallel.end());
  r.wall_serial_s = median(serial);
  r.wall_serial_min_s = *std::min_element(serial.begin(), serial.end());

  r.seeds_per_min = r.wall_parallel_s > 0.0
                        ? 60.0 * static_cast<double>(kSeeds) / r.wall_parallel_s
                        : 0.0;
  r.speedup =
      r.wall_parallel_s > 0.0 ? r.wall_serial_s / r.wall_parallel_s : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Cli cli(argc, argv, "perf_smoke [out.json]");
  const std::string out_path = cli.string_arg("out", "BENCH_perf_smoke.json");
  cli.done();

  std::vector<Row> rows;
  const auto add_row = [&rows](exp::SchedulerKind kind, std::size_t nodes,
                               bool oversubscribed) {
    rows.push_back(measure_row(kind, nodes, oversubscribed));
    const Row& r = rows.back();
    std::printf(
        "%-8s %-14s nodes=%4zu jobs=%3zu tasks=%6zu events=%9llu "
        "wall=%6.2fs (min %6.2fs) events/s=%9.0f rss=%6.1f MiB "
        "select/hb=%6.2fus\n",
        exp::scheduler_kind_name(r.scheduler).c_str(),
        topology_name(r.oversubscribed), r.nodes, r.jobs, r.tasks,
        static_cast<unsigned long long>(r.events), r.wall_seconds,
        r.wall_min_seconds, r.events_per_sec, r.peak_rss_mib,
        r.select_us_per_heartbeat);
  };
  for (const exp::SchedulerKind kind :
       {exp::SchedulerKind::kEAnt, exp::SchedulerKind::kCapacity}) {
    for (std::size_t nodes : {16, 64, 256, 1024}) add_row(kind, nodes, false);
  }
  // 1024 nodes would take ~7 s a sample on this fabric; not a smoke row.
  for (std::size_t nodes : {64, 256})
    add_row(exp::SchedulerKind::kFair, nodes, true);

  const SweepRow sweep = measure_sweep();
  std::printf(
      "sweep    seeds=%3zu threads=%u wall=%6.3fs (min %6.3fs) "
      "serial=%6.3fs (min %6.3fs) seeds/min=%6.1f speedup=%4.2fx\n",
      sweep.seeds, sweep.threads, sweep.wall_parallel_s,
      sweep.wall_parallel_min_s, sweep.wall_serial_s, sweep.wall_serial_min_s,
      sweep.seeds_per_min, sweep.speedup);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"perf_smoke\",\n  \"row_repeats\": %d, "
               "\"sweep_repeats\": %d,\n  \"rows\": [\n",
               kRowRepeats, kSweepRepeats);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"scheduler\": \"%s\", \"topology\": \"%s\", "
                 "\"nodes\": %zu, \"jobs\": %zu, "
                 "\"tasks\": %zu, "
                 "\"events\": %llu, \"sim_makespan_s\": %.3f, "
                 "\"wall_s\": %.3f, \"wall_min_s\": %.3f, "
                 "\"events_per_s\": %.0f, "
                 "\"peak_rss_mib\": %.1f, "
                 "\"heartbeats\": %llu, \"select_job_calls\": %llu, "
                 "\"select_job_wall_s\": %.4f, "
                 "\"select_us_per_heartbeat\": %.3f}%s\n",
                 exp::scheduler_kind_name(r.scheduler).c_str(),
                 topology_name(r.oversubscribed), r.nodes, r.jobs, r.tasks,
                 static_cast<unsigned long long>(r.events), r.sim_makespan,
                 r.wall_seconds, r.wall_min_seconds, r.events_per_sec,
                 r.peak_rss_mib,
                 static_cast<unsigned long long>(r.heartbeats),
                 static_cast<unsigned long long>(r.select_job_calls),
                 r.select_job_wall_s, r.select_us_per_heartbeat,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"sweep\": {\"seeds\": %zu, \"threads\": %u, "
               "\"wall_s\": %.3f, \"wall_min_s\": %.3f, "
               "\"serial_wall_s\": %.3f, \"serial_wall_min_s\": %.3f, "
               "\"seeds_per_min_4t\": %.2f, \"speedup\": %.2f}\n",
               sweep.seeds, sweep.threads, sweep.wall_parallel_s,
               sweep.wall_parallel_min_s, sweep.wall_serial_s,
               sweep.wall_serial_min_s, sweep.seeds_per_min, sweep.speedup);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
