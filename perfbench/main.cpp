// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|reduced]
//   perfbench --selftest
//
// With --trace 0 it measures the end-to-end metrics: whole runs back to back
// until --seconds have passed, each preceded by batches of set-ups alone,
// with host-speed reference slices in between, reporting medians of host
// times scaled to the nominal host speed (reference.h).  With --trace 1 it measures the per-layer metrics: it
// alternates traced runs with untraced ones (and, for the audited workload,
// audited ones) and reports the layer counts, step-time shares and the
// overheads of tracing and auditing.  Every run of one invocation must produce the same
// simulated outputs; any mismatch, or a job-conservation failure, makes the
// result incorrect and the exit status 1.  The last line of stdout is the
// result as JSON.  perfbench/run.py builds this program and wraps it.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.h"
#include "reference.h"
#include "workloads.h"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

// One setup_s sample is the mean of this many set-ups alone: one set-up
// takes 0.5-2 ms, too short to time steadily, a batch 30-150 ms.
constexpr int kSetupBatch = 64;
// The setup_s samples taken before every measured run.  The host's speed
// for this allocation-heavy work shifts by up to a factor of two from one
// second to the next, so the samples are spread over the whole invocation
// rather than taken in one block.
constexpr int kSetupBatchesPerRun = 3;
// The least number of whole runs an invocation makes, whatever --seconds
// says: the determinism gate needs two to compare.
constexpr int kMinReps = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  Size size = Size::kFull;
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|reduced]\n"
               "       perfbench --selftest\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v, &used);
      } else if (flag == "--size") {
        if (v != "full" && v != "reduced") usage("bad --size " + v);
        a.size = v == "full" ? Size::kFull : Size::kReduced;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != v.size()) usage("malformed value " + v);
    } catch (const std::logic_error&) {
      usage("malformed value " + v);
    }
  }
  if (a.selftest) return a;
  if (!have_workload || !is_workload(a.workload)) {
    usage("unknown or missing --workload");
  }
  if (!(a.seconds > 0.0 && a.seconds <= 3600.0)) usage("bad --seconds");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double peak_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One reported metric: its samples over the invocation's runs.
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  double median() const { return quantile(samples, 0.5); }
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit,
           std::vector<double> samples) {
    metrics_.push_back({name, unit, std::move(samples)});
  }
  void add(const std::string& name, const std::string& unit, double value) {
    add(name, unit, std::vector<double>{value});
  }

  void print_table() const {
    std::printf("%-30s %16s %16s %16s %4s  %s\n", "metric", "median", "q1",
                "q3", "n", "unit");
    for (const Metric& m : metrics_) {
      std::printf("%-30s %16.6g %16.6g %16.6g %4zu  %s\n", m.name.c_str(),
                  m.median(), quantile(m.samples, 0.25),
                  quantile(m.samples, 0.75), m.samples.size(), m.unit.c_str());
    }
  }

  void print_json(bool correct, std::size_t attempted,
                  std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].median(), metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// The correctness gates shared by both passes.
class Gates {
 public:
  void check(const Rep& rep) {
    ++runs_;
    attempted_ += rep.sim.submitted;
    failed_ += rep.sim.submitted - rep.sim.completed;
    if (!rep.sim.conserved()) {
      fail("job conservation broken: completed + failed + dropped != "
           "submitted");
    }
    if (rep.sim.completed < 11) fail("fewer than 11 completed jobs");
    if (runs_ == 1) {
      first_sim_ = rep.sim;
      first_counts_ = rep.counts;
    } else {
      if (rep.sim.fingerprint != first_sim_.fingerprint ||
          rep.sim.events_executed != first_sim_.events_executed) {
        fail("simulated outputs differ between runs of one seed");
      }
      if (!(rep.counts == first_counts_)) {
        fail("layer counts differ between runs of one seed");
      }
    }
    if (rep.audited) {
      const std::size_t violations = rep.audit.total_violations();
      if (!have_audit_) {
        have_audit_ = true;
        audit_digest_ = rep.audit.digest;
        audit_violations_ = violations;
      } else if (rep.audit.digest != audit_digest_ ||
                 violations != audit_violations_) {
        fail("audit digest or violation count differs between runs");
      }
    }
  }

  void fail(const std::string& why) {
    if (ok_) std::printf("CHECK FAILED: %s\n", why.c_str());
    ok_ = false;
  }

  bool ok() const { return ok_; }
  std::size_t runs() const { return runs_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const SimOutputs& sim() const { return first_sim_; }

 private:
  bool ok_ = true;
  std::size_t runs_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  SimOutputs first_sim_;
  LayerCounts first_counts_;
  bool have_audit_ = false;
  std::uint64_t audit_digest_ = 0;
  std::size_t audit_violations_ = 0;
};

void print_audit(const Rep& rep) {
  if (!rep.audited) return;
  std::printf("audit: %llu records, digest %016llx, %zu violation(s)\n",
              static_cast<unsigned long long>(rep.audit.digest_records),
              static_cast<unsigned long long>(rep.audit.digest),
              rep.audit.total_violations());
  for (const auto& v : rep.audit.violations) {
    std::printf("audit violation: %s x%zu (first at t=%.1f s): %s\n",
                v.check.c_str(), v.count, v.first_time,
                v.first_context.c_str());
  }
}

void print_header(const Args& a, const Gates& gates) {
  const SimOutputs& s = gates.sim();
  std::printf("workload %s seed %llu: %zu runs, %zu jobs submitted per run\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              gates.runs(), s.submitted);
  std::printf("jobs: %zu completed, %zu failed, %zu dropped\n", s.completed,
              s.failed, s.dropped);
  std::printf("sim_job_tail_s is p%.2f: %zu completed jobs beyond it\n",
              s.job_tail.percentile, s.job_tail.beyond);
  std::printf("wasted energy share: %.9g\n", s.wasted_energy_frac);
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(s.fingerprint));
}

template <typename F>
std::vector<double> collect(const std::vector<Rep>& reps, F f) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const Rep& r : reps) out.push_back(f(r));
  return out;
}

int end_to_end(const Args& a) {
  const bool audit = audited_workload(a.workload);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(a.seconds);

  const auto setup_sample = [&] {
    return setup_batch(a.workload, a.seed, a.size, audit, kSetupBatch);
  };
  // A reference slice follows every set-up batch and every run.  Each run
  // and its set-up batches are stated at the nominal host speed (reference.h)
  // by the slices taken among them, so the scale follows the host's drift
  // from run to run.  No slice comes before the first run ends, so the peak
  // RSS read then is the program's own and not the reference slice's.
  std::vector<double> setup, setup_raw, wall, reference;
  double peak_rss = 0.0;
  Gates gates;
  std::vector<Rep> reps;
  while (reps.size() < kMinReps || Clock::now() < deadline) {
    std::vector<double> batches, slices;
    for (int i = 0; i < kSetupBatchesPerRun; ++i) {
      batches.push_back(setup_sample());
      if (!reps.empty()) slices.push_back(reference_slice());
    }
    reps.push_back(run_rep(a.workload, a.seed, a.size, audit, Mode::kPlain));
    gates.check(reps.back());
    if (reps.size() == 1) peak_rss = peak_rss_mib();
    slices.push_back(reference_slice());

    const double scale = kNominalReferenceS / mean(slices);
    for (double x : batches) setup.push_back(x * scale);
    wall.push_back(reps.back().execute_s * scale);
    setup_raw.insert(setup_raw.end(), batches.begin(), batches.end());
    reference.insert(reference.end(), slices.begin(), slices.end());
  }
  std::vector<double> events_per_s;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    events_per_s.push_back(
        static_cast<double>(reps[i].sim.events_executed) / wall[i]);
  }

  const SimOutputs& s = gates.sim();
  Report r;
  r.add("wall_s", "s", wall);
  r.add("events_per_s", "1/s", events_per_s);
  r.add("setup_s", "s", setup);
  r.add("peak_rss_mib", "MiB", peak_rss);
  r.add("sim_energy_kj", "kJ", s.energy_kj);
  r.add("sim_makespan_s", "s", s.makespan_s);
  r.add("sim_job_p50_s", "s", s.job_p50_s);
  r.add("sim_job_tail_s", "s", s.job_tail.value);
  r.add("sim_useful_energy_frac", "ratio", 1.0 - s.wasted_energy_frac);
  r.add("jobs_ok_frac", "ratio", s.jobs_ok_frac());

  print_header(a, gates);
  std::printf("host: reference slice median %.6g s (n %zu, nominal %g s); "
              "as measured, wall_s median %.6g s, setup_s median %.6g s\n",
              quantile(reference, 0.5), reference.size(), kNominalReferenceS,
              quantile(collect(reps, [](const Rep& x) { return x.execute_s; }),
                       0.5),
              quantile(setup_raw, 0.5));
  const LayerCounts& c = reps.front().counts;
  std::printf("counts: sim.events_executed %llu  mapreduce.heartbeats %llu  "
              "net.flows_completed %zu  net.flows_aborted %zu  "
              "net.flows_failed %zu\n",
              static_cast<unsigned long long>(s.events_executed),
              static_cast<unsigned long long>(c.heartbeats),
              c.flows_completed, c.flows_aborted, c.flows_failed);
  print_audit(reps.front());
  r.print_table();
  r.print_json(gates.ok(), gates.attempted(), gates.failed());
  return gates.ok() ? 0 : 1;
}

int per_layer(const Args& a) {
  const bool with_audit = audited_workload(a.workload);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(a.seconds);

  // Rounds of: untraced + unaudited, traced (never audited: the trace uses
  // the auditor's taps), and for the audited workload an audited untraced
  // run, whose time against the first gives the audit overhead.  The first
  // two swap places every round, so a drift in host speed does not bias
  // the tracing overhead.
  Gates gates;
  std::vector<Rep> plain, traced, audited;
  while (traced.size() < kMinReps || Clock::now() < deadline) {
    const bool traced_first = traced.size() % 2 == 1;
    if (traced_first) {
      traced.push_back(
          run_rep(a.workload, a.seed, a.size, false, Mode::kTraced));
      gates.check(traced.back());
    }
    plain.push_back(run_rep(a.workload, a.seed, a.size, false, Mode::kPlain));
    gates.check(plain.back());
    if (!traced_first) {
      traced.push_back(
          run_rep(a.workload, a.seed, a.size, false, Mode::kTraced));
      gates.check(traced.back());
    }
    if (with_audit) {
      audited.push_back(
          run_rep(a.workload, a.seed, a.size, true, Mode::kPlain));
      gates.check(audited.back());
    }
  }

  const auto exec = [](const Rep& x) { return x.execute_s; };
  const double plain_s = quantile(collect(plain, exec), 0.5);
  const auto share = [](const StepClass TraceStats::*cls) {
    return [cls](const Rep& x) {
      return (x.trace.*cls).total_s / x.execute_s;
    };
  };
  const auto us = [](const StepClass TraceStats::*cls, double q) {
    return [cls, q](const Rep& x) { return quantile((x.trace.*cls).us, q); };
  };

  const SimOutputs& s = gates.sim();
  const LayerCounts& c = traced.front().counts;
  const TraceStats& t = traced.front().trace;
  const auto n = [](auto v) { return static_cast<double>(v); };
  const double flow_steps = n(t.flow.us.size());
  Report r;
  r.add("sim.events_executed", "count", n(s.events_executed));
  r.add("sim.events_scheduled", "count", n(t.events_scheduled));
  r.add("sim.live_event_frac", "ratio",
        n(s.events_executed) / n(t.pending_at_start + t.events_scheduled));
  r.add("sim.step_us_p50", "us", collect(traced, us(&TraceStats::all, 0.5)));
  r.add("sim.step_us_p99", "us", collect(traced, us(&TraceStats::all, 0.99)));
  r.add("sim.pending_peak", "count", n(t.pending_peak));

  r.add("mapreduce.heartbeats", "count", n(c.heartbeats));
  r.add("mapreduce.select_calls_per_hb", "ratio",
        c.heartbeats == 0 ? 0.0 : n(c.select_job_calls) / n(c.heartbeats));
  r.add("mapreduce.heartbeat_share", "ratio",
        collect(traced, share(&TraceStats::heartbeat)));
  r.add("mapreduce.heartbeat_us_p50", "us",
        collect(traced, us(&TraceStats::heartbeat, 0.5)));
  r.add("mapreduce.heartbeat_us_p99", "us",
        collect(traced, us(&TraceStats::heartbeat, 0.99)));
  r.add("mapreduce.killed_attempts", "count", n(c.killed_attempts));
  r.add("mapreduce.failed_attempts", "count", n(c.failed_attempts));

  r.add("sched.select_job_calls", "count", n(c.select_job_calls));
  r.add("core.control_ticks", "count", n(c.control_ticks));
  r.add("core.control_tick_share", "ratio",
        collect(traced, share(&TraceStats::control_tick)));
  r.add("core.control_tick_us_p50", "us",
        collect(traced, us(&TraceStats::control_tick, 0.5)));

  r.add("net.flows_started", "count", n(t.flows_started));
  r.add("net.flows_completed", "count", n(c.flows_completed));
  r.add("net.flows_aborted", "count", n(c.flows_aborted));
  r.add("net.flows_failed", "count", n(c.flows_failed));
  r.add("net.flow_step_share", "ratio",
        collect(traced, share(&TraceStats::flow)));
  r.add("net.flow_step_us_p50", "us",
        collect(traced, us(&TraceStats::flow, 0.5)));
  r.add("net.flow_step_us_p99", "us",
        collect(traced, us(&TraceStats::flow, 0.99)));
  r.add("net.scheduled_per_flow_step", "ratio",
        flow_steps == 0.0 ? 0.0 : n(t.scheduled_in_flow_steps) / flow_steps);
  r.add("net.total_mb", "MB", c.net_total_mb);
  r.add("net.mean_flow_slowdown", "ratio", c.mean_flow_slowdown);
  r.add("net.peak_link_util", "ratio", c.peak_link_util);

  r.add("hdfs.node_local_frac", "ratio", c.node_local_frac);
  r.add("hdfs.rack_local_frac", "ratio", c.rack_local_frac);
  r.add("hdfs.rereplicated_blocks", "count", n(c.rereplicated_blocks));
  r.add("hdfs.rerep_step_share", "ratio",
        collect(traced, share(&TraceStats::rerep)));
  r.add("hdfs.corruptions_injected", "count", n(c.corruptions_injected));
  r.add("hdfs.corruptions_detected", "count", n(c.corruptions_detected));
  r.add("hdfs.corruptions_repaired", "count", n(c.corruptions_repaired));
  r.add("hdfs.scrubbed_mb", "MB", c.scrubbed_mb);

  r.add("cluster.machine_state_changes", "count", n(t.machine_state_changes));

  std::vector<Rep> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  all.insert(all.end(), audited.begin(), audited.end());
  r.add("setup.generate_s", "s",
        collect(all, [](const Rep& x) { return x.generate_s; }));
  r.add("setup.run_ctor_s", "s",
        collect(all, [](const Rep& x) { return x.run_ctor_s; }));
  r.add("setup.submit_s", "s",
        collect(all, [](const Rep& x) { return x.submit_s; }));
  r.add("exp.metrics_s", "s",
        collect(all, [](const Rep& x) { return x.metrics_s; }));

  const Rep* a_rep = audited.empty() ? nullptr : &audited.front();
  r.add("audit.records", "count",
        a_rep == nullptr ? 0.0 : n(a_rep->audit.digest_records));
  r.add("audit.violations", "count",
        a_rep == nullptr ? 0.0 : n(a_rep->audit.total_violations()));
  r.add("audit.overhead_frac", "ratio",
        a_rep == nullptr
            ? 0.0
            : quantile(collect(audited, exec), 0.5) / plain_s - 1.0);
  r.add("trace.overhead_frac", "ratio",
        quantile(collect(traced, exec), 0.5) / plain_s - 1.0);

  print_header(a, gates);
  if (a_rep != nullptr) print_audit(*a_rep);
  r.print_table();
  r.print_json(gates.ok(), gates.attempted(), gates.failed());
  return gates.ok() ? 0 : 1;
}

int selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  // sim_job_tail_s is the 11th-largest completion: 10 jobs lie beyond it.
  std::vector<double> times;
  for (int i = 30; i >= 1; --i) times.push_back(static_cast<double>(i));
  const Tail t30 = tail_completion(times);
  expect(t30.value == 20.0, "tail of 1..30 is 20, the 11th-largest");
  expect(t30.beyond == 10, "tail leaves 10 completions beyond it");
  expect(t30.percentile == 100.0 * 20.0 / 30.0, "tail percentile is 20/30");
  const Tail t11 = tail_completion({5, 1, 4, 2, 3, 11, 9, 8, 7, 6, 10});
  expect(t11.value == 1.0, "with exactly 11 completions the tail is the least");
  bool threw = false;
  try {
    tail_completion({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "tail of 10 completions is refused");

  expect(quantile({3, 1, 2}, 0.5) == 2.0, "median of 1,2,3 is 2");
  expect(quantile({1, 2, 3, 4}, 0.5) == 2.5, "median of 1..4 is 2.5");
  expect(quantile({}, 0.5) == 0.0, "quantile of nothing is 0");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.selftest) return selftest();
    return a.trace == 0 ? end_to_end(a) : per_layer(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
