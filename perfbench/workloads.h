// The benchmark's three workloads.  Each one loads a different layer of the
// simulator (see perfbench/README.md for why each was chosen):
//
//   eant-scale          E-Ant heartbeat scans on a 256-node fleet;
//   shuffle-contention  fabric reallocation under an oversubscribed topology;
//   tenant-chaos        fault-recovery churn (HDFS re-replication) under a
//                       multi-day, three-tenant, audited fault campaign.
//
// Inputs are a pure function of (workload, seed, size): the same seed always
// yields the same job list and run configuration.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/builders.h"
#include "exp/runner.h"
#include "workload/job_spec.h"

namespace perfbench {

/// kReduced shrinks every workload to a second or less, for the self-test.
enum class Size { kFull, kReduced };

struct Workload {
  eant::exp::ClusterBuilder fleet;
  eant::exp::SchedulerKind scheduler = eant::exp::SchedulerKind::kFair;
  eant::exp::RunConfig config;
  std::vector<eant::workload::JobSpec> jobs;
};

bool is_workload(const std::string& name);

/// Whether the workload's end-to-end runs carry the invariant auditor.
bool audited_workload(const std::string& name);

/// Generates the workload's inputs from `seed`.  `audit` attaches the
/// invariant auditor.
Workload make_workload(const std::string& name, std::uint64_t seed, Size size,
                       bool audit);

}  // namespace perfbench
