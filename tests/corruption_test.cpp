// Silent-data-corruption suite: FaultPlan/FaultInjector corruption
// mechanics, NameNode checksum bookkeeping (corrupt/confirm/clean-source
// re-replication/loud loss), digest neutrality of the disabled fault family,
// read-time failover, the background scrubber's detect->repair pipeline
// (including under brownout), shuffle and task-output verification, the
// corruption-conservation ledger, waste attribution, and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/catalog.h"
#include "common/rng.h"
#include "exp/builders.h"
#include "exp/runner.h"
#include "hdfs/namenode.h"
#include "mapreduce/job_tracker.h"
#include "net/topology.h"
#include "sched/capacity.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "tenancy/presets.h"
#include "tenancy/traffic.h"
#include "workload/job_spec.h"

namespace eant {
namespace {

using cluster::MachineId;

// --- FaultPlan ---------------------------------------------------------------

TEST(FaultPlanCorruption, HelpersBuildEventsAndEnableThePlan) {
  sim::FaultPlan plan;
  EXPECT_FALSE(plan.has_corruption_faults());
  plan.corrupt_replica_at(3, 17, 50.0).corrupt_machine_at(1, 80.0);
  EXPECT_TRUE(plan.has_corruption_faults());
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.corrupt_events.size(), 2u);
  EXPECT_EQ(plan.corrupt_events[0].machine, 3u);
  EXPECT_EQ(plan.corrupt_events[0].block, 17);
  EXPECT_DOUBLE_EQ(plan.corrupt_events[0].time, 50.0);
  EXPECT_EQ(plan.corrupt_events[1].block, -1);  // machine-level strike

  sim::FaultPlan mtbf_only;
  mtbf_only.corruption_mtbf = 500.0;
  EXPECT_TRUE(mtbf_only.has_corruption_faults());
  EXPECT_TRUE(mtbf_only.enabled());

  // The transport-level families enable the plan but need no replica
  // handler — they are drawn at the fetch / completion sites.
  sim::FaultPlan shuffle_only;
  shuffle_only.shuffle_corruption_prob = 0.01;
  EXPECT_FALSE(shuffle_only.has_corruption_faults());
  EXPECT_TRUE(shuffle_only.enabled());
  sim::FaultPlan output_only;
  output_only.task_output_corruption_prob = 0.01;
  EXPECT_TRUE(output_only.enabled());
}

// --- FaultInjector -----------------------------------------------------------

void run_until(sim::Simulator& sim, Seconds horizon) {
  while (sim.now() < horizon) {
    if (!sim.step()) break;
  }
}

TEST(FaultInjectorCorruption, ScriptedStrikesDeliverInOrderWithoutRng) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  plan.corrupt_machine_at(2, 20.0).corrupt_replica_at(0, 7, 10.0);
  sim::FaultInjector inj(sim, plan, Rng(11), 4);
  inj.set_handlers([](std::size_t) {}, [](std::size_t) {});
  std::vector<std::tuple<std::size_t, std::int64_t, double>> strikes;
  inj.set_corruption_handler(
      [&](std::size_t m, std::int64_t block, double pick) {
        strikes.emplace_back(m, block, pick);
      });
  inj.start();
  run_until(sim, 100.0);

  ASSERT_EQ(strikes.size(), 2u);
  // Time order, and scripted strikes pass pick = 0 (no RNG consumed).
  EXPECT_EQ(strikes[0], (std::tuple<std::size_t, std::int64_t, double>{
                            0u, 7, 0.0}));
  EXPECT_EQ(std::get<0>(strikes[1]), 2u);
  EXPECT_EQ(std::get<1>(strikes[1]), -1);
  EXPECT_DOUBLE_EQ(std::get<2>(strikes[1]), 0.0);
  EXPECT_EQ(inj.corruptions(), 2u);
  ASSERT_EQ(inj.corrupt_log().size(), 2u);
  EXPECT_DOUBLE_EQ(inj.corrupt_log()[0].time, 10.0);
  EXPECT_DOUBLE_EQ(inj.corrupt_log()[1].time, 20.0);
}

TEST(FaultInjectorCorruption, StochasticStrikesReproduciblePerSeed) {
  auto collect = [](std::uint64_t seed) {
    sim::Simulator sim;
    sim::FaultPlan plan;
    plan.corruption_mtbf = 40.0;
    sim::FaultInjector inj(sim, plan, Rng(seed), 4);
    inj.set_handlers([](std::size_t) {}, [](std::size_t) {});
    inj.set_corruption_handler(
        [](std::size_t, std::int64_t, double) {});
    inj.start();
    run_until(sim, 400.0);
    std::vector<std::tuple<Seconds, std::size_t>> log;
    for (const auto& t : inj.corrupt_log()) {
      log.emplace_back(t.time, t.machine);
    }
    return log;
  };
  const auto a = collect(5);
  const auto b = collect(5);
  const auto c = collect(6);
  EXPECT_GT(a.size(), 4u);  // ~10 expected strikes per machine
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// --- NameNode checksum bookkeeping -------------------------------------------

TEST(NameNodeCorruption, CorruptAndConfirmBookkeeping) {
  hdfs::NameNode nn(Rng(2), 6, 3);
  const auto blocks = nn.create_file(64.0);
  const hdfs::BlockId blk = blocks[0];
  const auto locs = nn.locations(blk);  // copy: confirm mutates the set
  ASSERT_EQ(locs.size(), 3u);

  // Only a live, still-clean replica can newly rot.
  EXPECT_TRUE(nn.corrupt_replica(blk, locs[0]));
  EXPECT_FALSE(nn.corrupt_replica(blk, locs[0]));  // already rotten
  EXPECT_TRUE(nn.replica_corrupt(blk, locs[0]));
  EXPECT_FALSE(nn.replica_corrupt(blk, locs[1]));
  EXPECT_EQ(nn.latent_corrupt_replicas(), 1u);
  EXPECT_FALSE(nn.all_replicas_corrupt(blk));

  const auto clean = nn.clean_locations(blk);
  EXPECT_EQ(clean.size(), 2u);
  EXPECT_EQ(std::count(clean.begin(), clean.end(), locs[0]), 0);

  // Detection drops the replica into the under-replication queue like a
  // dead-node drop, but keeps the physical marker.
  nn.confirm_corrupt(blk, locs[0]);
  EXPECT_FALSE(nn.is_local(blk, locs[0]));
  EXPECT_EQ(nn.live_replicas(blk), 2u);
  EXPECT_TRUE(nn.queued_for_rereplication(blk));
  EXPECT_TRUE(nn.mutated());
  EXPECT_FALSE(nn.block_lost(blk));
}

TEST(NameNodeCorruption, RereplicationRefusesCorruptSources) {
  hdfs::NameNode nn(Rng(3), 6, 3);
  const hdfs::BlockId blk = nn.create_file(64.0)[0];
  const auto locs = nn.locations(blk);
  ASSERT_EQ(locs.size(), 3u);

  // locs[0] latently corrupt, locs[1] confirmed (dropped), locs[2] clean:
  // the copy source must be the clean holder — a corrupt source would just
  // clone the damage.
  ASSERT_TRUE(nn.corrupt_replica(blk, locs[0]));
  ASSERT_TRUE(nn.corrupt_replica(blk, locs[1]));
  nn.confirm_corrupt(blk, locs[1]);

  const auto work = nn.next_rereplication();
  ASSERT_TRUE(work.has_value());
  EXPECT_EQ(work->block, blk);
  EXPECT_EQ(work->source, locs[2]);
  EXPECT_TRUE(nn.datanode_alive(work->target));
  EXPECT_FALSE(nn.is_local(blk, work->target));

  // The copy lands clean: the new replica is not corrupt.
  nn.add_replica(blk, work->target);
  EXPECT_FALSE(nn.replica_corrupt(blk, work->target));
  EXPECT_EQ(nn.live_replicas(blk), 3u);
}

TEST(NameNodeCorruption, AllReplicasCorruptEndsInLoudLoss) {
  hdfs::NameNode nn(Rng(4), 6, 3);
  const hdfs::BlockId blk = nn.create_file(64.0)[0];
  const auto locs = nn.locations(blk);
  for (MachineId n : locs) ASSERT_TRUE(nn.corrupt_replica(blk, n));
  EXPECT_TRUE(nn.all_replicas_corrupt(blk));

  for (MachineId n : locs) nn.confirm_corrupt(blk, n);
  EXPECT_TRUE(nn.block_lost(blk));
  ASSERT_EQ(nn.lost_blocks().size(), 1u);
  EXPECT_EQ(nn.lost_blocks()[0], blk);
  EXPECT_EQ(nn.live_replicas(blk), 0u);
  // A lost block cannot be repaired; the queue must not hold it forever.
  EXPECT_FALSE(nn.rereplication_possible(blk));
}

// --- run-level fixtures ------------------------------------------------------

std::vector<workload::JobSpec> small_workload() {
  auto jobs = exp::job_batch(workload::AppKind::kWordcount, 64.0 * 24, 2, 3);
  jobs[1].submit_time = 40.0;
  jobs[2].submit_time = 300.0;  // its splits are read late: strikes can land
  return jobs;                  // before the checksummed read
}

exp::RunConfig base_config(std::uint64_t seed) {
  exp::RunConfig cfg;
  cfg.seed = seed;
  cfg.audit.enabled = true;
  return cfg;
}

exp::RunMetrics run_jobs(const exp::RunConfig& cfg,
                         const std::vector<workload::JobSpec>& jobs) {
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(jobs);
  run.execute();
  return run.metrics();
}

// --- digest neutrality -------------------------------------------------------

TEST(CorruptionRun, DisabledFamilyIsDigestNeutral) {
  const auto jobs = small_workload();
  const exp::RunMetrics plain = run_jobs(base_config(3), jobs);

  // Populate the data-integrity knobs but leave every master switch off
  // (scrub_period = 0, corruption probabilities = 0): the run must schedule
  // no scrub events, install no hooks, consume no RNG, and reproduce the
  // plain digest bit for bit.
  exp::RunConfig cfg = base_config(3);
  cfg.job_tracker.scrub_mbps = 777.0;        // inert while scrub_period == 0
  cfg.job_tracker.verify_task_output = true; // inert while the prob is 0
  const exp::RunMetrics loaded = run_jobs(cfg, jobs);

  ASSERT_GT(plain.audit.digest_records, 0u);
  EXPECT_EQ(plain.determinism_digest, loaded.determinism_digest);
  EXPECT_EQ(plain.audit.digest_records, loaded.audit.digest_records);
  EXPECT_EQ(loaded.corruptions_injected, 0u);
  EXPECT_EQ(loaded.scrub_passes, 0u);
  EXPECT_EQ(loaded.task_output_corruptions, 0u);
}

// --- read-time detection -----------------------------------------------------

TEST(CorruptionRun, ChecksummedReadFailsOverPastCorruptReplica) {
  // One 96-map job: the first wave fills the slots, so at t=30 plenty of
  // splits are still unread.  Rot two of the three replicas of every
  // still-pending split — whichever machine the map later lands on, at most
  // one replica answers its checksum, so reads must fail over (and never
  // lose the block: one clean replica always remains).
  const auto jobs = std::vector<workload::JobSpec>{
      exp::single_job(workload::AppKind::kWordcount, 64.0 * 96, 2)};
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, base_config(7));
  run.submit(jobs);
  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  while (sim.now() < 30.0) ASSERT_TRUE(sim.step());

  const mr::JobState& js = jt.job(0);
  std::size_t struck = 0;
  for (mr::TaskIndex i = 0; i < js.num_maps(); ++i) {
    if (js.status(mr::TaskKind::kMap, i) != mr::TaskStatus::kPending) continue;
    const hdfs::BlockId blk = js.task(mr::TaskKind::kMap, i).block;
    const auto locs = run.namenode().locations(blk);
    ASSERT_EQ(locs.size(), 3u);
    jt.inject_corruption(locs[0], static_cast<std::int64_t>(blk), 0.0);
    jt.inject_corruption(locs[1], static_cast<std::int64_t>(blk), 0.0);
    ++struck;
  }
  ASSERT_GT(struck, 4u);  // the job must still have unread splits at t=30
  run.execute();
  const exp::RunMetrics m = run.metrics();

  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_EQ(m.corruptions_injected, 2 * struck);
  EXPECT_GT(m.corrupt_read_failovers, 0u);
  EXPECT_GT(m.corruptions_detected, 0u);
  // Read-time detection alone: whatever no read ever touched stays latent.
  EXPECT_EQ(m.corruptions_injected,
            m.corruptions_detected + m.corruptions_latent);
  EXPECT_EQ(m.corruptions_lost, 0u);
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs.size(), jobs.size());
}

// --- background scrubbing ----------------------------------------------------

TEST(CorruptionRun, ScrubberDetectsAndRepairsThroughRereplication) {
  const auto jobs = small_workload();
  // Probe run: placement depends only on the seed and file-creation order,
  // so the real run places the first job's blocks identically.
  std::vector<std::pair<MachineId, hdfs::BlockId>> strikes;
  {
    exp::Run probe(exp::paper_fleet(), exp::SchedulerKind::kEAnt,
                   base_config(9));
    probe.submit(jobs);
    probe.execute();
    for (hdfs::BlockId b = 0; b < 24; b += 3) {  // distinct first-job blocks
      strikes.emplace_back(probe.namenode().locations(b)[0], b);
    }
  }

  // Rot one replica of each chosen block just after creation; whether or
  // not a read ever touches them, the next full-coverage scrub pass must
  // find every strike and the re-replication queue must repair it from a
  // clean source.
  exp::RunConfig cfg = base_config(9);
  for (const auto& [machine, block] : strikes) {
    cfg.faults.corrupt_replica_at(machine, static_cast<std::int64_t>(block),
                                  5.0);
  }
  cfg.job_tracker.scrub_period = 20.0;
  cfg.job_tracker.scrub_mbps = 1.0e6;

  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
  run.submit(jobs);
  run.execute();
  const exp::RunMetrics m = run.metrics();

  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_GT(m.scrub_passes, 0u);
  EXPECT_GT(m.scrubbed_mb, 0.0);
  EXPECT_EQ(m.corruptions_injected, strikes.size());
  // Full-coverage scrubbing leaves nothing latent...
  EXPECT_EQ(m.corruptions_detected, m.corruptions_injected);
  EXPECT_EQ(m.corruptions_latent, 0u);
  // ...and every detection settles as a completed clean copy.
  EXPECT_EQ(m.corruptions_repaired, m.corruptions_detected);
  EXPECT_EQ(m.corruptions_lost, 0u);
  EXPECT_GT(m.rereplication_mb, 0.0);
  // Detection latencies are recorded per detection, and detection beats the
  // read path's "whenever a map happens to look".
  EXPECT_EQ(run.job_tracker().corruption_detection_latencies().size(),
            m.corruptions_detected);
  EXPECT_GT(m.mean_detection_latency, 0.0);
  EXPECT_EQ(m.jobs_failed, 0u);
}

TEST(CorruptionRun, ScrubberStillSettlesUnderBrownout) {
  // The admission-test overload mix: base rates x100 saturates the paper
  // fleet, so the detector escalates and the brownout reactions (including
  // the scrub/re-replication throttle) spend real time engaged.  Corruption
  // must still settle: detections end repaired, never silently dropped.
  auto tcfg = tenancy::presets::three_tenant_mix(1800.0, 100.0);
  sched::TenantShareConfig shares;
  for (const auto& t : tcfg.tenants) {
    shares.tenants.push_back(
        sched::TenantQueue{t.profile.tenant, t.profile.name, t.profile.weight});
  }
  const tenancy::TrafficGenerator gen(std::move(tcfg));
  Rng trng(13);
  const auto jobs = gen.generate(trng);

  exp::RunConfig cfg;
  cfg.seed = 13;
  cfg.audit.enabled = true;
  cfg.tenancy = shares;
  cfg.job_tracker.admission.enabled = true;
  for (const auto& q : shares.tenants) {
    cfg.job_tracker.admission.tenants.push_back(
        mr::AdmissionTenantPolicy{q.tenant, q.weight});
  }
  for (std::size_t m = 0; m < 16; ++m) cfg.faults.corrupt_machine_at(m, 60.0);
  cfg.job_tracker.scrub_period = 30.0;
  cfg.job_tracker.scrub_mbps = 1.0e6;

  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kCapacity, cfg);
  run.submit(jobs);
  run.execute();
  const exp::RunMetrics m = run.metrics();

  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_GT(m.time_saturated, 0.0);  // brownout was live
  EXPECT_GT(m.scrub_passes, 0u);
  EXPECT_GT(m.corruptions_injected, 0u);
  EXPECT_EQ(m.corruptions_detected,
            m.corruptions_repaired + m.corruptions_lost);
  EXPECT_EQ(m.corruptions_injected,
            m.corruptions_detected + m.corruptions_latent);
}

// --- loud loss ---------------------------------------------------------------

TEST(CorruptionRun, AllReplicasCorruptLosesBlockLoudly) {
  // 96 maps: at t=30 some splits are still unread.  Rot ALL replicas of one
  // of them — the eventual checksummed read fails over through every copy,
  // the block is lost, and the map fails LOUDLY (burning attempts until the
  // job fails) instead of silently consuming garbage.
  const auto jobs = std::vector<workload::JobSpec>{
      exp::single_job(workload::AppKind::kWordcount, 64.0 * 96, 2)};
  exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, base_config(21));
  run.submit(jobs);
  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  while (sim.now() < 30.0) ASSERT_TRUE(sim.step());

  const mr::JobState& js = jt.job(0);
  std::optional<hdfs::BlockId> victim;
  for (mr::TaskIndex i = 0; i < js.num_maps(); ++i) {
    if (js.status(mr::TaskKind::kMap, i) == mr::TaskStatus::kPending) {
      victim = js.task(mr::TaskKind::kMap, i).block;
      break;
    }
  }
  ASSERT_TRUE(victim.has_value());
  const auto locs = run.namenode().locations(*victim);  // copy: confirm mutates
  ASSERT_EQ(locs.size(), 3u);
  for (MachineId n : locs) {
    jt.inject_corruption(n, static_cast<std::int64_t>(*victim), 0.0);
  }
  run.execute();
  const exp::RunMetrics m = run.metrics();

  EXPECT_EQ(m.corruptions_injected, 3u);
  EXPECT_EQ(m.corruptions_detected, 3u);
  EXPECT_EQ(m.corruptions_lost, 3u);
  EXPECT_EQ(m.corruptions_repaired, 0u);
  EXPECT_EQ(m.corruptions_latent, 0u);
  EXPECT_GE(m.corrupt_read_failovers, 1u);
  EXPECT_TRUE(run.namenode().block_lost(*victim));
  // The job owning the lost split fails — loudly, not silently.
  EXPECT_EQ(m.jobs_failed, 1u);
}

// --- verified shuffle --------------------------------------------------------

TEST(CorruptionRun, ShuffleCorruptionRecoversWithoutLivelock) {
  exp::RunConfig cfg = base_config(17);
  // Shuffle verification rides the fabric fetch path; the legacy scalar
  // model has no flows, so the test needs a topology.
  cfg.topology = net::TopologySpec::flat();
  cfg.faults.shuffle_corruption_prob = 0.15;
  const auto jobs =
      exp::job_batch(workload::AppKind::kTerasort, 64.0 * 16, 4, 3);
  const exp::RunMetrics m = run_jobs(cfg, jobs);

  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_GT(m.shuffle_corruptions, 0u);
  // A corrupt payload is discarded whole and refetched through the
  // fetch-failure machinery — every job still lands.
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs.size(), jobs.size());
  // Payload damage is a transport fault, not a stored-replica one.
  EXPECT_EQ(m.corruptions_injected, 0u);
  EXPECT_EQ(m.corruptions_detected, 0u);
}

// --- end-to-end output verification ------------------------------------------

TEST(CorruptionRun, OutputVerificationRejectsAndReexecutes) {
  exp::RunConfig cfg = base_config(19);
  cfg.job_tracker.verify_task_output = true;
  cfg.faults.task_output_corruption_prob = 0.05;
  const auto jobs = small_workload();
  const exp::RunMetrics m = run_jobs(cfg, jobs);

  // kRevertDone compensation keeps the auditor's completion ledger clean
  // even though attempts report done and are then rejected.
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_GT(m.task_output_corruptions, 0u);
  EXPECT_EQ(m.jobs_failed, 0u);
  EXPECT_EQ(m.jobs.size(), jobs.size());
  // The redone work is charged to corruption, inside the waste hierarchy.
  EXPECT_GT(m.wasted_energy_corruption, 0.0);
  EXPECT_LE(m.wasted_energy_corruption, m.wasted_energy + 1e-9);
  EXPECT_LE(m.wasted_energy, m.total_energy);
}

// --- conservation & determinism ----------------------------------------------

TEST(CorruptionRun, ConservationHoldsWithEveryFamilyActive) {
  exp::RunConfig cfg = base_config(23);
  cfg.topology = net::TopologySpec::flat();
  cfg.faults.corruption_mtbf = 400.0;
  cfg.faults.shuffle_corruption_prob = 0.05;
  cfg.faults.task_output_corruption_prob = 0.02;
  cfg.job_tracker.verify_task_output = true;
  cfg.job_tracker.scrub_period = 40.0;
  cfg.job_tracker.scrub_mbps = 2000.0;
  const auto jobs = small_workload();
  const exp::RunMetrics m = run_jobs(cfg, jobs);

  // The auditor runs its own corruption-conservation check at finalize;
  // clean() means both ledger identities held inside the run.
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_GT(m.corruptions_injected, 0u);
  EXPECT_EQ(m.corruptions_injected,
            m.corruptions_detected + m.corruptions_latent);
  EXPECT_GE(m.corruptions_detected,
            m.corruptions_repaired + m.corruptions_lost);
  EXPECT_LE(m.wasted_energy_corruption, m.wasted_energy + 1e-9);
  EXPECT_LE(m.wasted_energy, m.total_energy);
  EXPECT_EQ(m.jobs_failed, 0u);
}

TEST(CorruptionRun, RereplicationOntoRejoinedNodeOverwritesLatentRot) {
  // Three machines, replication 3: every block has a replica on every node,
  // so a block that lost its copy with a dead node can only be re-replicated
  // back onto that node once it rejoins.  Rot machine 2's replica after the
  // job has read everything, then crash the machine past the expiry window:
  // the rotten replica drops with the node, and the copy that refills it on
  // rejoin overwrites the rot.  The strike stays latent, and the audit must
  // not mistake the clean marker for a silently cleared checksum.
  exp::RunConfig cfg = base_config(5);
  cfg.job_tracker.tracker_expiry_window = 30.0;
  const Seconds crash_time = 2000.0;
  const Seconds downtime = 200.0;
  cfg.faults.crash_for(2, crash_time, downtime);
  exp::Run run(exp::homogeneous(cluster::catalog::desktop(), 3),
               exp::SchedulerKind::kFifo, cfg);
  run.submit({exp::single_job(workload::AppKind::kWordcount, 64.0 * 6, 1)});
  run.execute();
  auto& sim = run.simulator();
  auto& jt = run.job_tracker();
  ASSERT_LT(sim.now(), crash_time);

  const hdfs::BlockId block = 0;
  ASSERT_TRUE(run.namenode().is_local(block, 2));
  jt.inject_corruption(2, static_cast<std::int64_t>(block), 0.0);
  ASSERT_TRUE(run.namenode().replica_corrupt(block, 2));

  // Heartbeats keep the simulator running after the workload drains: step
  // past the crash, the loss declaration, the rejoin and its re-replication.
  while (sim.now() < crash_time + downtime + 60.0 ||
         jt.rereplication_active() > 0) {
    ASSERT_TRUE(sim.step());
  }
  ASSERT_TRUE(run.namenode().is_local(block, 2));
  ASSERT_FALSE(run.namenode().replica_corrupt(block, 2));

  const exp::RunMetrics m = run.metrics();
  EXPECT_TRUE(m.audit.clean()) << m.audit.summary();
  EXPECT_GT(m.rereplicated_blocks, 0u);
  EXPECT_EQ(m.corruptions_injected, 1u);
  EXPECT_EQ(m.corruptions_detected, 0u);
  EXPECT_EQ(m.corruptions_latent, 1u);
}

TEST(CorruptionRun, DeterministicAcrossRepeatsSensitiveToSeed) {
  auto digest_of = [](std::uint64_t seed) {
    exp::RunConfig cfg;
    cfg.seed = seed;
    cfg.audit.enabled = true;
    cfg.faults.corruption_mtbf = 300.0;
    cfg.job_tracker.scrub_period = 25.0;
    cfg.job_tracker.scrub_mbps = 5000.0;
    exp::Run run(exp::paper_fleet(), exp::SchedulerKind::kEAnt, cfg);
    run.submit(small_workload());
    run.execute();
    const exp::RunMetrics m = run.metrics();
    return std::tuple<std::uint64_t, std::size_t, std::size_t>{
        m.determinism_digest, m.corruptions_injected, m.corruptions_detected};
  };
  const auto a = digest_of(31);
  const auto b = digest_of(31);
  const auto c = digest_of(32);
  EXPECT_EQ(a, b);
  EXPECT_NE(std::get<0>(a), std::get<0>(c));
  EXPECT_GT(std::get<1>(a), 0u);
}

}  // namespace
}  // namespace eant
