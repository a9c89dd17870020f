// Unit tests for the HDFS block-placement model: replication, block sizing,
// locality queries and placement balance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "hdfs/namenode.h"

namespace eant::hdfs {
namespace {

TEST(NameNode, CreatesExpectedBlockCount) {
  NameNode nn(Rng(1), 8);
  const auto blocks = nn.create_file(256.0);  // 4 x 64 MB
  EXPECT_EQ(blocks.size(), 4u);
  for (BlockId b : blocks) EXPECT_DOUBLE_EQ(nn.block_size(b), 64.0);
}

TEST(NameNode, LastBlockMayBeShort) {
  NameNode nn(Rng(1), 8);
  const auto blocks = nn.create_file(100.0);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_DOUBLE_EQ(nn.block_size(blocks[0]), 64.0);
  EXPECT_DOUBLE_EQ(nn.block_size(blocks[1]), 36.0);
}

TEST(NameNode, TinyFileGetsOneBlock) {
  NameNode nn(Rng(1), 8);
  const auto blocks = nn.create_file(1.0);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_DOUBLE_EQ(nn.block_size(blocks[0]), 1.0);
}

TEST(NameNode, ReplicasAreDistinctMachines) {
  NameNode nn(Rng(2), 10, 3);
  const auto blocks = nn.create_file(64.0 * 50);
  for (BlockId b : blocks) {
    const auto& locs = nn.locations(b);
    EXPECT_EQ(locs.size(), 3u);
    const std::set<cluster::MachineId> unique(locs.begin(), locs.end());
    EXPECT_EQ(unique.size(), 3u);
    for (auto m : unique) EXPECT_LT(m, 10u);
  }
}

TEST(NameNode, ReplicationDegradesToClusterSize) {
  NameNode nn(Rng(3), 2, 3);
  EXPECT_EQ(nn.replication(), 2);
  const auto blocks = nn.create_file(64.0);
  EXPECT_EQ(nn.locations(blocks[0]).size(), 2u);
}

TEST(NameNode, IsLocalMatchesLocations) {
  NameNode nn(Rng(4), 6, 3);
  const auto blocks = nn.create_file(64.0);
  const auto& locs = nn.locations(blocks[0]);
  std::size_t local = 0;
  for (cluster::MachineId m = 0; m < 6; ++m) {
    if (nn.is_local(blocks[0], m)) ++local;
  }
  EXPECT_EQ(local, locs.size());
}

TEST(NameNode, PlacementIsTightlyBalanced) {
  NameNode nn(Rng(5), 8, 3);
  nn.create_file(64.0 * 4000);
  // 4000 blocks x 3 replicas over 8 nodes -> 1500 expected per node.  With
  // power-of-two-choices placement the node spread stays within a few
  // percent of the mean (uniform-random sampling drifted ~10x wider).
  const auto stats = nn.locality_stats();
  EXPECT_DOUBLE_EQ(stats.mean_per_node, 1500.0);
  EXPECT_LE(stats.node_spread(), 75u);  // 5% of the mean
  for (auto c : stats.blocks_per_node) {
    EXPECT_GT(c, 1425u);
    EXPECT_LT(c, 1575u);
  }
}

TEST(NameNode, LocalityStatsCountShortLastBlock) {
  NameNode nn(Rng(5), 4, 2);
  nn.create_file(100.0);  // one full block + one short (36 MB) block
  const auto stats = nn.locality_stats();
  std::size_t total = 0;
  for (auto c : stats.blocks_per_node) total += c;
  EXPECT_EQ(total, 4u);  // 2 blocks x 2 replicas, short block included
  EXPECT_DOUBLE_EQ(stats.mean_per_node, 1.0);
  EXPECT_EQ(stats.replicas_per_rack.size(), 1u);  // flat: everything rack 0
  EXPECT_EQ(stats.replicas_per_rack[0], 4u);
}

TEST(NameNode, RackAwarePlacementSpansExactlyTwoRacks) {
  // 8 nodes in 4 racks (round-robin: node n -> rack n % 4).  Hadoop's
  // default policy: replica 1 anywhere, replica 2 off-rack, replica 3 in
  // replica 2's rack — so each block's 3 replicas span exactly 2 racks.
  const std::vector<std::size_t> racks = {0, 1, 2, 3, 0, 1, 2, 3};
  NameNode nn(Rng(8), 8, 3, racks);
  EXPECT_EQ(nn.num_racks(), 4u);
  const auto blocks = nn.create_file(64.0 * 200);
  for (BlockId b : blocks) {
    const auto& locs = nn.locations(b);
    ASSERT_EQ(locs.size(), 3u);
    std::set<std::size_t> spanned;
    for (auto m : locs) spanned.insert(nn.rack_of(m));
    EXPECT_EQ(spanned.size(), 2u);
    // Replicas 2 and 3 share a rack that differs from replica 1's.
    EXPECT_NE(nn.rack_of(locs[0]), nn.rack_of(locs[1]));
    EXPECT_EQ(nn.rack_of(locs[1]), nn.rack_of(locs[2]));
  }
}

TEST(NameNode, RackAwarePlacementStaysBalanced) {
  const std::vector<std::size_t> racks = {0, 1, 2, 3, 0, 1, 2, 3};
  NameNode nn(Rng(9), 8, 3, racks);
  nn.create_file(64.0 * 2000);
  const auto stats = nn.locality_stats();
  // 2000 x 3 replicas over 8 nodes -> 750 per node; rack constraints narrow
  // the candidate pools, so allow a wider (but still tight) band than flat.
  EXPECT_DOUBLE_EQ(stats.mean_per_node, 750.0);
  EXPECT_LE(stats.node_spread(), 120u);
  ASSERT_EQ(stats.replicas_per_rack.size(), 4u);
  std::size_t rack_total = 0;
  for (auto c : stats.replicas_per_rack) rack_total += c;
  EXPECT_EQ(rack_total, 6000u);
}

TEST(NameNode, ThreeLevelLocalityMatchesRackAssignment) {
  const std::vector<std::size_t> racks = {0, 1, 0, 1};
  NameNode nn(Rng(10), 4, 2, racks);
  const auto blocks = nn.create_file(64.0);
  const BlockId b = blocks[0];
  for (cluster::MachineId m = 0; m < 4; ++m) {
    const Locality lv = nn.locality(b, m);
    if (nn.is_local(b, m)) {
      EXPECT_EQ(lv, Locality::kNodeLocal);
      continue;
    }
    bool rack_replica = false;
    for (auto r : nn.locations(b)) {
      if (nn.rack_of(r) == nn.rack_of(m)) rack_replica = true;
    }
    EXPECT_EQ(lv, rack_replica ? Locality::kRackLocal : Locality::kOffRack);
  }
}

TEST(NameNode, DeterministicForSameSeed) {
  NameNode a(Rng(6), 8), b(Rng(6), 8);
  const auto ba = a.create_file(64.0 * 20);
  const auto bb = b.create_file(64.0 * 20);
  ASSERT_EQ(ba.size(), bb.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(a.locations(ba[i]), b.locations(bb[i]));
  }
}

TEST(NameNode, RejectsBadInput) {
  EXPECT_THROW(NameNode(Rng(1), 0), PreconditionError);
  EXPECT_THROW(NameNode(Rng(1), 4, 0), PreconditionError);
  NameNode nn(Rng(1), 4);
  EXPECT_THROW(nn.create_file(0.0), PreconditionError);
  EXPECT_THROW(nn.create_file(64.0, 0.0), PreconditionError);
  EXPECT_THROW(nn.locations(999), PreconditionError);
  EXPECT_THROW(nn.block_size(999), PreconditionError);
}

TEST(NameNode, BlockIdsAreSequentialAcrossFiles) {
  NameNode nn(Rng(7), 4);
  const auto f1 = nn.create_file(64.0 * 2);
  const auto f2 = nn.create_file(64.0 * 3);
  EXPECT_EQ(f1, (std::vector<BlockId>{0, 1}));
  EXPECT_EQ(f2, (std::vector<BlockId>{2, 3, 4}));
  EXPECT_EQ(nn.num_blocks(), 5u);
}

// --- degraded mode -----------------------------------------------------------

// Drains the under-replication queue to completion, performing every copy
// instantly.  Returns the number of replicas created.
std::size_t drain_rereplication(NameNode& nn) {
  std::size_t copies = 0;
  while (auto work = nn.next_rereplication()) {
    nn.add_replica(work->block, work->target);
    ++copies;
  }
  return copies;
}

TEST(NameNodeDegraded, DatanodeDeathDropsReplicasAndQueuesBlocks) {
  NameNode nn(Rng(11), 8);
  const auto blocks = nn.create_file(64.0 * 50);
  const cluster::MachineId dead = 3;
  std::size_t hosted = nn.blocks_per_node()[dead];
  ASSERT_GT(hosted, 0u);
  nn.mark_datanode_dead(dead);
  EXPECT_FALSE(nn.datanode_alive(dead));
  EXPECT_TRUE(nn.mutated());
  EXPECT_EQ(nn.blocks_per_node()[dead], 0u);
  EXPECT_EQ(nn.under_replicated_count(), hosted);
  for (BlockId b : blocks) {
    const auto& locs = nn.locations(b);
    EXPECT_EQ(std::find(locs.begin(), locs.end(), dead), locs.end());
    if (locs.size() < kDefaultReplication) {
      EXPECT_TRUE(nn.queued_for_rereplication(b));
      EXPECT_TRUE(nn.rereplication_possible(b));
    }
  }
  // Idempotent: declaring the same node dead twice changes nothing.
  nn.mark_datanode_dead(dead);
  EXPECT_EQ(nn.under_replicated_count(), hosted);
}

TEST(NameNodeDegraded, RereplicationServesFewestLiveReplicasFirst) {
  NameNode nn(Rng(12), 8);
  nn.create_file(64.0 * 80);
  nn.mark_datanode_dead(1);
  nn.mark_datanode_dead(5);
  // Some blocks lost one replica, some lost two; none can be lost outright
  // with replication 3 and only two deaths.
  EXPECT_TRUE(nn.lost_blocks().empty());
  std::size_t last_live = 0;
  std::size_t served = 0;
  while (auto work = nn.next_rereplication()) {
    const std::size_t live = nn.live_replicas(work->block);
    EXPECT_GE(live, last_live)
        << "a healthier block was served before a more endangered one";
    // The source must hold the block; the target must not, and must be live.
    const auto& locs = nn.locations(work->block);
    EXPECT_NE(std::find(locs.begin(), locs.end(), work->source), locs.end());
    EXPECT_EQ(std::find(locs.begin(), locs.end(), work->target), locs.end());
    EXPECT_TRUE(nn.datanode_alive(work->target));
    last_live = live;
    nn.add_replica(work->block, work->target);
    ++served;
  }
  EXPECT_GT(served, 0u);
  EXPECT_EQ(nn.under_replicated_count(), 0u);
}

TEST(NameNodeDegraded, RereplicationRestoresRackSpread) {
  // 8 nodes in 2 racks.  Killing both replicas in one of a block's racks can
  // collapse the survivors into a single rack; the re-replication target
  // choice must restore the >= 2-rack spread.
  const std::vector<std::size_t> racks = {0, 0, 0, 0, 1, 1, 1, 1};
  NameNode nn(Rng(13), 8, 3, racks);
  const auto blocks = nn.create_file(64.0 * 120);
  nn.mark_datanode_dead(4);
  nn.mark_datanode_dead(5);
  drain_rereplication(nn);
  for (BlockId b : blocks) {
    const auto& locs = nn.locations(b);
    ASSERT_EQ(locs.size(), 3u);
    std::set<cluster::MachineId> nodes(locs.begin(), locs.end());
    EXPECT_EQ(nodes.size(), 3u) << "duplicate replica on one node";
    std::set<std::size_t> spanned;
    for (auto m : locs) spanned.insert(nn.rack_of(m));
    EXPECT_GE(spanned.size(), 2u) << "block " << b << " collapsed into one rack";
  }
}

TEST(NameNodeDegraded, RecoveryKeepsPlacementBalanced) {
  NameNode nn(Rng(14), 8);
  nn.create_file(64.0 * 400);
  nn.mark_datanode_dead(2);
  const std::size_t copies = drain_rereplication(nn);
  EXPECT_GT(copies, 0u);
  // 400 x 3 replicas over the 7 survivors; balanced target choice keeps the
  // spread a small fraction of the per-node mean (~171).
  const auto& counts = nn.blocks_per_node();
  std::size_t lo = nn.num_blocks(), hi = 0;
  for (cluster::MachineId n = 0; n < 8; ++n) {
    if (n == 2) continue;
    lo = std::min(lo, counts[n]);
    hi = std::max(hi, counts[n]);
  }
  EXPECT_LE(hi - lo, 60u) << "re-replication unbalanced the cluster";
}

TEST(NameNodeDegraded, LosingEveryReplicaRecordsPermanentLoss) {
  NameNode nn(Rng(15), 4, 3);
  const auto blocks = nn.create_file(64.0 * 10);
  // Kill three of four nodes: every block kept at most one replica, and any
  // block fully hosted on the dead trio is lost outright.
  nn.mark_datanode_dead(0);
  nn.mark_datanode_dead(1);
  nn.mark_datanode_dead(2);
  std::size_t lost = 0;
  for (BlockId b : blocks) {
    if (nn.block_lost(b)) {
      ++lost;
      EXPECT_EQ(nn.live_replicas(b), 0u);
      EXPECT_FALSE(nn.queued_for_rereplication(b));
      EXPECT_FALSE(nn.rereplication_possible(b));
      EXPECT_NE(std::find(nn.lost_blocks().begin(), nn.lost_blocks().end(), b),
                nn.lost_blocks().end());
    }
  }
  EXPECT_EQ(nn.lost_blocks().size(), lost);
  // Survivors sit on node 3 alone and have nowhere to copy to.
  EXPECT_EQ(nn.next_rereplication(), std::nullopt);
}

TEST(NameNodeDegraded, NewFilePlacementSkipsDeadNodes) {
  NameNode nn(Rng(16), 8);
  nn.mark_datanode_dead(6);
  const auto blocks = nn.create_file(64.0 * 60);
  for (BlockId b : blocks) {
    const auto& locs = nn.locations(b);
    EXPECT_EQ(std::find(locs.begin(), locs.end(), cluster::MachineId{6}),
              locs.end());
  }
  EXPECT_EQ(nn.blocks_per_node()[6], 0u);
  // Once the node rejoins it is eligible again, and as the emptiest node the
  // balanced placement immediately favours it.
  nn.mark_datanode_alive(6);
  nn.create_file(64.0 * 60);
  EXPECT_GT(nn.blocks_per_node()[6], 0u);
}

TEST(NameNodeDegraded, DoubleGrantToSameTargetLandsOnce) {
  // Copies in flight are not tracked: a granted block whose other holder dies
  // is re-queued as the most endangered block and granted again, possibly to
  // the same target.  The second copy must land as a no-op, not abort.
  std::size_t double_grants = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    NameNode nn(Rng(seed), 8);
    const BlockId blk = nn.create_file(64.0)[0];
    nn.mark_datanode_dead(nn.locations(blk).front());
    const auto first = nn.next_rereplication();
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->block, blk);
    ASSERT_EQ(nn.live_replicas(blk), 2u);
    const auto& locs = nn.locations(blk);
    const cluster::MachineId other =
        locs[0] == first->source ? locs[1] : locs[0];
    nn.mark_datanode_dead(other);
    ASSERT_TRUE(nn.queued_for_rereplication(blk));
    const auto second = nn.next_rereplication();
    ASSERT_TRUE(second.has_value());
    ASSERT_EQ(second->block, blk);
    if (second->target != first->target) continue;
    ++double_grants;

    EXPECT_TRUE(nn.add_replica(blk, first->target));
    EXPECT_EQ(nn.live_replicas(blk), 2u);
    EXPECT_FALSE(nn.add_replica(blk, second->target));
    EXPECT_EQ(nn.live_replicas(blk), 2u);
    EXPECT_EQ(nn.blocks_per_node()[first->target], 1u);
    // Still short after the no-op: queued once, under its current count.
    EXPECT_TRUE(nn.queued_for_rereplication(blk));
    EXPECT_EQ(nn.under_replicated_count(), 1u);
    drain_rereplication(nn);
    const auto& done = nn.locations(blk);
    EXPECT_EQ(done.size(), 3u);
    EXPECT_EQ(std::set<cluster::MachineId>(done.begin(), done.end()).size(),
              3u);
  }
  EXPECT_GT(double_grants, 0u);
}

// Brute-force reference for next_rereplication's pick: every queued block
// sorted by (live replicas, id), the first with a clean source and a live
// non-holder target.
std::optional<BlockId> reference_pick(const NameNode& nn) {
  std::vector<std::pair<std::size_t, BlockId>> queue;
  for (BlockId b = 0; b < nn.num_blocks(); ++b) {
    if (nn.queued_for_rereplication(b))
      queue.emplace_back(nn.live_replicas(b), b);
  }
  std::sort(queue.begin(), queue.end());
  for (const auto& [live, b] : queue) {
    if (!nn.clean_locations(b).empty() && nn.rereplication_possible(b))
      return b;
  }
  return std::nullopt;
}

// The keyed queue against the rules it must keep, after every step of a
// random mutation sequence: no stale keys, only short live blocks queued,
// every short live block not in flight queued, and the pick order of the
// brute-force reference.
TEST(NameNodeDegraded, KeyedQueueMatchesBruteForceUnderRandomMutation) {
  constexpr std::size_t kNodes = 8;
  std::size_t duplicate_landings = 0;  // copies landing on a holder
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<std::size_t> racks =
        seed % 2 == 0 ? std::vector<std::size_t>{0, 0, 0, 0, 1, 1, 1, 1}
                      : std::vector<std::size_t>{};
    NameNode nn(Rng(seed), kNodes, 3, racks);
    Rng drive(seed + 1000);
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          drive.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    std::vector<NameNode::ReplicationWork> in_flight;
    std::optional<NameNode::Snapshot> snap;
    nn.create_file(64.0 * 12);

    const auto alive_nodes = [&](bool alive) {
      std::vector<cluster::MachineId> out;
      for (cluster::MachineId n = 0; n < kNodes; ++n)
        if (nn.datanode_alive(n) == alive) out.push_back(n);
      return out;
    };
    const auto grant = [&] {
      const std::optional<BlockId> expected = reference_pick(nn);
      const auto work = nn.next_rereplication();
      ASSERT_EQ(work.has_value(), expected.has_value());
      if (!work) return;
      EXPECT_EQ(work->block, *expected);
      const auto clean = nn.clean_locations(work->block);
      EXPECT_NE(std::find(clean.begin(), clean.end(), work->source),
                clean.end());
      EXPECT_TRUE(nn.datanode_alive(work->target));
      EXPECT_FALSE(nn.is_local(work->block, work->target));
      in_flight.push_back(*work);
    };
    // `complete`: also require every short live block not in flight to be
    // queued (false between a restore and the rebuild that follows it).
    const auto check = [&](bool complete) {
      std::size_t queued = 0;
      for (BlockId b = 0; b < nn.num_blocks(); ++b) {
        const std::size_t live = nn.live_replicas(b);
        const bool is_short = live > 0 && live < kDefaultReplication;
        const bool flying =
            std::any_of(in_flight.begin(), in_flight.end(),
                        [&](const auto& w) { return w.block == b; });
        if (nn.queued_for_rereplication(b)) {
          ++queued;
          EXPECT_TRUE(is_short) << "queued block " << b << " is not short";
        } else if (complete) {
          EXPECT_FALSE(is_short && !flying)
              << "short block " << b << " is neither queued nor in flight";
        }
      }
      EXPECT_EQ(queued, nn.under_replicated_count()) << "stale queue key";
    };

    for (int step = 0; step < 300; ++step) {
      const std::size_t op = pick(8);
      SCOPED_TRACE(op);
      switch (op) {
        case 0:
          if (!alive_nodes(true).empty())
            nn.create_file(64.0 * static_cast<double>(1 + pick(3)));
          break;
        case 1: {
          const auto alive = alive_nodes(true);
          if (alive.size() > 3)
            nn.mark_datanode_dead(alive[pick(alive.size())]);
          break;
        }
        case 2: {
          const auto dead = alive_nodes(false);
          if (!dead.empty()) nn.mark_datanode_alive(dead[pick(dead.size())]);
          break;
        }
        case 3: {
          const BlockId b = pick(nn.num_blocks());
          const auto& locs = nn.locations(b);
          if (locs.empty()) break;
          const cluster::MachineId node = locs[pick(locs.size())];
          nn.corrupt_replica(b, node);
          if (drive.bernoulli(0.5)) nn.confirm_corrupt(b, node);
          break;
        }
        case 4:
          grant();
          break;
        case 5: {
          // Land or give back one copy in flight (its target may have died
          // meanwhile, or an earlier grant may already have landed there).
          if (in_flight.empty()) break;
          const std::size_t i = pick(in_flight.size());
          const NameNode::ReplicationWork w = in_flight[i];
          in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
          const bool target_held = nn.is_local(w.block, w.target);
          const bool target_alive = nn.datanode_alive(w.target);
          if (drive.bernoulli(0.8)) {
            if (target_alive && target_held) ++duplicate_landings;
            EXPECT_EQ(nn.add_replica(w.block, w.target),
                      target_alive && !target_held);
          } else {
            nn.requeue_rereplication(w.block);
          }
          break;
        }
        case 6: {
          // The double-grant set-up: a holder other than the source of a
          // copy in flight dies, and the block is granted again.
          if (in_flight.empty()) break;
          const NameNode::ReplicationWork w = in_flight[pick(in_flight.size())];
          const std::vector<cluster::MachineId> holders = nn.locations(w.block);
          for (cluster::MachineId n : holders) {
            if (n != w.source && alive_nodes(true).size() > 3) {
              nn.mark_datanode_dead(n);
              break;
            }
          }
          check(true);
          grant();
          break;
        }
        default:
          if (!snap || drive.bernoulli(0.5)) {
            snap = nn.snapshot();
            break;
          }
          nn.restore(*snap);
          std::erase_if(in_flight, [&](const auto& w) {
            return w.block >= nn.num_blocks();
          });
          check(false);
          nn.rebuild_under_replication();
          break;
      }
      check(true);
    }
  }
  EXPECT_GT(duplicate_landings, 0u);
}

}  // namespace
}  // namespace eant::hdfs
