#include "hdfs/namenode.h"

#include <algorithm>
#include <numeric>

namespace eant::hdfs {

NameNode::NameNode(Rng rng, std::size_t num_datanodes, int replication,
                   std::vector<std::size_t> racks)
    : rng_(rng),
      rerep_rng_(rng.fork(0x5e)),
      num_datanodes_(num_datanodes),
      replication_(replication),
      racks_(std::move(racks)),
      per_node_counts_(num_datanodes, 0),
      alive_(num_datanodes, true) {
  EANT_CHECK(num_datanodes >= 1, "need at least one datanode");
  EANT_CHECK(replication >= 1, "replication factor must be >= 1");
  // Like real HDFS, degrade gracefully when the cluster is smaller than the
  // requested replication factor.
  replication_ = static_cast<int>(
      std::min<std::size_t>(num_datanodes, static_cast<std::size_t>(replication)));

  if (racks_.empty()) racks_.assign(num_datanodes_, 0);
  EANT_CHECK(racks_.size() == num_datanodes_,
             "rack assignment must cover every datanode");
  num_racks_ = 1 + *std::max_element(racks_.begin(), racks_.end());
  per_rack_counts_.assign(num_racks_, 0);
}

cluster::MachineId NameNode::take_balanced_with(
    Rng& rng, std::vector<cluster::MachineId>& pool) {
  EANT_CHECK(!pool.empty(), "no placement candidates left");
  const auto draw = [&] {
    return static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(pool.size()) - 1));
  };
  std::size_t best = draw();
  const std::size_t other = draw();
  // Power of two choices: the emptier of two random candidates.  This keeps
  // the per-node counts within a tight band where plain uniform sampling
  // drifts O(sqrt(n)) apart.
  if (per_node_counts_[pool[other]] < per_node_counts_[pool[best]])
    best = other;
  const cluster::MachineId node = pool[best];
  pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
  return node;
}

cluster::MachineId NameNode::take_balanced(
    std::vector<cluster::MachineId>& pool) {
  return take_balanced_with(rng_, pool);
}

std::vector<cluster::MachineId> NameNode::alive_pool() const {
  std::vector<cluster::MachineId> pool;
  pool.reserve(num_datanodes_);
  for (cluster::MachineId n = 0; n < num_datanodes_; ++n)
    if (alive_[n]) pool.push_back(n);
  return pool;
}

std::vector<cluster::MachineId> NameNode::place_flat() {
  std::vector<cluster::MachineId> pool = alive_pool();
  EANT_CHECK(!pool.empty(), "no live datanode to place a block on");
  std::vector<cluster::MachineId> nodes;
  const std::size_t want = std::min<std::size_t>(
      static_cast<std::size_t>(replication_), pool.size());
  nodes.reserve(want);
  for (std::size_t r = 0; r < want; ++r) nodes.push_back(take_balanced(pool));
  return nodes;
}

std::vector<cluster::MachineId> NameNode::place_rack_aware() {
  std::vector<cluster::MachineId> nodes;
  nodes.reserve(static_cast<std::size_t>(replication_));

  // Replica 1: anywhere (the "writer's node" — writers are uniformly spread
  // here, so a balanced pick over the whole fleet models it).
  std::vector<cluster::MachineId> pool = alive_pool();
  EANT_CHECK(!pool.empty(), "no live datanode to place a block on");
  nodes.push_back(take_balanced(pool));
  const std::size_t first_rack = racks_[nodes[0]];

  if (replication_ >= 2 && !pool.empty()) {
    // Replica 2: any node outside the first replica's rack.
    std::vector<cluster::MachineId> off_rack;
    for (cluster::MachineId n : pool)
      if (racks_[n] != first_rack) off_rack.push_back(n);
    if (!off_rack.empty()) {
      nodes.push_back(take_balanced(off_rack));
    } else {
      nodes.push_back(take_balanced(pool));  // degenerate: one populated rack
    }
  }

  if (replication_ >= 3 && nodes.size() >= 2) {
    // Replica 3: same rack as replica 2 if possible, else anywhere distinct.
    const std::size_t second_rack = racks_[nodes[1]];
    std::vector<cluster::MachineId> same_rack;
    std::vector<cluster::MachineId> rest;
    for (cluster::MachineId n : pool) {
      if (n == nodes[1]) continue;
      (racks_[n] == second_rack ? same_rack : rest).push_back(n);
    }
    if (!same_rack.empty()) {
      nodes.push_back(take_balanced(same_rack));
    } else if (!rest.empty()) {
      nodes.push_back(take_balanced(rest));
    }
  }

  // Replicas beyond 3: anywhere distinct (Hadoop's policy is "random").
  if (replication_ > 3) {
    std::vector<cluster::MachineId> rest;
    for (cluster::MachineId n : pool)
      if (std::find(nodes.begin(), nodes.end(), n) == nodes.end())
        rest.push_back(n);
    for (int r = 3; r < replication_ && !rest.empty(); ++r)
      nodes.push_back(take_balanced(rest));
  }
  return nodes;
}

std::vector<BlockId> NameNode::create_file(Megabytes size,
                                           Megabytes block_size) {
  EANT_CHECK(size > 0.0, "file size must be positive");
  EANT_CHECK(block_size > 0.0, "block size must be positive");
  std::vector<BlockId> ids;
  Megabytes remaining = size;
  while (remaining > 0.0) {
    const Megabytes this_block = std::min(remaining, block_size);
    remaining -= this_block;

    std::vector<cluster::MachineId> nodes =
        num_racks_ > 1 ? place_rack_aware() : place_flat();
    for (cluster::MachineId n : nodes) {
      ++per_node_counts_[n];
      ++per_rack_counts_[racks_[n]];
    }

    const BlockId id = blocks_.size();
    ids.push_back(id);
    blocks_.push_back(BlockInfo{this_block, std::move(nodes)});
    // Created short (dead datanodes shrank the candidate pool): queue for
    // re-replication once capacity returns.
    queue_if_short(id);
  }
  return ids;
}

// --- degraded mode -----------------------------------------------------------

void NameNode::mark_datanode_dead(cluster::MachineId machine) {
  EANT_CHECK(machine < num_datanodes_, "unknown datanode");
  if (!alive_[machine]) return;
  alive_[machine] = false;
  mutated_ = true;
  for (BlockId id = 0; id < blocks_.size(); ++id) {
    drop_replica(id, machine);
  }
}

void NameNode::drop_replica(BlockId id, cluster::MachineId node) {
  BlockInfo& b = blocks_[id];
  auto it = std::find(b.locations.begin(), b.locations.end(), node);
  if (it == b.locations.end()) return;
  under_replicated_.erase({b.locations.size(), id});
  b.locations.erase(it);
  --per_node_counts_[node];
  --per_rack_counts_[racks_[node]];
  if (b.locations.empty()) {
    // Last replica gone: permanent data loss, recorded, never re-queued.
    lost_blocks_.push_back(id);
  } else {
    // Re-keyed under the new count; a block that was queued was short, so
    // it stays queued.
    queue_if_short(id);
  }
}

void NameNode::queue_if_short(BlockId id) {
  const std::size_t live = blocks_[id].locations.size();
  if (live > 0 && live < static_cast<std::size_t>(replication_))
    under_replicated_.insert({live, id});
}

void NameNode::mark_datanode_alive(cluster::MachineId machine) {
  EANT_CHECK(machine < num_datanodes_, "unknown datanode");
  alive_[machine] = true;
}

bool NameNode::datanode_alive(cluster::MachineId machine) const {
  EANT_CHECK(machine < num_datanodes_, "unknown datanode");
  return alive_[machine];
}

bool NameNode::block_lost(BlockId id) const {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  return blocks_[id].locations.empty();
}

std::optional<cluster::MachineId> NameNode::pick_rereplication_target(
    BlockId id) {
  const BlockInfo& b = blocks_[id];
  std::vector<cluster::MachineId> candidates;
  for (cluster::MachineId n = 0; n < num_datanodes_; ++n) {
    if (!alive_[n]) continue;
    if (std::find(b.locations.begin(), b.locations.end(), n) !=
        b.locations.end())
      continue;
    candidates.push_back(n);
  }
  if (candidates.empty()) return std::nullopt;
  // Rack-aware re-placement: if the survivors collapsed into a single rack,
  // prefer an off-rack target so one rack failure can no longer lose the
  // block (restores the invariant of the original placement policy).
  if (num_racks_ > 1 && !b.locations.empty()) {
    const std::size_t rack0 = racks_[b.locations.front()];
    bool single_rack = true;
    for (cluster::MachineId n : b.locations) {
      if (racks_[n] != rack0) {
        single_rack = false;
        break;
      }
    }
    if (single_rack) {
      std::vector<cluster::MachineId> off_rack;
      for (cluster::MachineId n : candidates)
        if (racks_[n] != rack0) off_rack.push_back(n);
      if (!off_rack.empty()) candidates = std::move(off_rack);
    }
  }
  return take_balanced_with(rerep_rng_, candidates);
}

std::optional<NameNode::ReplicationWork> NameNode::next_rereplication() {
  // Priority: fewest live replicas first (a one-replica block is one failure
  // away from data loss), block id as the deterministic tie-break — exactly
  // the set's (live replicas, block id) key order.  Lost blocks are never
  // queued.
  for (auto qit = under_replicated_.begin(); qit != under_replicated_.end();
       ++qit) {
    const BlockId id = qit->second;
    // Never clone a rotten replica: the copy would checksum-fail at the
    // source (real HDFS verifies before streaming) and only propagate bad
    // bytes if it didn't.  No clean holder right now → the block stays
    // queued until a read or the scrubber confirms the rot away.
    const std::vector<cluster::MachineId> clean = clean_locations(id);
    if (clean.empty()) continue;
    const auto target = pick_rereplication_target(id);
    if (!target) continue;  // unsatisfiable right now; stays queued
    // Source: the clean holder nearest the target (rack-local preferred,
    // placement order as tie-break).
    cluster::MachineId source = clean.front();
    for (cluster::MachineId n : clean) {
      const bool n_rack_local = racks_[n] == racks_[*target];
      const bool s_rack_local = racks_[source] == racks_[*target];
      if (n_rack_local && !s_rack_local) source = n;
    }
    under_replicated_.erase(qit);
    return ReplicationWork{id, source, *target};
  }
  return std::nullopt;
}

bool NameNode::add_replica(BlockId id, cluster::MachineId node) {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  EANT_CHECK(node < num_datanodes_, "unknown datanode");
  BlockInfo& b = blocks_[id];
  // Target declared dead while the copy ran (the bytes are gone), or an
  // earlier grant of the same block already landed there: nothing new to
  // register.
  if (!alive_[node] ||
      std::find(b.locations.begin(), b.locations.end(), node) !=
          b.locations.end()) {
    requeue_rereplication(id);
    return false;
  }
  under_replicated_.erase({b.locations.size(), id});
  b.locations.push_back(node);
  ++per_node_counts_[node];
  ++per_rack_counts_[racks_[node]];
  // A freshly copied replica overwrites whatever rot the node's disk held
  // for this block — the new bytes checksum clean.
  if (auto it = corrupt_.find(id); it != corrupt_.end()) {
    it->second.erase(node);
    if (it->second.empty()) corrupt_.erase(it);
  }
  mutated_ = true;
  queue_if_short(id);  // still short: another round
  return true;
}

void NameNode::requeue_rereplication(BlockId id) {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  queue_if_short(id);  // a block lost meanwhile is never re-queued
}

bool NameNode::rereplication_possible(BlockId id) const {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  const BlockInfo& b = blocks_[id];
  if (b.locations.empty()) return false;
  for (cluster::MachineId n = 0; n < num_datanodes_; ++n) {
    if (!alive_[n]) continue;
    if (std::find(b.locations.begin(), b.locations.end(), n) ==
        b.locations.end())
      return true;
  }
  return false;
}

// --- data integrity ----------------------------------------------------------

bool NameNode::corrupt_replica(BlockId id, cluster::MachineId node) {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  EANT_CHECK(node < num_datanodes_, "unknown datanode");
  const BlockInfo& b = blocks_[id];
  if (std::find(b.locations.begin(), b.locations.end(), node) ==
      b.locations.end()) {
    return false;  // no replica there any more: the strike lands on nothing
  }
  return corrupt_[id].insert(node).second;  // false: already rotten
}

bool NameNode::replica_corrupt(BlockId id, cluster::MachineId node) const {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  const auto it = corrupt_.find(id);
  return it != corrupt_.end() && it->second.count(node) > 0;
}

bool NameNode::all_replicas_corrupt(BlockId id) const {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  const BlockInfo& b = blocks_[id];
  if (b.locations.empty()) return false;  // lost, not corrupt
  for (cluster::MachineId n : b.locations) {
    if (!replica_corrupt(id, n)) return false;
  }
  return true;
}

std::vector<cluster::MachineId> NameNode::clean_locations(BlockId id) const {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  std::vector<cluster::MachineId> clean;
  for (cluster::MachineId n : blocks_[id].locations) {
    if (!replica_corrupt(id, n)) clean.push_back(n);
  }
  return clean;
}

void NameNode::confirm_corrupt(BlockId id, cluster::MachineId node) {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  EANT_CHECK(node < num_datanodes_, "unknown datanode");
  EANT_CHECK(replica_corrupt(id, node),
             "confirming a replica that is not corrupt");
  // Metadata-side drop: the block map forgets the replica (feeding the
  // under-replication queue or the loss record), while the physical marker
  // in corrupt_ stays — see the header comment on snapshot restore.
  mutated_ = true;
  drop_replica(id, node);
}

std::vector<BlockId> NameNode::blocks_on(cluster::MachineId machine) const {
  EANT_CHECK(machine < num_datanodes_, "unknown datanode");
  std::vector<BlockId> out;
  for (BlockId id = 0; id < blocks_.size(); ++id) {
    if (is_local(id, machine)) out.push_back(id);
  }
  return out;
}

std::size_t NameNode::latent_corrupt_replicas() const {
  std::size_t n = 0;
  for (const auto& [id, nodes] : corrupt_) {
    for (cluster::MachineId node : nodes) {
      const auto& locs = blocks_[id].locations;
      if (std::find(locs.begin(), locs.end(), node) != locs.end()) ++n;
    }
  }
  return n;
}

const std::vector<cluster::MachineId>& NameNode::locations(BlockId id) const {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  return blocks_[id].locations;
}

bool NameNode::is_local(BlockId id, cluster::MachineId machine) const {
  const auto& locs = locations(id);
  return std::find(locs.begin(), locs.end(), machine) != locs.end();
}

Locality NameNode::locality(BlockId id, cluster::MachineId machine) const {
  EANT_CHECK(machine < num_datanodes_, "unknown datanode");
  const auto& locs = locations(id);
  Locality best = Locality::kOffRack;
  for (cluster::MachineId n : locs) {
    if (n == machine) return Locality::kNodeLocal;
    if (racks_[n] == racks_[machine]) best = Locality::kRackLocal;
  }
  return best;
}

Megabytes NameNode::block_size(BlockId id) const {
  EANT_CHECK(id < blocks_.size(), "unknown block id");
  return blocks_[id].size;
}

LocalityStats NameNode::locality_stats() const {
  LocalityStats stats;
  stats.blocks_per_node = per_node_counts_;
  stats.replicas_per_rack = per_rack_counts_;
  const auto [lo, hi] =
      std::minmax_element(per_node_counts_.begin(), per_node_counts_.end());
  stats.min_per_node = *lo;
  stats.max_per_node = *hi;
  const auto total =
      std::accumulate(per_node_counts_.begin(), per_node_counts_.end(),
                      std::size_t{0});
  stats.mean_per_node =
      static_cast<double>(total) / static_cast<double>(num_datanodes_);
  return stats;
}

NameNode::Snapshot NameNode::snapshot() const {
  return Snapshot{blocks_,       per_node_counts_, per_rack_counts_,
                  alive_,        under_replicated_, lost_blocks_,
                  mutated_};
}

void NameNode::restore(const Snapshot& snap) {
  EANT_CHECK(snap.per_node_counts.size() == num_datanodes_ &&
                 snap.alive.size() == num_datanodes_ &&
                 snap.per_rack_counts.size() == num_racks_,
             "snapshot shape does not match this NameNode");
  blocks_ = snap.blocks;
  per_node_counts_ = snap.per_node_counts;
  per_rack_counts_ = snap.per_rack_counts;
  alive_ = snap.alive;
  under_replicated_ = snap.under_replicated;
  lost_blocks_ = snap.lost_blocks;
  mutated_ = snap.mutated;
}

void NameNode::rebuild_under_replication() {
  under_replicated_.clear();
  for (BlockId id = 0; id < blocks_.size(); ++id) queue_if_short(id);
}

std::size_t NameNode::rack_of(cluster::MachineId machine) const {
  EANT_CHECK(machine < num_datanodes_, "unknown datanode");
  return racks_[machine];
}

}  // namespace eant::hdfs
