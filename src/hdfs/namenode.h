// Minimal HDFS model: files are split into 64 MB blocks, each replicated on
// `replication` distinct datanodes.  Schedulers query block locations to make
// locality-aware assignments (the paper's Fig. 6 and Eq. 7's locality branch);
// map tasks whose split is not local pay a remote-read cost in the MapReduce
// engine (a fabric flow when a topology is configured, a scalar otherwise).
//
// When the NameNode knows a rack assignment it applies Hadoop's default
// BlockPlacementPolicy: first replica on a node in the writer's rack, second
// replica off-rack, third in the second replica's rack — one rack failure
// never loses a block, yet two thirds of replicas share a rack to keep write
// traffic off the core.  Locality queries then answer at three levels
// (node-local / rack-local / off-rack) instead of a boolean.

// Degraded mode: mark_datanode_dead() drops a dead node's replicas, records
// blocks whose last replica vanished as lost (data loss is never silent) and
// queues the rest for prioritized re-replication — fewest-live-replicas
// first, rack-aware re-placement; a granted block leaves the queue until the
// copy is confirmed or given back.  The JobTracker drains
// next_rereplication() into real fabric flows and confirms with
// add_replica() / requeue_rereplication().  Placement of *new* files
// skips dead datanodes.  Re-replication targets come from a dedicated forked
// RNG stream, so degraded-mode traffic never perturbs file-creation draws.
//
// Data integrity: every replica carries an implicit per-block checksum (real
// HDFS stores CRC32C per 512-byte chunk in a .meta sidecar).  The corrupt_
// map records *physical disk truth* — which stored replicas have silently
// rotted — which the NameNode metadata does not know until a checksummed
// read or the background scrubber *confirms* the damage.  confirm_corrupt()
// is that detection point: it drops the replica from the block map (feeding
// the normal under-replication queue, or the loss record when it was the
// last one) while retaining the physical marker, so a control-plane snapshot
// restore can never silently resurrect a rotten replica as clean.
// Re-replication refuses corrupt source replicas (the copy would just
// propagate bad bytes); a fresh copy placed by add_replica() clears the
// marker for its target.  Corruption never touches the placement or
// re-replication RNG streams.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/machine.h"
#include "common/locality.h"
#include "common/rng.h"
#include "common/units.h"

namespace eant::hdfs {

/// Identifies an HDFS block.
using BlockId = std::uint64_t;

/// Hadoop's default dfs.replication.
inline constexpr int kDefaultReplication = 3;

/// Placement-balance summary (see locality_stats()).
struct LocalityStats {
  std::vector<std::size_t> blocks_per_node;    ///< replicas hosted per node
  std::vector<std::size_t> replicas_per_rack;  ///< replicas hosted per rack
  std::size_t min_per_node = 0;
  std::size_t max_per_node = 0;
  double mean_per_node = 0.0;

  /// max - min replica count across nodes; the balance-drift metric.
  std::size_t node_spread() const { return max_per_node - min_per_node; }
};

/// Block placement and location service (the NameNode role).
class NameNode {
 public:
  /// `num_datanodes` is the number of machines storing blocks.  `racks`
  /// optionally maps each datanode to its rack id (empty = one flat rack);
  /// with more than one rack the Hadoop rack-aware policy above applies.
  /// Candidate nodes are chosen by power-of-two-choices on current load, so
  /// placement stays balanced instead of drifting like the old
  /// uniform-random sampling did.  The NameNode owns its own RNG stream, so
  /// file-creation order is the only source of placement variation.
  NameNode(Rng rng, std::size_t num_datanodes,
           int replication = kDefaultReplication,
           std::vector<std::size_t> racks = {});

  /// Allocates blocks for a file of the given size (last block may be
  /// short); returns the block ids in file order.
  std::vector<BlockId> create_file(Megabytes size,
                                   Megabytes block_size = kHdfsBlockMb);

  /// Datanodes holding a replica of the block.
  const std::vector<cluster::MachineId>& locations(BlockId id) const;

  /// True iff the machine holds a replica of the block.
  bool is_local(BlockId id, cluster::MachineId machine) const;

  /// Three-level locality of the block relative to the machine.
  Locality locality(BlockId id, cluster::MachineId machine) const;

  /// Size of the block in megabytes.
  Megabytes block_size(BlockId id) const;

  /// Number of blocks hosted per datanode (placement-balance metric).
  const std::vector<std::size_t>& blocks_per_node() const {
    return per_node_counts_;
  }

  /// Replica spread per rack and per node, for balance assertions and the
  /// topology benches.
  LocalityStats locality_stats() const;

  std::size_t num_blocks() const { return blocks_.size(); }
  int replication() const { return replication_; }
  std::size_t num_datanodes() const { return num_datanodes_; }
  std::size_t num_racks() const { return num_racks_; }
  std::size_t rack_of(cluster::MachineId machine) const;

  // --- degraded mode ---------------------------------------------------------

  /// One block-recovery work item: copy `block` from `source` (a surviving
  /// holder) to `target` (a live non-holder).
  struct ReplicationWork {
    BlockId block = 0;
    cluster::MachineId source = 0;
    cluster::MachineId target = 0;
  };

  /// Drops every replica the dead node held.  Blocks left with no replica
  /// are recorded in lost_blocks(); the rest join the under-replication
  /// queue.  Idempotent while the node stays dead.
  void mark_datanode_dead(cluster::MachineId machine);

  /// Returns a rejoined node to placement eligibility.  Its disk is treated
  /// as wiped (Hadoop re-registers blocks, but our crash model already
  /// reverted them), so it returns as an empty re-replication target.
  void mark_datanode_alive(cluster::MachineId machine);

  bool datanode_alive(cluster::MachineId machine) const;

  /// Live replicas of the block (0 for a lost block).
  std::size_t live_replicas(BlockId id) const { return locations(id).size(); }

  /// True iff every replica of the block died before it could be recovered.
  bool block_lost(BlockId id) const;

  /// Blocks whose last replica died, in detection order — the permanent
  /// data-loss record.
  const std::vector<BlockId>& lost_blocks() const { return lost_blocks_; }

  /// Blocks currently queued for re-replication.
  std::size_t under_replicated_count() const {
    return under_replicated_.size();
  }

  /// True iff the block sits in the re-replication queue right now.
  bool queued_for_rereplication(BlockId id) const {
    return under_replicated_.count({live_replicas(id), id}) > 0;
  }

  /// Highest-priority satisfiable work item (fewest live replicas first,
  /// block id as tie-break); rack-aware target choice restores the >= 2-rack
  /// spread when the surviving replicas collapsed into one rack.  The block
  /// leaves the queue — confirm with add_replica() on success or give it
  /// back with requeue_rereplication() on failure.  Empty when the queue is
  /// empty or no queued block has a live non-holder target right now.
  std::optional<ReplicationWork> next_rereplication();

  /// Registers a freshly copied replica on `node` and, if the block is still
  /// short, re-queues it for another round.  Returns false when nothing was
  /// registered: the target died while the copy ran, or it already holds the
  /// block (copies in flight are not tracked, so a block re-queued by another
  /// holder's death can be granted to the same target twice).  Either way the
  /// block is re-queued if it is still short.
  bool add_replica(BlockId id, cluster::MachineId node);

  /// Returns a block to the under-replication queue after a failed copy.
  void requeue_rereplication(BlockId id);

  /// True iff a live non-holder exists for the block (re-replication could
  /// make progress).
  bool rereplication_possible(BlockId id) const;

  /// True once any replica was ever dropped — the cheap gate for degraded
  /// code paths (stale-locality recomputation etc.).
  bool mutated() const { return mutated_; }

  // --- data integrity --------------------------------------------------------

  /// Silently rots the replica of `id` stored on `node` (physical damage;
  /// the NameNode metadata is *not* updated — detection happens at read or
  /// scrub time).  Returns true iff the strike marked a live, previously
  /// clean replica; strikes on non-holders or already-rotten replicas land
  /// on nothing and return false.
  bool corrupt_replica(BlockId id, cluster::MachineId node);

  /// Physical truth: is the replica of `id` on `node` rotten?
  bool replica_corrupt(BlockId id, cluster::MachineId node) const;

  /// True iff the block still has replicas and every one of them is rotten —
  /// a checksummed read cannot succeed anywhere.
  bool all_replicas_corrupt(BlockId id) const;

  /// Holders of `id` whose replica is clean, in placement order.
  std::vector<cluster::MachineId> clean_locations(BlockId id) const;

  /// Detection point: a checksummed read or scrub pass found the replica of
  /// `id` on `node` corrupt.  Drops it from the block map exactly like a
  /// dead-node replica drop (under-replication queue, or the loss record
  /// when it was the last replica) but *retains* the physical corruption
  /// marker, so a snapshot restore cannot resurrect the replica as clean.
  /// No-op if the node no longer holds the replica.
  void confirm_corrupt(BlockId id, cluster::MachineId node);

  /// Every block with a replica on `machine`, ascending block id — the
  /// deterministic strike surface for machine-level corruption events.
  std::vector<BlockId> blocks_on(cluster::MachineId machine) const;

  /// Number of (block, node) replicas currently marked physically corrupt
  /// and still present in the block map (latent, undetected damage).
  std::size_t latent_corrupt_replicas() const;

  // --- control-plane failover --------------------------------------------------

  /// Size and replica locations of one block.
  struct BlockInfo {
    Megabytes size;
    std::vector<cluster::MachineId> locations;
  };

  /// Re-replication queue entry: (live replica count, block id).  Set order
  /// is pick priority — fewest live replicas first, block id as tie-break.
  using QueueKey = std::pair<std::size_t, BlockId>;

  /// Full mutable state of the NameNode — the fsimage + edit-log analogue.
  /// The RNG streams and the immutable shape (datanode count, replication,
  /// racks) are not part of the snapshot: a restarted NameNode is the same
  /// process image resuming from its persisted namespace.  The corrupt_
  /// replica markers are not part of it either — they are physical disk
  /// truth, not NameNode metadata, and survive a failover untouched.
  struct Snapshot {
    std::vector<BlockInfo> blocks;
    std::vector<std::size_t> per_node_counts;
    std::vector<std::size_t> per_rack_counts;
    std::vector<bool> alive;
    std::set<QueueKey> under_replicated;
    std::vector<BlockId> lost_blocks;
    bool mutated = false;
  };

  /// Captures the block map, liveness view, under-replication queue and
  /// loss record (the periodic fsimage checkpoint).
  Snapshot snapshot() const;

  /// Restores a snapshot taken from this NameNode (shapes must match).
  void restore(const Snapshot& snap);

  /// Recomputes the under-replication queue from the block map and the
  /// current liveness view — the failover recovery step after replaying
  /// buffered datanode death/rejoin marks: every short-but-live block is
  /// re-queued, fully replicated blocks leave the queue, and the append-only
  /// loss record is left untouched (block locations themselves are ground
  /// truth, rebuilt from datanode block reports in real HDFS).
  void rebuild_under_replication();

 private:
  /// Least-loaded of two random candidates from `pool` (power of two
  /// choices) using `rng`; removes and returns it.  pool must be non-empty.
  cluster::MachineId take_balanced_with(Rng& rng,
                                        std::vector<cluster::MachineId>& pool);
  /// take_balanced_with on the file-creation stream.
  cluster::MachineId take_balanced(std::vector<cluster::MachineId>& pool);

  /// Every live datanode, ascending (the placement candidate pool).
  std::vector<cluster::MachineId> alive_pool() const;

  std::vector<cluster::MachineId> place_flat();
  std::vector<cluster::MachineId> place_rack_aware();

  /// Rack-aware target for re-replicating `id`, or nothing if no live
  /// non-holder exists.
  std::optional<cluster::MachineId> pick_rereplication_target(BlockId id);

  void drop_replica(BlockId id, cluster::MachineId node);

  /// Queues the block under its current key if it is short and not lost.
  void queue_if_short(BlockId id);

  Rng rng_;
  Rng rerep_rng_;  ///< dedicated stream for re-replication target draws
  std::size_t num_datanodes_;
  int replication_;
  std::vector<std::size_t> racks_;  ///< rack id per datanode
  std::size_t num_racks_ = 1;
  std::vector<BlockInfo> blocks_;
  std::vector<std::size_t> per_node_counts_;
  std::vector<std::size_t> per_rack_counts_;
  std::vector<bool> alive_;
  // Keyed by (live replicas, block id), so next_rereplication walks the set
  // in pick order.  Invariant: a queued block's key equals its current
  // locations.size(); every change to a queued block's locations erases the
  // old key first.
  std::set<QueueKey> under_replicated_;
  std::vector<BlockId> lost_blocks_;
  // Physical disk truth: silently rotten replicas, by block.  Ordered
  // containers keep every iteration deterministic.  Not part of Snapshot
  // (see above); cleared per target only when add_replica() lands a fresh
  // copy there.
  std::map<BlockId, std::set<cluster::MachineId>> corrupt_;
  bool mutated_ = false;
};

}  // namespace eant::hdfs
