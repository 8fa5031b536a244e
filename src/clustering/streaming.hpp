#pragma once
// Streaming (online) repartitioner: incremental cluster-map maintenance.
//
// The paper's pipeline (Section 6.1) partitions once, from a short profiling
// run, and pins the map for the whole execution. When the application's
// communication pattern drifts (adaptive meshes, phase changes), the pinned
// map's cut — and with it the volume of logged inter-cluster traffic — decays.
// This module closes the loop: it consumes the live TrafficMatrix-derived
// CommGraph and proposes the single best *node-granular* move (a whole
// colocation unit, preserving the Section 6.1 node-colocation constraint)
// that strictly reduces the logged volume under the current map.
//
// Deliberately not a re-run of the full partitioner: a full repartition can
// relabel everything, which would force a global checkpoint-group membership
// reshuffle. A move here is incremental — one unit per cadence tick,
// evaluated with CommGraph::cut_delta (O(degree) per rank of the candidate
// unit), never emptying its source cluster. The protocol layer
// (core/spbc.cpp) migrates that unit through a quiescence bridge and plans
// the next move against the post-flip map; determinism rules are in
// DESIGN.md §14.

#include <optional>
#include <vector>

#include "clustering/comm_graph.hpp"

namespace spbc::clustering {

/// One planned migration: a whole colocation unit (physical node) and its
/// resident ranks, from its current cluster to `to`.
struct NodeMove {
  int unit = -1;
  std::vector<int> ranks;
  int from = -1;
  int to = -1;
};

class StreamingRepartitioner {
 public:
  /// The strictly cut-reducing unit move with the largest gain under the
  /// current map, or nullopt when none exists. `unit_of_rank` is the
  /// PHYSICAL colocation unit of each rank (mpi::Machine::node_of — after a
  /// shrunk restart two logical nodes can share one unit and then migrate
  /// together). Requires every rank of a unit to share a cluster (the
  /// colocation invariant); a unit that is the last one of its cluster does
  /// not move. Deterministic for a given (graph, map, grouping): candidates
  /// are scanned in (unit, cluster) order and ties break toward the lowest
  /// ids.
  std::optional<NodeMove> plan(const CommGraph& graph,
                               const std::vector<int>& cluster_of,
                               const std::vector<int>& unit_of_rank,
                               int nclusters) const;
};

}  // namespace spbc::clustering
