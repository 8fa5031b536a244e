#pragma once
// Heap-driven greedy agglomeration: merge node groups into k clusters,
// heaviest inter-cluster weight first, under a node-count size cap.
//
// Replaces the seed algorithm's all-pairs rescan per merge (O(g^3) over a
// dense matrix) with a lazy max-heap of candidate cluster pairs. Every
// cluster carries a version stamp that its merges bump; a popped candidate
// whose endpoint versions are stale is discarded (its replacement was pushed
// when the endpoint merged). Total work is O(E log E) for E unit-graph
// edges, because each merge pushes at most the merged cluster's current
// degree in fresh candidates.
//
// Greedy order matches the seed algorithm exactly: highest weight first,
// ties broken on the lexicographically smallest cluster-id pair; when no
// positive-weight pair fits under the cap, the scan-order-first zero-weight
// pair merges; when nothing fits at all, the cap relaxes by one node.

#include <vector>

#include "clustering/group_graph.hpp"

namespace spbc::clustering {

/// Merges the node groups of `g` into exactly `k` clusters (node-count cap
/// ceil(g.n / k), relaxed only when the remaining components cannot
/// otherwise reach k). Returns group -> cluster id in [0, k). Deterministic.
std::vector<int> agglomerate(const GroupGraph& g, int k);

}  // namespace spbc::clustering
