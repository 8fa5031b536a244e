#include "clustering/group_graph.hpp"

#include <algorithm>
#include <array>

#include "util/assert.hpp"

namespace spbc::clustering {

namespace {

// Builds the CSR from (a, b, weight) triples (a != b, both orders or one —
// duplicates merge).
GroupGraph from_triples(int nunits,
                        std::vector<std::array<uint64_t, 3>>&& triples) {
  // Normalize to (min, max), sort, merge duplicates.
  for (auto& t : triples) {
    if (t[0] > t[1]) std::swap(t[0], t[1]);
    SPBC_ASSERT(t[0] != t[1] && t[1] < static_cast<uint64_t>(nunits));
  }
  std::sort(triples.begin(), triples.end(),
            [](const auto& x, const auto& y) {
              return x[0] != y[0] ? x[0] < y[0] : x[1] < y[1];
            });
  size_t out = 0;
  for (size_t i = 0; i < triples.size();) {
    auto merged = triples[i];
    size_t j = i + 1;
    for (; j < triples.size() && triples[j][0] == merged[0] &&
           triples[j][1] == merged[1];
         ++j)
      merged[2] += triples[j][2];
    triples[out++] = merged;
    i = j;
  }
  triples.resize(out);

  GroupGraph g;
  g.n = nunits;
  g.row_ptr.assign(static_cast<size_t>(nunits) + 1, 0);
  for (const auto& t : triples) {
    ++g.row_ptr[t[0] + 1];
    ++g.row_ptr[t[1] + 1];
  }
  for (int u = 0; u < nunits; ++u)
    g.row_ptr[static_cast<size_t>(u) + 1] += g.row_ptr[static_cast<size_t>(u)];
  g.adj.assign(g.row_ptr[static_cast<size_t>(nunits)], 0);
  g.w.assign(g.adj.size(), 0);
  std::vector<size_t> cursor(g.row_ptr.begin(), g.row_ptr.end() - 1);
  for (const auto& t : triples) {
    size_t ia = cursor[t[0]]++;
    g.adj[ia] = static_cast<int>(t[1]);
    g.w[ia] = t[2];
  }
  for (const auto& t : triples) {
    size_t ib = cursor[t[1]]++;
    g.adj[ib] = static_cast<int>(t[0]);
    g.w[ib] = t[2];
  }
  // Rows received their a-side fill (sorted) then their b-side fill (also
  // sorted); restore one sorted order per row. (Same two-sided CSR fill as
  // CommGraph::build, which carries both directed weights per entry and so
  // cannot share the row type.)
  std::vector<std::pair<int, uint64_t>> row;
  for (int u = 0; u < nunits; ++u) {
    const size_t lo = g.row_ptr[static_cast<size_t>(u)];
    const size_t hi = g.row_ptr[static_cast<size_t>(u) + 1];
    row.clear();
    row.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) row.emplace_back(g.adj[i], g.w[i]);
    std::sort(row.begin(), row.end());
    for (size_t i = lo; i < hi; ++i) {
      g.adj[i] = row[i - lo].first;
      g.w[i] = row[i - lo].second;
    }
  }
  return g;
}

}  // namespace

GroupGraph GroupGraph::from_ranks(const CommGraph& graph,
                                  const std::vector<int>& unit_of_rank,
                                  int nunits) {
  SPBC_ASSERT(static_cast<int>(unit_of_rank.size()) == graph.nranks());
  std::vector<std::array<uint64_t, 3>> triples;
  triples.reserve(graph.nedges());
  for (int v = 0; v < graph.nranks(); ++v) {
    const int uv = unit_of_rank[static_cast<size_t>(v)];
    for (const CommGraph::Edge* e = graph.neighbors_begin(v);
         e != graph.neighbors_end(v); ++e) {
      if (e->to < v) continue;  // one direction per pair
      const int uo = unit_of_rank[static_cast<size_t>(e->to)];
      if (uo == uv) continue;  // intra-unit traffic is never logged
      triples.push_back({static_cast<uint64_t>(uv), static_cast<uint64_t>(uo),
                         e->sym()});
    }
  }
  return from_triples(nunits, std::move(triples));
}

}  // namespace spbc::clustering
