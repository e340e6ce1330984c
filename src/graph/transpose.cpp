#include "src/graph/transpose.hpp"

#include <algorithm>
#include <vector>

#include "src/common/expect.hpp"

namespace phigraph::graph {

namespace {

/// Fills rows [lo, lo + span) from every out-edge of the graph, in source
/// order. `row` maps an edge target to its row; a target outside the slice
/// (or dropped as kInvalidVertex, which no slice reaches) is skipped.
template <typename RowOf>
void fill_slice(vid_t n, const eid_t* off, const vid_t* tgt, const float* w,
                vid_t lo, vid_t span, eid_t* cursor, vid_t* src, float* val,
                RowOf row) {
  for (vid_t u = 0; u < n; ++u) {
    for (eid_t e = off[u]; e < off[u + 1]; ++e) {
      const vid_t r = row(tgt[e]);
      if (r - lo >= span) continue;  // unsigned: also rejects r < lo
      const eid_t slot = cursor[r]++;
      src[slot] = u;
      if (val) val[slot] = w[e];
    }
  }
}

}  // namespace

Transpose parallel_transpose(const Csr& g,
                             std::span<const vid_t> in_degree,
                             sched::ThreadTeam& team,
                             std::span<const vid_t> row_of) {
  const vid_t n = g.num_vertices();
  const bool whole = row_of.empty();
  PG_CHECK_MSG(whole ? in_degree.size() == n : row_of.size() == n,
               whole ? "parallel_transpose needs one in-degree per vertex"
                     : "parallel_transpose needs one row entry per vertex");
  const vid_t rows = static_cast<vid_t>(in_degree.size());

  Transpose out;
  out.n_ = rows;
  out.offsets_ = std::make_unique_for_overwrite<eid_t[]>(
      static_cast<std::size_t>(rows) + 1);
  eid_t* offsets = out.offsets_.get();
  offsets[0] = 0;
  for (vid_t v = 0; v < rows; ++v) offsets[v + 1] = offsets[v] + in_degree[v];
  const eid_t m = offsets[rows];
  PG_CHECK_MSG(whole ? m == g.num_edges() : m <= g.num_edges(),
               "in-degrees do not sum to the edge count");
  out.m_ = m;
  out.sources_ = std::make_unique_for_overwrite<vid_t[]>(m);
  if (g.has_edge_values())
    out.values_ = std::make_unique_for_overwrite<float[]>(m);

  // Thread t owns rows [bound[t], bound[t + 1]): the first row whose
  // in-edges start at or past t/T of the edges opens slice t.
  const int nt = team.size();
  std::vector<vid_t> bound(static_cast<std::size_t>(nt) + 1, rows);
  bound[0] = 0;
  for (int t = 1; t < nt; ++t) {
    const eid_t goal = m / static_cast<eid_t>(nt) * static_cast<eid_t>(t);
    bound[static_cast<std::size_t>(t)] = static_cast<vid_t>(
        std::lower_bound(offsets, offsets + rows, goal) - offsets);
  }

  const eid_t* off = g.offsets().data();
  const vid_t* tgt = g.targets().data();
  const float* w = g.has_edge_values() ? g.edge_values().data() : nullptr;
  vid_t* src = out.sources_.get();
  float* val = out.values_.get();
  auto cursor = std::make_unique_for_overwrite<eid_t[]>(rows);
  team.run([&](int t) {
    const vid_t lo = bound[static_cast<std::size_t>(t)];
    const vid_t span = bound[static_cast<std::size_t>(t) + 1] - lo;
    if (span == 0) return;
    std::copy(offsets + lo, offsets + lo + span, cursor.get() + lo);
    if (whole)
      fill_slice(n, off, tgt, w, lo, span, cursor.get(), src, val,
                 [](vid_t v) { return v; });
    else
      fill_slice(n, off, tgt, w, lo, span, cursor.get(), src, val,
                 [map = row_of.data()](vid_t v) { return map[v]; });
  });
  return out;
}

}  // namespace phigraph::graph
