#include "src/core/transpose.hpp"

#include <algorithm>
#include <vector>

#include "src/common/expect.hpp"

namespace phigraph::core {

Transpose parallel_transpose(const graph::Csr& g,
                             std::span<const vid_t> in_degree,
                             sched::ThreadTeam& team) {
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  PG_CHECK_MSG(in_degree.size() == n,
               "parallel_transpose needs one in-degree per vertex");

  Transpose out;
  out.n_ = n;
  out.m_ = m;
  out.offsets_ =
      std::make_unique_for_overwrite<eid_t[]>(static_cast<std::size_t>(n) + 1);
  eid_t* offsets = out.offsets_.get();
  offsets[0] = 0;
  for (vid_t v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + in_degree[v];
  PG_CHECK_MSG(offsets[n] == m, "in-degrees do not sum to the edge count");
  out.sources_ = std::make_unique_for_overwrite<vid_t[]>(m);
  if (g.has_edge_values())
    out.values_ = std::make_unique_for_overwrite<float[]>(m);

  // Thread t owns destinations [bound[t], bound[t + 1]): the first vertex
  // whose in-edges start at or past t/T of the edges opens slice t.
  const int nt = team.size();
  std::vector<vid_t> bound(static_cast<std::size_t>(nt) + 1, n);
  bound[0] = 0;
  for (int t = 1; t < nt; ++t) {
    const eid_t goal = m / static_cast<eid_t>(nt) * static_cast<eid_t>(t);
    bound[static_cast<std::size_t>(t)] = static_cast<vid_t>(
        std::lower_bound(offsets, offsets + n, goal) - offsets);
  }

  const eid_t* off = g.offsets().data();
  const vid_t* tgt = g.targets().data();
  const float* w = g.has_edge_values() ? g.edge_values().data() : nullptr;
  vid_t* src = out.sources_.get();
  float* val = out.values_.get();
  auto cursor = std::make_unique_for_overwrite<eid_t[]>(n);
  team.run([&](int t) {
    const vid_t lo = bound[static_cast<std::size_t>(t)];
    const vid_t span = bound[static_cast<std::size_t>(t) + 1] - lo;
    if (span == 0) return;
    std::copy(offsets + lo, offsets + lo + span, cursor.get() + lo);
    for (vid_t u = 0; u < n; ++u) {
      for (eid_t e = off[u]; e < off[u + 1]; ++e) {
        const vid_t v = tgt[e];
        if (v - lo >= span) continue;  // unsigned: also rejects v < lo
        const eid_t slot = cursor[v]++;
        src[slot] = u;
        if (val) val[slot] = w[e];
      }
    }
  });
  return out;
}

}  // namespace phigraph::core
