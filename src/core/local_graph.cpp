#include "src/core/local_graph.hpp"

#include <utility>

#include "src/common/expect.hpp"

namespace phigraph::core {

LocalGraph LocalGraph::whole(const graph::Csr& g) {
  LocalGraph lg;
  lg.global_num_vertices = g.num_vertices();
  lg.whole_ = &g;
  return lg;
}

std::vector<LocalGraph> LocalGraph::split_n(const graph::Csr& g,
                                            std::vector<int> owner_rank,
                                            int nranks) {
  const vid_t n = g.num_vertices();
  PG_CHECK_MSG(nranks >= 1, "split_n needs at least one rank");
  PG_CHECK_MSG(owner_rank.size() == n, "owner array must cover every vertex");
  for (const int r : owner_rank)
    PG_CHECK_MSG(r >= 0 && r < nranks, "owner rank outside [0, nranks)");

  auto local_of = std::vector<vid_t>(n, kInvalidVertex);
  std::vector<std::vector<vid_t>> members(static_cast<std::size_t>(nranks));
  for (vid_t v = 0; v < n; ++v) {
    auto& m = members[static_cast<std::size_t>(owner_rank[v])];
    local_of[v] = static_cast<vid_t>(m.size());
    m.push_back(v);
  }

  const auto& global_in = g.in_degrees();
  auto shared_owner =
      std::make_shared<const std::vector<int>>(std::move(owner_rank));
  auto shared_local_of =
      std::make_shared<const std::vector<vid_t>>(std::move(local_of));

  std::vector<LocalGraph> out(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    LocalGraph& lg = out[static_cast<std::size_t>(r)];
    lg.rank = r;
    lg.nranks = nranks;
    lg.global_num_vertices = n;
    lg.global_id = members[static_cast<std::size_t>(r)];
    lg.owner_rank = shared_owner;
    lg.local_of = shared_local_of;

    const auto& mem = members[static_cast<std::size_t>(r)];
    const vid_t n_local = static_cast<vid_t>(mem.size());
    std::vector<eid_t> offsets(static_cast<std::size_t>(n_local) + 1, 0);
    eid_t m_local = 0;
    for (vid_t u = 0; u < n_local; ++u) m_local += g.out_degree(mem[u]);
    std::vector<vid_t> targets;
    targets.reserve(m_local);
    std::vector<float> values;
    if (g.has_edge_values()) values.reserve(m_local);

    lg.part_in_degree_.resize(n_local);
    for (vid_t u = 0; u < n_local; ++u) {
      const vid_t gu = mem[u];
      lg.part_in_degree_[u] = global_in[gu];
      const auto nbrs = g.out_neighbors(gu);
      targets.insert(targets.end(), nbrs.begin(), nbrs.end());
      if (g.has_edge_values()) {
        const auto w = g.out_edge_values(gu);
        values.insert(values.end(), w.begin(), w.end());
      }
      offsets[u + 1] = targets.size();
    }
    lg.part_ = graph::Csr(std::move(offsets), std::move(targets),
                          std::move(values), /*target_space=*/n);
  }
  return out;
}

}  // namespace phigraph::core
