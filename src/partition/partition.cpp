#include "src/partition/partition.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <fstream>
#include <numeric>
#include <sstream>
#include <system_error>
#include <utility>

#include "src/common/expect.hpp"
#include "src/common/rng.hpp"

namespace phigraph::partition {

namespace {

/// Symmetric weighted graph used by the multilevel partitioner. Vertex
/// weights track how many original vertices a coarse vertex represents;
/// edge weights how many original (undirected) edges a coarse edge bundles.
struct WorkGraph {
  std::vector<eid_t> offsets;
  std::vector<vid_t> targets;
  std::vector<eid_t> eweights;
  std::vector<eid_t> vweights;

  [[nodiscard]] vid_t n() const noexcept {
    return static_cast<vid_t>(vweights.size());
  }
};

/// Build the symmetrized work graph from the input CSR (self-loops dropped,
/// parallel/bidirectional edges merged with accumulated weight).
WorkGraph symmetrize(const graph::Csr& g) {
  const vid_t n = g.num_vertices();
  std::vector<std::pair<vid_t, vid_t>> edges;
  edges.reserve(2 * g.num_edges());
  for (vid_t u = 0; u < n; ++u)
    for (vid_t v : g.out_neighbors(u))
      if (u != v) {
        edges.emplace_back(u, v);
        edges.emplace_back(v, u);
      }
  std::sort(edges.begin(), edges.end());

  WorkGraph wg;
  wg.vweights.assign(n, 1);
  wg.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  wg.targets.reserve(edges.size());
  wg.eweights.reserve(edges.size());
  std::size_t i = 0;
  for (vid_t u = 0; u < n; ++u) {
    while (i < edges.size() && edges[i].first == u) {
      const vid_t v = edges[i].second;
      eid_t w = 0;
      while (i < edges.size() && edges[i].first == u && edges[i].second == v) {
        ++w;
        ++i;
      }
      wg.targets.push_back(v);
      wg.eweights.push_back(w);
    }
    wg.offsets[u + 1] = wg.targets.size();
  }
  return wg;
}

/// Heavy-edge matching: visit vertices in random order, match each unmatched
/// vertex with its heaviest unmatched neighbor. Returns match[] (match[v] ==
/// v for unmatched) and the number of coarse vertices.
std::vector<vid_t> heavy_edge_matching(const WorkGraph& wg, Rng& rng,
                                       vid_t& coarse_n) {
  const vid_t n = wg.n();
  std::vector<vid_t> order(n);
  std::iota(order.begin(), order.end(), vid_t{0});
  for (vid_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  std::vector<vid_t> match(n, kInvalidVertex);
  coarse_n = 0;
  for (vid_t u : order) {
    if (match[u] != kInvalidVertex) continue;
    vid_t best = u;
    eid_t best_w = 0;
    for (eid_t e = wg.offsets[u]; e < wg.offsets[u + 1]; ++e) {
      const vid_t v = wg.targets[e];
      if (match[v] != kInvalidVertex || v == u) continue;
      if (wg.eweights[e] > best_w) {
        best_w = wg.eweights[e];
        best = v;
      }
    }
    match[u] = best;
    match[best] = u;
    ++coarse_n;
  }
  return match;
}

struct CoarseLevel {
  WorkGraph graph;
  std::vector<vid_t> coarse_of;  // fine vertex -> coarse vertex
};

CoarseLevel contract(const WorkGraph& wg, const std::vector<vid_t>& match,
                     vid_t coarse_n) {
  const vid_t n = wg.n();
  CoarseLevel lvl;
  lvl.coarse_of.assign(n, kInvalidVertex);
  vid_t next = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (lvl.coarse_of[v] != kInvalidVertex) continue;
    lvl.coarse_of[v] = next;
    const vid_t m = match[v];
    if (m != v) lvl.coarse_of[m] = next;
    ++next;
  }
  PG_CHECK(next == coarse_n);

  // Accumulate coarse edges via sort-merge of remapped endpoints.
  std::vector<std::pair<std::pair<vid_t, vid_t>, eid_t>> ce;
  ce.reserve(wg.targets.size());
  lvl.graph.vweights.assign(coarse_n, 0);
  for (vid_t u = 0; u < n; ++u) {
    lvl.graph.vweights[lvl.coarse_of[u]] += wg.vweights[u];
    for (eid_t e = wg.offsets[u]; e < wg.offsets[u + 1]; ++e) {
      const vid_t cu = lvl.coarse_of[u];
      const vid_t cv = lvl.coarse_of[wg.targets[e]];
      if (cu != cv) ce.push_back({{cu, cv}, wg.eweights[e]});
    }
  }
  std::sort(ce.begin(), ce.end());
  lvl.graph.offsets.assign(static_cast<std::size_t>(coarse_n) + 1, 0);
  std::size_t i = 0;
  for (vid_t u = 0; u < coarse_n; ++u) {
    while (i < ce.size() && ce[i].first.first == u) {
      const vid_t v = ce[i].first.second;
      eid_t w = 0;
      while (i < ce.size() && ce[i].first.first == u && ce[i].first.second == v) {
        w += ce[i].second;
        ++i;
      }
      lvl.graph.targets.push_back(v);
      lvl.graph.eweights.push_back(w);
    }
    lvl.graph.offsets[u + 1] = lvl.graph.targets.size();
  }
  return lvl;
}

/// Greedy BFS growing on the coarsest graph: grow blocks up to the average
/// vertex weight from random seeds; leftovers join their heaviest neighbor
/// block (or the lightest block if isolated).
std::vector<vid_t> initial_blocks(const WorkGraph& wg, int num_blocks, Rng& rng) {
  const vid_t n = wg.n();
  eid_t total_w = 0;
  for (auto w : wg.vweights) total_w += w;
  const double target = static_cast<double>(total_w) / num_blocks;

  std::vector<vid_t> block(n, kInvalidVertex);
  std::vector<eid_t> bw(static_cast<std::size_t>(num_blocks), 0);
  std::vector<vid_t> frontier;

  vid_t b = 0;
  vid_t scan = 0;
  std::vector<vid_t> order(n);
  std::iota(order.begin(), order.end(), vid_t{0});
  for (vid_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  while (b < static_cast<vid_t>(num_blocks) && scan < n) {
    // Seed a new block with the next unassigned vertex.
    while (scan < n && block[order[scan]] != kInvalidVertex) ++scan;
    if (scan >= n) break;
    frontier.clear();
    frontier.push_back(order[scan]);
    block[order[scan]] = b;
    bw[b] += wg.vweights[order[scan]];
    for (std::size_t f = 0; f < frontier.size() &&
                            static_cast<double>(bw[b]) < target;
         ++f) {
      const vid_t u = frontier[f];
      for (eid_t e = wg.offsets[u]; e < wg.offsets[u + 1]; ++e) {
        const vid_t v = wg.targets[e];
        if (block[v] != kInvalidVertex) continue;
        block[v] = b;
        bw[b] += wg.vweights[v];
        frontier.push_back(v);
        if (static_cast<double>(bw[b]) >= target) break;
      }
    }
    ++b;
  }

  // Assign any leftover vertex to its most-connected block, else lightest.
  for (vid_t v = 0; v < n; ++v) {
    if (block[v] != kInvalidVertex) continue;
    std::vector<eid_t> conn(static_cast<std::size_t>(num_blocks), 0);
    vid_t best = kInvalidVertex;
    eid_t best_w = 0;
    for (eid_t e = wg.offsets[v]; e < wg.offsets[v + 1]; ++e) {
      const vid_t u = wg.targets[e];
      if (block[u] == kInvalidVertex) continue;
      conn[block[u]] += wg.eweights[e];
      if (conn[block[u]] > best_w) {
        best_w = conn[block[u]];
        best = block[u];
      }
    }
    if (best == kInvalidVertex) {
      best = static_cast<vid_t>(
          std::min_element(bw.begin(), bw.end()) - bw.begin());
    }
    block[v] = best;
    bw[best] += wg.vweights[v];
  }
  return block;
}

/// One boundary-refinement sweep (greedy KL/FM flavor): move a vertex to the
/// neighboring block with the largest positive cut gain if the balance
/// tolerance allows. Returns the number of moves.
std::size_t refine_pass(const WorkGraph& wg, std::vector<vid_t>& block,
                        std::vector<eid_t>& bw, int num_blocks,
                        double max_bw) {
  const vid_t n = wg.n();
  std::size_t moves = 0;
  std::vector<eid_t> conn(static_cast<std::size_t>(num_blocks), 0);
  std::vector<vid_t> touched;
  for (vid_t v = 0; v < n; ++v) {
    const vid_t mine = block[v];
    bool boundary = false;
    touched.clear();
    for (eid_t e = wg.offsets[v]; e < wg.offsets[v + 1]; ++e) {
      const vid_t b = block[wg.targets[e]];
      if (conn[b] == 0) touched.push_back(b);
      conn[b] += wg.eweights[e];
      if (b != mine) boundary = true;
    }
    if (boundary) {
      vid_t best = mine;
      eid_t best_conn = conn[mine];
      for (vid_t b : touched) {
        if (b == mine) continue;
        if (conn[b] > best_conn &&
            static_cast<double>(bw[b] + wg.vweights[v]) <= max_bw) {
          best_conn = conn[b];
          best = b;
        }
      }
      if (best != mine) {
        bw[mine] -= wg.vweights[v];
        bw[best] += wg.vweights[v];
        block[v] = best;
        ++moves;
      }
    }
    for (vid_t b : touched) conn[b] = 0;
  }
  return moves;
}

}  // namespace

BlockedPartition blocked_min_cut(const graph::Csr& g,
                                 const BlockedOptions& opt) {
  PG_CHECK(opt.num_blocks >= 1);
  const vid_t n = g.num_vertices();
  Rng rng(opt.seed);

  BlockedPartition bp;
  bp.num_blocks = opt.num_blocks;

  if (static_cast<int>(n) <= opt.num_blocks) {
    // Degenerate: one vertex per block.
    bp.block_of.resize(n);
    std::iota(bp.block_of.begin(), bp.block_of.end(), vid_t{0});
  } else {
    // ---- coarsening ----
    std::vector<CoarseLevel> levels;
    const WorkGraph finest = symmetrize(g);
    WorkGraph cur = finest;
    const vid_t coarse_target =
        std::max<vid_t>(static_cast<vid_t>(4 * opt.num_blocks), 64);
    while (cur.n() > coarse_target) {
      vid_t coarse_n = 0;
      const auto match = heavy_edge_matching(cur, rng, coarse_n);
      if (static_cast<double>(coarse_n) > 0.95 * static_cast<double>(cur.n()))
        break;  // matching stalled (e.g. star graphs)
      levels.push_back(contract(cur, match, coarse_n));
      cur = levels.back().graph;
    }

    // ---- initial partitioning on the coarsest graph ----
    std::vector<vid_t> block = initial_blocks(cur, opt.num_blocks, rng);

    // ---- uncoarsen with refinement ----
    auto refine = [&](const WorkGraph& wg, std::vector<vid_t>& blk) {
      eid_t total_w = 0;
      for (auto w : wg.vweights) total_w += w;
      std::vector<eid_t> bw(static_cast<std::size_t>(opt.num_blocks), 0);
      for (vid_t v = 0; v < wg.n(); ++v) bw[blk[v]] += wg.vweights[v];
      const double max_bw = (1.0 + opt.balance_tol) *
                            static_cast<double>(total_w) / opt.num_blocks;
      for (int p = 0; p < opt.refine_passes; ++p)
        if (refine_pass(wg, blk, bw, opt.num_blocks, max_bw) == 0) break;
    };

    refine(cur, block);
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
      // Project to the finer level, then refine there.
      const auto& coarse_of = it->coarse_of;
      std::vector<vid_t> fine_block(coarse_of.size());
      for (std::size_t v = 0; v < coarse_of.size(); ++v)
        fine_block[v] = block[coarse_of[v]];
      block = std::move(fine_block);
      const WorkGraph& fine_graph =
          (it + 1 == levels.rend()) ? finest : (it + 1)->graph;
      refine(fine_graph, block);
    }
    bp.block_of = std::move(block);
  }

  // ---- statistics ----
  bp.block_edges.assign(static_cast<std::size_t>(bp.num_blocks), 0);
  bp.block_verts.assign(static_cast<std::size_t>(bp.num_blocks), 0);
  for (vid_t v = 0; v < n; ++v) {
    bp.block_edges[bp.block_of[v]] += g.out_degree(v);
    ++bp.block_verts[bp.block_of[v]];
  }
  for (vid_t u = 0; u < n; ++u)
    for (vid_t v : g.out_neighbors(u))
      if (bp.block_of[u] != bp.block_of[v]) ++bp.cut_edges;
  return bp;
}

namespace {

int check_weights(const RankWeights& w) {
  PG_CHECK_MSG(!w.empty(), "k-way partition needs at least one rank weight");
  int sum = 0;
  for (int x : w) {
    PG_CHECK_MSG(x >= 0, "rank weights must be non-negative");
    sum += x;
  }
  PG_CHECK_MSG(sum > 0, "at least one rank weight must be positive");
  return sum;
}

}  // namespace

std::vector<int> continuous_partition_k(const graph::Csr& g,
                                        const RankWeights& w) {
  const int wsum = check_weights(w);
  const vid_t n = g.num_vertices();
  std::vector<int> owner(n);
  // Rank r owns the contiguous id range [n * prefix(r) / wsum, ...).
  vid_t begin = 0;
  int prefix = 0;
  for (std::size_t r = 0; r < w.size(); ++r) {
    prefix += w[r];
    const vid_t end = static_cast<vid_t>(static_cast<std::uint64_t>(n) *
                                         prefix / wsum);
    for (vid_t v = begin; v < end; ++v) owner[v] = static_cast<int>(r);
    begin = end;
  }
  return owner;
}

std::vector<int> round_robin_partition_k(const graph::Csr& g,
                                         const RankWeights& w) {
  const int wsum = check_weights(w);
  const vid_t n = g.num_vertices();
  // Position p in the period of length sum(w) belongs to the rank whose
  // weight segment covers p.
  std::vector<int> slot(static_cast<std::size_t>(wsum));
  {
    std::size_t p = 0;
    for (std::size_t r = 0; r < w.size(); ++r)
      for (int i = 0; i < w[r]; ++i) slot[p++] = static_cast<int>(r);
  }
  std::vector<int> owner(n);
  for (vid_t v = 0; v < n; ++v)
    owner[v] = slot[v % static_cast<vid_t>(wsum)];
  return owner;
}

std::vector<int> hybrid_partition_k(const BlockedPartition& bp,
                                    const RankWeights& w) {
  const int wsum = check_weights(w);
  const std::size_t k = w.size();
  std::vector<int> block_rank(static_cast<std::size_t>(bp.num_blocks), 0);
  // Deal heaviest blocks first (LPT) to the rank whose normalized load
  // (assigned edges / weight share) is lowest: keeps the cumulative shares
  // tight AND spreads hub-heavy id regions over the ranks, so a traversal
  // frontier sweeping an id range does not land entirely on one rank.
  std::vector<int> order(static_cast<std::size_t>(bp.num_blocks));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b2) {
    return bp.block_edges[a] > bp.block_edges[b2];
  });
  std::vector<double> share(k), assigned(k, 0.0);
  for (std::size_t r = 0; r < k; ++r)
    share[r] = static_cast<double>(w[r]) / wsum;
  for (int b : order) {
    const double bw = static_cast<double>(bp.block_edges[b]) + 1e-9;
    std::size_t best = 0;
    double best_load = 1e300;
    for (std::size_t r = 0; r < k; ++r) {
      const double load =
          share[r] == 0 ? 1e300 : (assigned[r] + bw) / share[r];
      if (load < best_load) {
        best_load = load;
        best = r;
      }
    }
    block_rank[b] = static_cast<int>(best);
    assigned[best] += bw;
  }
  std::vector<int> owner(bp.block_of.size());
  for (std::size_t v = 0; v < owner.size(); ++v)
    owner[v] = block_rank[bp.block_of[v]];
  return owner;
}

std::vector<int> hybrid_partition_k(const graph::Csr& g, const RankWeights& w,
                                    const BlockedOptions& opt) {
  return hybrid_partition_k(blocked_min_cut(g, opt), w);
}

std::vector<int> reassign_after_loss(const graph::Csr& g,
                                     std::span<const int> owner_rank,
                                     int nranks, int dead,
                                     const RankWeights& w) {
  PG_CHECK(owner_rank.size() == g.num_vertices());
  PG_CHECK_MSG(nranks >= 2, "reassign_after_loss needs a survivor");
  PG_CHECK_MSG(dead >= 0 && dead < nranks, "dead rank outside [0, nranks)");
  PG_CHECK_MSG(static_cast<int>(w.size()) == nranks - 1,
               "one weight per surviving rank is required");
  const int wsum = check_weights(w);
  const std::size_t k = w.size();
  // Compacted id of each surviving old rank, and the survivors' current
  // normalized edge loads (their vertices stay put — the checkpointed local
  // state must remain valid).
  std::vector<int> compact(static_cast<std::size_t>(nranks), -1);
  for (int r = 0, c = 0; r < nranks; ++r)
    if (r != dead) compact[static_cast<std::size_t>(r)] = c++;
  std::vector<double> share(k), assigned(k, 0.0);
  for (std::size_t r = 0; r < k; ++r)
    share[r] = static_cast<double>(w[r]) / wsum;
  const vid_t n = g.num_vertices();
  std::vector<int> owner(static_cast<std::size_t>(n), 0);
  std::vector<vid_t> orphans;
  for (vid_t v = 0; v < n; ++v) {
    const int r = owner_rank[static_cast<std::size_t>(v)];
    PG_CHECK_MSG(r >= 0 && r < nranks, "owner rank outside [0, nranks)");
    if (r == dead) {
      orphans.push_back(v);
    } else {
      const std::size_t c = static_cast<std::size_t>(compact[r]);
      owner[static_cast<std::size_t>(v)] = static_cast<int>(c);
      assigned[c] += static_cast<double>(g.out_degree(v));
    }
  }
  // Deal the dead rank's vertices heaviest-first to the survivor with the
  // lowest normalized load — the same LPT rule hybrid_partition_k applies
  // to blocks.
  std::sort(orphans.begin(), orphans.end(), [&](vid_t a, vid_t b) {
    return g.out_degree(a) > g.out_degree(b);
  });
  for (vid_t v : orphans) {
    const double vw = static_cast<double>(g.out_degree(v)) + 1e-9;
    std::size_t best = 0;
    double best_load = 1e300;
    for (std::size_t r = 0; r < k; ++r) {
      const double load =
          share[r] == 0 ? 1e300 : (assigned[r] + vw) / share[r];
      if (load < best_load) {
        best_load = load;
        best = r;
      }
    }
    owner[static_cast<std::size_t>(v)] = static_cast<int>(best);
    assigned[best] += vw;
  }
  return owner;
}

KwayStats evaluate_partition_k(const graph::Csr& g,
                               std::span<const int> owner_rank, int nranks) {
  PG_CHECK(owner_rank.size() == g.num_vertices());
  PG_CHECK(nranks >= 1);
  KwayStats s;
  s.verts.assign(static_cast<std::size_t>(nranks), 0);
  s.edges.assign(static_cast<std::size_t>(nranks), 0);
  // Presence masks for the replication factor: placing edge (u,v) on u's
  // rank makes v present there too. Only tracked while ranks fit a mask word.
  std::vector<std::uint64_t> present;
  if (nranks <= 64) present.assign(g.num_vertices(), 0);
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    const int r = owner_rank[u];
    PG_CHECK_MSG(r >= 0 && r < nranks, "owner rank outside [0, nranks)");
    ++s.verts[static_cast<std::size_t>(r)];
    s.edges[static_cast<std::size_t>(r)] += g.out_degree(u);
    if (!present.empty()) present[u] |= 1ull << r;
    for (vid_t v : g.out_neighbors(u)) {
      if (owner_rank[u] != owner_rank[v]) ++s.cross_edges;
      if (!present.empty()) present[v] |= 1ull << r;
    }
  }
  if (!present.empty() && g.num_vertices() > 0) {
    std::uint64_t replicas = 0;
    for (std::uint64_t mask : present)
      replicas += static_cast<std::uint64_t>(std::popcount(mask));
    s.replication_factor =
        static_cast<double>(replicas) / static_cast<double>(g.num_vertices());
  }
  eid_t total = 0, worst = 0;
  for (eid_t e : s.edges) {
    total += e;
    worst = std::max(worst, e);
  }
  if (total > 0)
    s.load_imbalance = static_cast<double>(worst) * nranks /
                       static_cast<double>(total);
  return s;
}

void save_partition(std::span<const int> owner_rank, const std::string& path) {
  std::ofstream out(path);
  PG_CHECK_FMT(out.good(), "%s: failed to open partition file for writing",
               path.c_str());
  out << owner_rank.size() << '\n';
  for (const int r : owner_rank) out << r << '\n';
  PG_CHECK_FMT(out.good(), "%s: write failure while saving partition file",
               path.c_str());
}

std::vector<int> load_partition(const std::string& path, vid_t num_vertices,
                                int nranks) {
  std::ifstream in(path);
  PG_CHECK_FMT(in.good(), "%s: failed to open partition file", path.c_str());
  // Every token must parse in full, so a typo cannot load as rank 0.
  bool have_header = false;
  std::vector<int> owner;
  std::size_t line_no = 0;
  for (std::string line; std::getline(in, line);) {
    ++line_no;
    std::istringstream ls(line);
    for (std::string tok; ls >> tok;) {
      long long v = 0;
      const char* end = tok.data() + tok.size();
      const auto [p, ec] = std::from_chars(tok.data(), end, v);
      PG_CHECK_FMT(ec == std::errc() && p == end,
                   "%s:%zu: non-numeric %s token '%s'", path.c_str(), line_no,
                   have_header ? "rank" : "vertex-count", tok.c_str());
      if (!have_header) {
        PG_CHECK_FMT(v == static_cast<long long>(num_vertices),
                     "%s:%zu: partition covers %lld vertices, the graph has %u",
                     path.c_str(), line_no, v, num_vertices);
        have_header = true;
        owner.reserve(num_vertices);
        continue;
      }
      PG_CHECK_FMT(owner.size() < num_vertices,
                   "%s:%zu: trailing token '%s' after %u entries",
                   path.c_str(), line_no, tok.c_str(), num_vertices);
      PG_CHECK_FMT(v >= 0 && v < nranks, "%s:%zu: rank %lld outside [0, %d)",
                   path.c_str(), line_no, v, nranks);
      owner.push_back(static_cast<int>(v));
    }
  }
  PG_CHECK_FMT(have_header, "%s: missing vertex-count header", path.c_str());
  PG_CHECK_FMT(owner.size() == num_vertices,
               "%s: truncated after line %zu: %zu of %u entries",
               path.c_str(), line_no, owner.size(), num_vertices);
  return owner;
}

}  // namespace phigraph::partition
