// Sequential reference implementations used by tests.
//
// reference_run<Program> executes the exact BSP semantics of the engine —
// same user functions, trivial sequential message delivery — so any
// divergence from DeviceEngine isolates a runtime bug (CSB routing, lane
// padding, pipelining, partitioned exchange...), not an app bug.
//
// The classical single-threaded algorithms (Dijkstra, queue BFS, Kahn) are
// also provided as *independent* ground truth for the app logic itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <vector>

#include "src/common/expect.hpp"
#include "src/core/graph_view.hpp"
#include "src/core/program_traits.hpp"
#include "src/graph/csr.hpp"

namespace phigraph::apps {

/// Sequential BSP execution with the same semantics as DeviceEngine.
/// Returns the final vertex values; `supersteps_out`, if given, receives the
/// number of executed supersteps.
template <core::VertexProgram Program>
std::vector<typename Program::vertex_value_t> reference_run(
    const graph::Csr& g, const Program& prog, int max_supersteps = 1000,
    int* supersteps_out = nullptr) {
  using Msg = typename Program::message_t;
  using Value = typename Program::vertex_value_t;

  const vid_t n = g.num_vertices();
  std::vector<Value> values(n);
  std::vector<std::uint8_t> active(n, 0);
  const auto& in_deg = g.in_degrees();

  const bool weighted = g.has_edge_values();
  for (vid_t u = 0; u < n; ++u) {
    core::InitInfo info{in_deg[u], g.out_degree(u), 0.f};
    if (weighted)
      for (float w : g.out_edge_values(u)) info.out_weight += w;
    bool act = false;
    prog.init_vertex(u, values[u], act, info);
    active[u] = act ? 1 : 0;
  }

  core::GraphView<Value> view;
  view.vertices = g.offsets();
  view.edges = g.targets();
  view.edge_value = g.edge_values();
  view.vertex_value = values;
  view.in_degree = in_deg;

  struct Inbox {
    Msg acc;
    bool has = false;
  };
  std::vector<Inbox> inbox(n);
  std::vector<vid_t> touched;

  struct Sink {
    std::vector<Inbox>* inbox;
    std::vector<vid_t>* touched;
    const Program* prog;
    void send_messages(vid_t dst, const Msg& m) {
      auto& slot = (*inbox)[dst];
      if (slot.has) {
        slot.acc = prog->combine(slot.acc, m);
      } else {
        slot.acc = m;
        slot.has = true;
        touched->push_back(dst);
      }
    }
    void send(vid_t dst, const Msg& m) { send_messages(dst, m); }
  };

  int s = 0;
  for (; s < max_supersteps; ++s) {
    view.superstep = s;
    Sink sink{&inbox, &touched, &prog};
    for (vid_t u = 0; u < n; ++u)
      if (Program::kAllActive || active[u]) prog.generate_messages(u, view, sink);

    std::fill(active.begin(), active.end(), 0);
    std::uint64_t next = 0;
    for (vid_t dst : touched) {
      if (prog.update_vertex(inbox[dst].acc, view, dst)) {
        active[dst] = 1;
        ++next;
      }
      inbox[dst].has = false;
    }
    touched.clear();
    if (!Program::kAllActive && next == 0) {
      ++s;
      break;
    }
  }
  if (supersteps_out) *supersteps_out = s;
  return values;
}

// ---- independent classical algorithms ---------------------------------------

/// BFS levels by queue traversal; -1 = unreachable.
inline std::vector<std::int32_t> classic_bfs(const graph::Csr& g, vid_t src) {
  std::vector<std::int32_t> level(g.num_vertices(), -1);
  std::deque<vid_t> q{src};
  level[src] = 0;
  while (!q.empty()) {
    const vid_t u = q.front();
    q.pop_front();
    for (vid_t v : g.out_neighbors(u))
      if (level[v] < 0) {
        level[v] = level[u] + 1;
        q.push_back(v);
      }
  }
  return level;
}

/// Dijkstra distances (float weights, FLT_MAX = unreachable).
inline std::vector<float> classic_dijkstra(const graph::Csr& g, vid_t src) {
  constexpr float kInf = std::numeric_limits<float>::max();
  std::vector<float> dist(g.num_vertices(), kInf);
  using Entry = std::pair<float, vid_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[src] = 0;
  pq.emplace(0.0f, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    const auto nbrs = g.out_neighbors(u);
    const auto w = g.out_edge_values(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const float nd = d + w[i];
      if (nd < dist[nbrs[i]]) {
        dist[nbrs[i]] = nd;
        pq.emplace(nd, nbrs[i]);
      }
    }
  }
  return dist;
}

/// Kahn's algorithm levels: level[v] = longest-path depth from a source.
/// Matches TopoValue::order for our BSP TopoSort.
inline std::vector<std::int32_t> classic_topo_levels(const graph::Csr& g) {
  const vid_t n = g.num_vertices();
  auto remaining = g.in_degrees();
  std::vector<std::int32_t> level(n, -1);
  std::deque<vid_t> q;
  for (vid_t v = 0; v < n; ++v)
    if (remaining[v] == 0) {
      level[v] = 0;
      q.push_back(v);
    }
  while (!q.empty()) {
    const vid_t u = q.front();
    q.pop_front();
    for (vid_t v : g.out_neighbors(u)) {
      // Kahn with level propagation: v is ordered once all in-edges are
      // consumed; its level is one past the max of its predecessors' levels.
      level[v] = std::max(level[v], level[u] + 1);
      if (--remaining[v] == 0) q.push_back(v);
    }
  }
  return level;
}

/// Sequential power-iteration PageRank with the same damping semantics as
/// the PageRank program (dangling mass simply evaporates, as in the paper's
/// formulation).
inline std::vector<float> classic_pagerank(const graph::Csr& g, int iters,
                                           float damping = 0.85f) {
  const vid_t n = g.num_vertices();
  std::vector<float> rank(n, 1.0f), incoming(n, 0.0f);
  for (int it = 0; it < iters; ++it) {
    std::fill(incoming.begin(), incoming.end(), 0.0f);
    std::vector<std::uint8_t> got(n, 0);
    for (vid_t u = 0; u < n; ++u) {
      const eid_t deg = g.out_degree(u);
      if (deg == 0) continue;
      const float share = rank[u] / static_cast<float>(deg);
      for (vid_t v : g.out_neighbors(u)) {
        incoming[v] += share;
        got[v] = 1;
      }
    }
    for (vid_t v = 0; v < n; ++v)
      if (got[v]) rank[v] = (1.0f - damping) + damping * incoming[v];
  }
  return rank;
}

}  // namespace phigraph::apps
