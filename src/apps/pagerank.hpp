// PageRank vertex program (paper §V-B).
//
// "the message generation sub-step propagates the PageRank value of each
//  vertex to its neighbors, by dividing the value by the number of outbound
//  edges. The message reduction sub-step sums up the received PageRank
//  values from the neighbors, utilizing SIMD processing. The vertex update
//  sub-step updates each vertex's PageRank value using the sum."
//
// The program is also pullable: at any rank count the engine gathers each
// vertex's in-neighbor shares in ascending global source order instead of
// pushing them through the CSB (ranks swap their boundary shares first).
// That is the reference's fold order, so the pulled sums are bit-identical
// to the pushed single-worker ones at any rank and thread count. Each share
// is computed once per superstep (pull_source), with the same expression
// generate_messages uses.
#pragma once

#include "src/common/types.hpp"
#include "src/core/program_traits.hpp"

namespace phigraph::apps {

class PageRank {
 public:
  using vertex_value_t = float;
  using message_t = float;
  static constexpr bool kAllActive = true;  // every vertex sends, every round
  static constexpr bool kNeedsReduction = true;
  static constexpr bool kSimdReduce = true;
  static constexpr core::CombinerKind kCombiner = core::CombinerKind::kSum;
  static constexpr bool kPullable = true;

  explicit PageRank(float damping = 0.85f) : damping_(damping) {}

  /// What u sends along each of its out-edges.
  [[nodiscard]] static float share(float value, eid_t out_degree) noexcept {
    return value / static_cast<float>(out_degree);
  }

  [[nodiscard]] float identity() const noexcept { return 0.0f; }
  [[nodiscard]] float combine(float a, float b) const noexcept { return a + b; }

  void init_vertex(vid_t /*global*/, float& value, bool& active,
                   const core::InitInfo& /*info*/) const noexcept {
    value = 1.0f;
    active = true;
  }

  template <typename View, typename Sink>
  void generate_messages(vid_t u, const View& g, Sink& sink) const {
    const eid_t deg = g.vertices[u + 1] - g.vertices[u];
    if (deg == 0) return;
    const float s = share(g.vertex_value[u], deg);
    for (eid_t i = g.vertices[u]; i < g.vertices[u + 1]; ++i)
      sink.send_messages(g.edges[i], s);
  }

  /// Pull path: the engine stores pull_source(value, out-degree) per vertex
  /// once per superstep, and pull_message hands that share on unchanged.
  [[nodiscard]] float pull_source(float value, eid_t out_degree) const noexcept {
    return out_degree == 0 ? 0.0f : share(value, out_degree);
  }
  [[nodiscard]] float pull_message(float src_share, float /*weight*/) const noexcept {
    return src_share;
  }

  /// SIMD sum over the vector message array (paper Listing 1 structure).
  template <typename VArr>
  void process_messages(VArr& vmsgs) const {
    auto res = vmsgs[0];
    for (std::size_t i = 1; i < vmsgs.size(); ++i) res = res + vmsgs[i];
    vmsgs[0] = res;
  }

  template <typename View>
  bool update_vertex(const float& msg, View& g, vid_t u) const noexcept {
    g.vertex_value[u] = (1.0f - damping_) + damping_ * msg;
    return true;
  }

 private:
  float damping_;
};

}  // namespace phigraph::apps
