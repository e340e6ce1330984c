// Compile-time contract for vertex programs.
//
// A PhiGraph vertex program mirrors the paper's three user-defined functions
// plus the scalar reduction the runtime needs for remote-message combining
// and the novec ablation:
//
//   struct MyProgram {
//     using vertex_value_t = ...;   // per-vertex state
//     using message_t      = ...;   // what send_messages() carries
//
//     static constexpr bool kAllActive      = ...; // every vertex generates
//                                                  // every superstep (PageRank)
//     static constexpr bool kNeedsReduction = ...; // messages are reduced
//     static constexpr bool kSimdReduce     = ...; // reduction is associative,
//                                                  // commutative & basic-typed
//
//     message_t identity() const;                  // reduction identity
//     message_t combine(message_t, message_t) const;
//
//     void init_vertex(vid_t global, vertex_value_t&, bool& active,
//                      const InitInfo&) const;
//     template <class View, class Sink>
//     void generate_messages(vid_t u, const View& g, Sink& sink) const;
//     template <class VArr>
//     void process_messages(VArr& vmsgs) const;    // SIMD path (kSimdReduce)
//     template <class View>
//     bool update_vertex(const message_t&, View& g, vid_t u) const;
//   };
#pragma once

#include <concepts>
#include <type_traits>

#include "src/common/types.hpp"

namespace phigraph::core {

/// Static facts about a vertex handed to init_vertex.
struct InitInfo {
  vid_t in_degree = 0;     // in the full graph
  eid_t out_degree = 0;    // in the full graph
  float out_weight = 0.f;  // sum of incident edge values (0 if unweighted)
};

template <typename P>
concept VertexProgram = requires {
  typename P::vertex_value_t;
  typename P::message_t;
  { P::kAllActive } -> std::convertible_to<bool>;
  { P::kNeedsReduction } -> std::convertible_to<bool>;
  { P::kSimdReduce } -> std::convertible_to<bool>;
} && std::is_trivially_copyable_v<typename P::message_t>;

/// Pregel-style message-combiner declaration (iPregel's key traffic lever).
/// A program may announce what its combine() computes so the runtime can
/// apply it at the send-side remote buffer before anything crosses a rank
/// boundary:
///
///   * kSum / kMin / kOr — combine() is the commutative, associative sum /
///     minimum / bitwise OR; the audit build spot-checks commutativity on
///     real message pairs and aborts if the declaration lies. kOr is the
///     multi-source lane-merge (64 queries per uint64_t word, see
///     apps/multi_source.hpp): each set bit is one query's frontier
///     membership, and merging bitmasks from different in-edges is exactly
///     the word-wide OR.
///   * kCustom — combine() is an arbitrary program-defined reduction the
///     runtime trusts to be order-insensitive enough to pre-combine (the
///     historical default: every program's remote messages have always been
///     combined before the send).
///   * kNone — messages must be delivered individually; the engine ships
///     them uncombined.
///
/// Declared as `static constexpr CombinerKind kCombiner = ...;` — optional,
/// programs without it keep the historical kCustom behavior.
enum class CombinerKind : std::uint8_t { kNone = 0, kSum, kMin, kOr, kCustom };

constexpr const char* combiner_kind_name(CombinerKind k) noexcept {
  switch (k) {
    case CombinerKind::kNone: return "none";
    case CombinerKind::kSum: return "sum";
    case CombinerKind::kMin: return "min";
    case CombinerKind::kOr: return "or";
    case CombinerKind::kCustom: return "custom";
  }
  return "?";
}

template <typename P>
concept DeclaresCombiner = requires {
  { P::kCombiner } -> std::convertible_to<CombinerKind>;
};

/// The program's combiner declaration, defaulting to kCustom (combine-before
/// -send with the program's combine(), exactly the pre-combiner behavior).
template <typename P>
[[nodiscard]] consteval CombinerKind combiner_kind() noexcept {
  if constexpr (DeclaresCombiner<P>)
    return P::kCombiner;
  else
    return CombinerKind::kCustom;
}

/// Whether the declared combiner claims commutativity the runtime may check.
template <typename P>
[[nodiscard]] consteval bool combiner_claims_commutative() noexcept {
  return combiner_kind<P>() == CombinerKind::kSum ||
         combiner_kind<P>() == CombinerKind::kMin ||
         combiner_kind<P>() == CombinerKind::kOr;
}

/// Pull-direction opt-in (direction-optimizing traversal, core/direction.hpp).
/// A pullable program declares `static constexpr bool kPullable = true;` and
/// supplies the bottom-up operator: the message vertex u would receive from
/// in-neighbor src along an edge of weight w (0 when unweighted), i.e. the
/// same value generate_messages(src) would have pushed to u. The engine may
/// then run dense supersteps bottom-up: scan each candidate's in-neighbors
/// against a bitmap of the frontier and feed pull_message results into the
/// ordinary update_vertex. BFS (first-parent-wins at equal level), SSSP and
/// CC (exact min-combine) qualify in any scan order.
///
/// kAllActive programs pull every superstep, with no frontier bitmap: the
/// scalar fold visits every in-neighbor of u in ascending global source
/// order, the order Csr::reversed() lists them and the order reference_run
/// delivers pushed messages, at any rank count. A program whose combine is
/// order-sensitive (a float sum such as PageRank) therefore qualifies too —
/// its pulled result is the sequential one bit for bit — as long as it
/// supplies no pull_message_vec, whose lane-parallel fold reorders the sum.
template <typename P>
concept PullableProgram = VertexProgram<P> && requires(
    const P p, const typename P::vertex_value_t v, float w) {
  { P::kPullable } -> std::convertible_to<bool>;
  { p.pull_message(v, w) } -> std::same_as<typename P::message_t>;
};

template <typename P>
[[nodiscard]] consteval bool is_pullable() noexcept {
  if constexpr (PullableProgram<P>)
    return P::kPullable;
  else
    return false;
}

/// Optional candidate filter: pull scans skip vertices for which
/// pull_candidate(value) is false (e.g. BFS vertices already levelled).
/// Without it every vertex is a candidate each pull superstep (CC/SSSP).
template <typename P>
concept HasPullCandidate = requires(const P p,
                                    const typename P::vertex_value_t v) {
  { p.pull_candidate(v) } -> std::convertible_to<bool>;
};

/// Optional per-source pull operand: when present, the engine evaluates
/// pull_source(value, out_degree) once per vertex per pull superstep and
/// passes that, instead of the raw vertex value, to pull_message — so work
/// that depends only on the source (PageRank's value / out-degree share)
/// is done once per vertex rather than once per edge.
template <typename P>
concept HasPullSource = requires(const P p,
                                 const typename P::vertex_value_t v,
                                 eid_t out_degree) {
  { p.pull_source(v, out_degree) } ->
      std::same_as<typename P::vertex_value_t>;
};

/// Whether a rank with peers can pull P: an all-active program whose
/// pull_source operand is a message, so each superstep the ranks can swap
/// the operands their gathers read as ordinary message envelopes.
/// Traversals would also need the remote frontier bits; they keep pushing.
template <typename P>
[[nodiscard]] consteval bool pulls_with_peers() noexcept {
  if constexpr (is_pullable<P>() && HasPullSource<P>)
    return P::kAllActive && std::is_same_v<typename P::vertex_value_t,
                                           typename P::message_t>;
  else
    return false;
}

/// Optional SIMD pull operator: lane-parallel pull_message over a vector of
/// gathered in-neighbor values V and a vector of edge weights VF. Only
/// consulted when kSimdReduce holds and message_t == vertex_value_t, and
/// only for combines whose result does not depend on the fold order.
template <typename P, typename V, typename VF>
concept HasVecPullMessage = requires(const P p, const V v, const VF w) {
  { p.pull_message_vec(v, w) } -> std::same_as<V>;
};

}  // namespace phigraph::core
