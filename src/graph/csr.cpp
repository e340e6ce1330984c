#include "src/graph/csr.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/sync.hpp"
#include "src/graph/transpose.hpp"

namespace phigraph::graph {

/// Built at most once per Derived: in_degrees under `mu` before `counted` is
/// released, the transpose under `mu`. Readers that acquire `counted` skip
/// the lock, so a running engine's in_degrees() never waits behind another
/// engine's transpose build. Neither changes afterwards; set_edge_values()
/// swaps in a fresh Derived instead.
struct Csr::Derived {
  sync::Mutex mu;
  sync::Atomic<bool> counted{false};
  std::vector<vid_t> in_degrees;
  std::shared_ptr<const Transpose> transpose PG_GUARDED_BY(mu);
};

std::shared_ptr<Csr::Derived> Csr::empty_derived() noexcept {
  static const std::shared_ptr<Derived> empty = std::make_shared<Derived>();
  return empty;
}

Csr::Csr(std::vector<eid_t> offsets, std::vector<vid_t> targets,
         std::vector<float> edge_values, vid_t target_space)
    : offsets_(std::move(offsets)),
      targets_(std::move(targets)),
      edge_values_(std::move(edge_values)),
      target_space_(target_space),
      derived_(std::make_shared<Derived>()) {
  validate();
}

Csr::Csr(Csr&& o) noexcept
    : offsets_(std::move(o.offsets_)),
      targets_(std::move(o.targets_)),
      edge_values_(std::move(o.edge_values_)),
      target_space_(std::exchange(o.target_space_, 0)),
      derived_(std::exchange(o.derived_, empty_derived())) {}

Csr& Csr::operator=(Csr&& o) noexcept {
  if (this == &o) return *this;
  offsets_ = std::move(o.offsets_);
  targets_ = std::move(o.targets_);
  edge_values_ = std::move(o.edge_values_);
  o.offsets_.clear();
  o.targets_.clear();
  o.edge_values_.clear();
  target_space_ = std::exchange(o.target_space_, 0);
  derived_ = std::exchange(o.derived_, empty_derived());
  return *this;
}

bool Csr::operator==(const Csr& o) const noexcept {
  return offsets_ == o.offsets_ && targets_ == o.targets_ &&
         edge_values_ == o.edge_values_ && target_space_ == o.target_space_;
}

Csr Csr::from_edges(vid_t num_vertices,
                    std::span<const std::pair<vid_t, vid_t>> edges,
                    bool dedup) {
  std::vector<eid_t> offsets(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const auto& [u, v] : edges) {
    PG_CHECK_MSG(u < num_vertices && v < num_vertices,
                 "edge endpoint out of range");
    ++offsets[u + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());

  std::vector<vid_t> targets(edges.size());
  std::vector<eid_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges) targets[cursor[u]++] = v;

  if (dedup) {
    std::vector<vid_t> out;
    out.reserve(targets.size());
    std::vector<eid_t> new_offsets(offsets.size(), 0);
    for (vid_t u = 0; u < num_vertices; ++u) {
      auto first = targets.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
      auto last = targets.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
      std::sort(first, last);
      auto uniq_end = std::unique(first, last);
      out.insert(out.end(), first, uniq_end);
      new_offsets[u + 1] = out.size();
    }
    return Csr(std::move(new_offsets), std::move(out));
  }
  return Csr(std::move(offsets), std::move(targets));
}

void Csr::set_edge_values(std::vector<float> values) {
  PG_CHECK_MSG(values.size() == targets_.size(),
               "edge value count must equal edge count");
  edge_values_ = std::move(values);
  derived_ = std::make_shared<Derived>();
}

const std::vector<vid_t>& Csr::in_degrees() const {
  PG_CHECK_MSG(target_space_ == 0,
               "in_degrees() requires targets in the local vertex space");
  Derived& d = *derived_;
  if (!d.counted.load(sync::acquire)) {
    sync::LockGuard lock(d.mu);
    if (!d.counted.load(sync::relaxed)) {
      d.in_degrees.assign(num_vertices(), 0);
      for (vid_t t : targets_) ++d.in_degrees[t];
      d.counted.store(true, sync::release);
    }
  }
  return d.in_degrees;
}

std::shared_ptr<const Transpose> Csr::transpose(sched::ThreadTeam& team) const {
  const std::vector<vid_t>& in = in_degrees();
  Derived& d = *derived_;
  sync::LockGuard lock(d.mu);
  if (!d.transpose)
    d.transpose =
        std::make_shared<const Transpose>(parallel_transpose(*this, in, team));
  return d.transpose;
}

Csr Csr::reversed() const {
  PG_CHECK_MSG(target_space_ == 0,
               "reversed() requires targets in the local vertex space");
  const vid_t n = num_vertices();
  std::vector<eid_t> roffsets(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t t : targets_) ++roffsets[t + 1];
  std::partial_sum(roffsets.begin(), roffsets.end(), roffsets.begin());

  std::vector<vid_t> rtargets(targets_.size());
  std::vector<float> rvalues(edge_values_.size());
  std::vector<eid_t> cursor(roffsets.begin(), roffsets.end() - 1);
  for (vid_t u = 0; u < n; ++u) {
    for (eid_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
      const vid_t v = targets_[e];
      const eid_t slot = cursor[v]++;
      rtargets[slot] = u;
      if (!edge_values_.empty()) rvalues[slot] = edge_values_[e];
    }
  }
  return Csr(std::move(roffsets), std::move(rtargets), std::move(rvalues));
}

void Csr::validate() const {
  PG_CHECK_MSG(!offsets_.empty(), "CSR must have an offsets array");
  PG_CHECK_MSG(offsets_.front() == 0, "CSR offsets must start at 0");
  PG_CHECK_MSG(std::is_sorted(offsets_.begin(), offsets_.end()),
               "CSR offsets must be non-decreasing");
  PG_CHECK_MSG(offsets_.back() == targets_.size(),
               "last CSR offset must equal the edge count");
  const vid_t bound = target_space_ == 0 ? num_vertices() : target_space_;
  for (vid_t t : targets_)
    PG_CHECK_MSG(t < bound, "CSR edge target out of range");
  PG_CHECK_MSG(edge_values_.empty() || edge_values_.size() == targets_.size(),
               "edge values, when present, must cover every edge");
}

DegreeStats degree_stats(const Csr& g) {
  DegreeStats s;
  const vid_t n = g.num_vertices();
  if (n == 0) return s;
  s.min_out = g.out_degree(0);
  const auto& in = g.in_degrees();
  for (vid_t u = 0; u < n; ++u) {
    const eid_t d = g.out_degree(u);
    s.min_out = std::min(s.min_out, d);
    s.max_out = std::max(s.max_out, d);
    if (d == 0) ++s.zero_out;
    if (in[u] == 0) ++s.zero_in;
  }
  s.mean_out = static_cast<double>(g.num_edges()) / static_cast<double>(n);
  return s;
}

}  // namespace phigraph::graph
