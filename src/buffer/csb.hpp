// Condensed Static Buffer (CSB) — the paper's core data structure (§IV-B/C).
//
// Construction (once per graph):
//   1. Sort vertices by in-degree, descending (ties by id — this reproduces
//      the paper's Fig. 3 ordering) with one counting sort. A redirection map
//      translates original destination ids to sorted positions.
//   2. Group sorted vertices into vertex groups of k × lanes vertices.
//   3. Per group, allocate k aligned vector arrays sized by the group's max
//      in-degree. The arrays stay uninitialized: a reader only touches rows
//      an insert wrote or pad_array() filled, so the first superstep that
//      stores into a page is the one that faults it in.
//
// Per superstep:
//   * columns are assigned to destinations either one-to-one (slot order,
//     Fig. 3(a)) or by dynamic column allocation (index array + column
//     offset, Fig. 3(b)) which condenses occupied columns to the front;
//   * insert() is the locking scheme (per-column lock, group lock for
//     allocation); insert_owned() is the mover path (each column touched by
//     a single thread, lock only for allocation);
//   * pad_array() fills lane bubbles with the reduction identity so whole
//     rows can be reduced with SIMD;
//   * processing walks (group, array) task units.
//
// Lane count is a *runtime* parameter: the same buffer code serves the CPU
// profile (16-byte SSE rows), the MIC profile (64-byte KNC rows) and the
// scalar SemiClustering layout (lanes = 1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "src/common/aligned.hpp"
#include "src/common/audit.hpp"
#include "src/common/expect.hpp"
#include "src/common/sync.hpp"
#include "src/common/types.hpp"
#include "src/sched/spinlock.hpp"

namespace phigraph::buffer {

enum class ColumnMode : std::uint8_t {
  kOneToOne,  // predetermined slot == column mapping (Fig. 3(a))
  kDynamic,   // dynamic column allocation (Fig. 3(b))
};

/// Per-thread insertion statistics, aggregated into metrics counters.
struct InsertStats {
  std::uint64_t inserted = 0;
  std::uint64_t conflicts = 0;          // message landed in an occupied column
  std::uint64_t columns_allocated = 0;  // first message for a destination
  std::uint64_t lock_acquisitions = 0;  // column + group locks taken
};

template <typename Msg>
class Csb {
 public:
  struct Config {
    int lanes = 16;  // w / msg_size
    int k = 2;       // vector arrays per vertex group
    ColumnMode mode = ColumnMode::kDynamic;
  };

  /// in_degrees[v] = number of messages vertex v can receive per superstep
  /// (its in-degree in the full graph; +1 headroom is added internally for a
  /// combined remote message).
  Csb(std::span<const vid_t> in_degrees, const Config& cfg)
      : lanes_(cfg.lanes),
        k_(cfg.k),
        mode_(cfg.mode),
        num_vertices_(static_cast<vid_t>(in_degrees.size())) {
    PG_CHECK(lanes_ >= 1 && k_ >= 1);
    build(in_degrees);
  }

  Csb(const Csb&) = delete;
  Csb& operator=(const Csb&) = delete;

  // ---- layout accessors ----------------------------------------------------
  [[nodiscard]] vid_t num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] int lanes() const noexcept { return lanes_; }
  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] ColumnMode mode() const noexcept { return mode_; }
  [[nodiscard]] vid_t group_width() const noexcept {
    return static_cast<vid_t>(k_ * lanes_);
  }
  [[nodiscard]] std::size_t num_groups() const noexcept {
    return group_cap_rows_.size();
  }
  /// Task units for the message-processing step: every vector array.
  [[nodiscard]] std::size_t num_array_tasks() const noexcept {
    return num_groups() * static_cast<std::size_t>(k_);
  }
  /// Groups that received at least one message since the last clear_dirty()
  /// — the only groups process/update/reset need to visit.
  [[nodiscard]] std::size_t num_dirty_groups() const noexcept {
    return dirty_count_.load(sync::acquire);
  }
  [[nodiscard]] std::size_t dirty_group(std::size_t i) const noexcept {
    PG_DCHECK(i < num_dirty_groups());
    return dirty_groups_[i];
  }
  /// Task units restricted to dirty groups (dirty_count × k).
  [[nodiscard]] std::size_t num_dirty_array_tasks() const noexcept {
    return num_dirty_groups() * static_cast<std::size_t>(k_);
  }
  [[nodiscard]] vid_t sorted_vertex(vid_t pos) const noexcept {
    PG_DCHECK(pos < num_vertices_);
    return sorted_ids_[pos];
  }
  [[nodiscard]] vid_t redirection(vid_t v) const noexcept {
    PG_DCHECK(v < num_vertices_);
    return redirection_[v];
  }
  [[nodiscard]] vid_t group_max_degree(std::size_t g) const noexcept {
    PG_DCHECK(g < num_groups());
    // Stored with +1 headroom for a combined remote message; report the raw
    // group maximum for layout introspection.
    return group_cap_rows_[g] == 0 ? 0 : group_cap_rows_[g] - 1;
  }
  /// Total message slots allocated — the paper's memory-footprint metric.
  [[nodiscard]] std::size_t storage_slots() const noexcept {
    return storage_slots_;
  }

  // ---- superstep lifecycle ---------------------------------------------------
  /// Reset bookkeeping for group g. Called (in parallel over groups) before
  /// each generation phase — the paper re-initializes index arrays to -1 and
  /// column offsets to 0 every iteration.
  void reset_group(std::size_t g) noexcept {
    const vid_t width = group_width();
    const std::size_t col0 = g * width;
    const vid_t limit = cols_in_group(g);
    for (vid_t c = 0; c < limit; ++c) {
      counts_[col0 + c] = 0;
      index_array_[col0 + c].store(-1, sync::relaxed);
      col_to_slot_[col0 + c] = -1;
      PG_AUDIT_ONLY(
          col_owner_[col0 + c].store(-1, sync::relaxed);)
    }
    col_offset_[g] = 0;
    group_dirty_[g].store(0, sync::relaxed);
  }

  void reset_all() noexcept {
    for (std::size_t g = 0; g < num_groups(); ++g) reset_group(g);
    clear_dirty();
  }

  /// Forget the dirty list. Call after resetting the dirty groups (their
  /// dirty flags are cleared by reset_group); must not race with insertions.
  void clear_dirty() noexcept {
    dirty_count_.store(0, sync::release);
  }

  // ---- insertion ---------------------------------------------------------------
  /// Locking scheme: safe from any thread. Locks the destination column for
  /// the duration of the store (paper: "the computing thread should lock the
  /// entire column"), and the group lock for first-touch column allocation.
  void insert(vid_t dst, const Msg& m, InsertStats& stats) {
    PG_DCHECK_FMT(dst < num_vertices_,
                  "Csb::insert: destination vertex %u is outside the "
                  "redirection map (%u local vertices)",
                  dst, num_vertices_);
    const vid_t pos = redirection_[dst];
    const std::size_t g = pos / group_width();
    mark_dirty(g);
    const vid_t col = locate_column<true>(g, pos % group_width(), stats);
    const std::size_t gcol = g * group_width() + col;
    column_locks_[gcol].lock();
    ++stats.lock_acquisitions;
    const std::uint32_t row = counts_[gcol]++;
    store(g, col, row, m);
    column_locks_[gcol].unlock();
    if (row > 0) ++stats.conflicts;
    ++stats.inserted;
  }

  /// Mover scheme: the caller guarantees it is the only thread inserting for
  /// this destination class, so the row counter needs no lock; only column
  /// allocation synchronizes (on the group lock).
  void insert_owned(vid_t dst, const Msg& m, InsertStats& stats) {
    PG_DCHECK_FMT(dst < num_vertices_,
                  "Csb::insert_owned: destination vertex %u is outside the "
                  "redirection map (%u local vertices)",
                  dst, num_vertices_);
    const vid_t pos = redirection_[dst];
    const std::size_t g = pos / group_width();
    mark_dirty(g);
    const vid_t col = locate_column<false>(g, pos % group_width(), stats);
    const std::size_t gcol = g * group_width() + col;
    PG_AUDIT_ONLY(claim_column(g, col, gcol, dst);)
    const std::uint32_t row = counts_[gcol]++;
    store(g, col, row, m);
    if (row > 0) ++stats.conflicts;
    ++stats.inserted;
  }

  // ---- processing ----------------------------------------------------------------
  /// Number of columns of array `a` in group `g` that may hold messages.
  [[nodiscard]] int array_cols(std::size_t g, int a) const noexcept {
    const vid_t limit = cols_in_group(g);
    const vid_t first = static_cast<vid_t>(a) * static_cast<vid_t>(lanes_);
    vid_t avail = first >= limit ? 0 : limit - first;
    if (mode_ == ColumnMode::kDynamic) {
      const std::uint32_t used = col_offset_[g];
      const vid_t live = used <= first ? 0 : static_cast<vid_t>(used) - first;
      avail = std::min(avail, live);
    }
    return static_cast<int>(std::min<vid_t>(avail, static_cast<vid_t>(lanes_)));
  }

  /// Max message count among the array's columns = rows to reduce.
  [[nodiscard]] std::uint32_t array_rows(std::size_t g, int a) const noexcept {
    const std::size_t col0 = g * group_width() + static_cast<std::size_t>(a) * lanes_;
    std::uint32_t rows = 0;
    const int cols = array_cols(g, a);
    for (int c = 0; c < cols; ++c) rows = std::max(rows, counts_[col0 + c]);
    return rows;
  }

  [[nodiscard]] std::uint32_t column_count(std::size_t g, vid_t col) const noexcept {
    return counts_[g * group_width() + col];
  }

  /// Local vertex id owning column `col` of group g, or kInvalidVertex if
  /// the column is unoccupied.
  [[nodiscard]] vid_t column_vertex(std::size_t g, vid_t col) const noexcept {
    const std::size_t gcol = g * group_width() + col;
    std::int32_t slot;
    if (mode_ == ColumnMode::kDynamic) {
      slot = col_to_slot_[gcol];
      if (slot < 0) return kInvalidVertex;
    } else {
      if (counts_[gcol] == 0) return kInvalidVertex;
      slot = static_cast<std::int32_t>(col);
    }
    const std::size_t pos = g * group_width() + static_cast<std::size_t>(slot);
    return pos < num_vertices_ ? sorted_ids_[pos] : kInvalidVertex;
  }

  /// Pointer to row 0 of array `a` of group g (lanes_ messages per row).
  [[nodiscard]] Msg* array_base(std::size_t g, int a) noexcept {
    return storage_.get() + group_base_[g] +
           static_cast<std::size_t>(a) * group_cap_rows_[g] * lanes_;
  }
  [[nodiscard]] const Msg* array_base(std::size_t g, int a) const noexcept {
    return storage_.get() + group_base_[g] +
           static_cast<std::size_t>(a) * group_cap_rows_[g] * lanes_;
  }

  /// Fill lane bubbles of rows [0, rows) with the reduction identity so the
  /// whole block can be processed with full-width SIMD. Returns the number
  /// of padded cells (the "bubbles" the paper cites as the SIMD-efficiency
  /// limiter).
  std::uint64_t pad_array(std::size_t g, int a, std::uint32_t rows,
                          const Msg& identity) noexcept {
    std::uint64_t padded = 0;
    Msg* base = array_base(g, a);
    const std::size_t col0 = g * group_width() + static_cast<std::size_t>(a) * lanes_;
    for (int lane = 0; lane < lanes_; ++lane) {
      // Columns beyond array_cols have count 0 and must be fully padded.
      const std::uint32_t have =
          (static_cast<vid_t>(a) * lanes_ + static_cast<vid_t>(lane) <
           cols_in_group(g))
              ? counts_[col0 + static_cast<std::size_t>(lane)]
              : 0;
      for (std::uint32_t r = have; r < rows; ++r) {
        base[static_cast<std::size_t>(r) * lanes_ + static_cast<std::size_t>(lane)] =
            identity;
        ++padded;
      }
    }
    return padded;
  }

  /// Direct cell access (row-major within an array) for tests and the
  /// scalar-processing path.
  [[nodiscard]] Msg& cell(std::size_t g, vid_t col, std::uint32_t row) noexcept {
    const int a = static_cast<int>(col) / lanes_;
    const int lane = static_cast<int>(col) % lanes_;
    return array_base(g, a)[static_cast<std::size_t>(row) * lanes_ +
                            static_cast<std::size_t>(lane)];
  }
  [[nodiscard]] const Msg& cell(std::size_t g, vid_t col,
                                std::uint32_t row) const noexcept {
    return const_cast<Csb*>(this)->cell(g, col, row);
  }

  [[nodiscard]] std::uint32_t columns_used(std::size_t g) const noexcept {
    if (mode_ == ColumnMode::kDynamic) return col_offset_[g];
    std::uint32_t used = 0;
    const std::size_t col0 = g * group_width();
    for (vid_t c = 0; c < cols_in_group(g); ++c)
      if (counts_[col0 + c] > 0) ++used;
    return used;
  }

 private:
  void build(std::span<const vid_t> in_degrees) {
    // 1. Sort vertex ids by in-degree descending, ties by id ascending: a
    //    counting sort whose placement pass visits ids in ascending order, so
    //    each degree's bucket fills in id order. Its top + 2 counters (top =
    //    the highest in-degree) take no more room than the top + 1 rows step
    //    3 allocates for that vertex's group.
    vid_t top = 0;
    for (const vid_t d : in_degrees) top = std::max(top, d);
    // next[top - d]: the next free sorted position of degree d.
    std::vector<vid_t> next(static_cast<std::size_t>(top) + 2, 0);
    for (const vid_t d : in_degrees) ++next[top - d + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    sorted_ids_.resize(num_vertices_);
    redirection_.resize(num_vertices_);
    for (vid_t v = 0; v < num_vertices_; ++v) {
      const vid_t pos = next[top - in_degrees[v]]++;
      sorted_ids_[pos] = v;
      redirection_[v] = pos;
    }

    // 2./3. Vertex groups and their vector arrays.
    const vid_t width = group_width();
    const std::size_t groups =
        (static_cast<std::size_t>(num_vertices_) + width - 1) / width;
    group_cap_rows_.resize(groups);
    group_base_.resize(groups);
    std::size_t total = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      // Sorted descending, so the group's max in-degree is its first member's.
      const vid_t first = static_cast<vid_t>(g) * width;
      const vid_t max_deg = in_degrees[sorted_ids_[first]];
      // +1 headroom: a combined remote message may arrive on top of local
      // ones only when some in-edges are remote, but the combined message
      // replaces those edges' individual messages, so max_deg+1 is a safe
      // upper bound in all cases.
      group_cap_rows_[g] = max_deg == 0 ? 0 : max_deg + 1;
      group_base_[g] = total;
      total += static_cast<std::size_t>(group_cap_rows_[g]) * width;
    }
    storage_ = make_aligned_for_overwrite<Msg>(total);
    storage_slots_ = total;

    const std::size_t ncols = groups * width;
    counts_.assign(ncols, 0);
    index_array_ = std::make_unique<sync::Atomic<std::int32_t>[]>(ncols);
    for (std::size_t i = 0; i < ncols; ++i)
      index_array_[i].store(-1, sync::relaxed);
    col_to_slot_.assign(ncols, -1);
    col_offset_.assign(groups, 0);
    group_locks_ = std::make_unique<sched::SpinLock[]>(groups);
    column_locks_ = std::make_unique<sched::SpinLock[]>(ncols);
    group_dirty_ = std::make_unique<sync::Atomic<std::uint8_t>[]>(groups);
    for (std::size_t g = 0; g < groups; ++g)
      group_dirty_[g].store(0, sync::relaxed);
    dirty_groups_.assign(groups, 0);

#if PG_AUDIT_ENABLED
    col_owner_ = std::make_unique<sync::Atomic<std::int32_t>[]>(ncols);
    for (std::size_t i = 0; i < ncols; ++i)
      col_owner_[i].store(-1, sync::relaxed);
    audit_validate_redirection(in_degrees);
#endif
  }

#if PG_AUDIT_ENABLED
  /// One-shot post-build check: the redirection map must be a bijection onto
  /// sorted positions, its inverse must agree with sorted_ids_, and the
  /// sorted order must be non-increasing by in-degree (the property group
  /// capacity sizing depends on).
  void audit_validate_redirection(std::span<const vid_t> in_degrees) const {
    std::vector<std::uint8_t> seen(num_vertices_, 0);
    for (vid_t v = 0; v < num_vertices_; ++v) {
      const vid_t pos = redirection_[v];
      PG_AUDIT_FMT(pos < num_vertices_, "csb-redirection-bijection",
                   "vertex %u redirects to position %u, outside [0, %u)", v,
                   pos, num_vertices_);
      PG_AUDIT_FMT(!seen[pos], "csb-redirection-bijection",
                   "position %u is the image of two vertices (second: %u)",
                   pos, v);
      seen[pos] = 1;
      PG_AUDIT_FMT(sorted_ids_[pos] == v, "csb-redirection-bijection",
                   "redirection/sorted_ids mismatch: vertex %u -> position "
                   "%u, but sorted_ids[%u] = %u",
                   v, pos, pos, sorted_ids_[pos]);
    }
    for (vid_t pos = 1; pos < num_vertices_; ++pos)
      PG_AUDIT_FMT(in_degrees[sorted_ids_[pos - 1]] >=
                       in_degrees[sorted_ids_[pos]],
                   "csb-degree-order",
                   "sorted positions %u,%u are out of degree order (%u < %u)",
                   pos - 1, pos, in_degrees[sorted_ids_[pos - 1]],
                   in_degrees[sorted_ids_[pos]]);
  }

  /// Column-ownership tracking (§IV-C): the first insert_owned() of the
  /// superstep claims the column for the calling thread; a second mover
  /// touching it aborts with both thread ids and the (group, column)
  /// coordinates. reset_group() releases claims for the next superstep.
  void claim_column(std::size_t g, vid_t col, std::size_t gcol, vid_t dst) {
    const auto me = static_cast<std::int32_t>(audit::thread_id());
    std::int32_t owner = -1;
    if (col_owner_[gcol].compare_exchange_strong(owner, me, sync::acq_rel))
      return;
    if (owner != me)
      audit::fail("csb-column-ownership", __FILE__, __LINE__,
                  "column %u of group %zu (destination vertex %u) moved by "
                  "thread %d after being owned by thread %d this superstep",
                  col, g, dst, static_cast<int>(me), static_cast<int>(owner));
  }
#endif

  /// Record group g in the dirty list on its first message of the superstep.
  /// The relaxed fast path adds one load per insertion; the exchange makes
  /// each group register exactly once. Readers only look at the list after a
  /// phase barrier, so relaxed ordering on the slot stores suffices.
  void mark_dirty(std::size_t g) noexcept {
    if (group_dirty_[g].load(sync::relaxed)) return;
    if (group_dirty_[g].exchange(1, sync::relaxed) == 0)
      dirty_groups_[dirty_count_.fetch_add(1, sync::acq_rel)] = g;
  }

  /// Columns that exist in group g (the last group may be ragged).
  [[nodiscard]] vid_t cols_in_group(std::size_t g) const noexcept {
    const vid_t width = group_width();
    const vid_t first = static_cast<vid_t>(g) * width;
    return std::min<vid_t>(width, num_vertices_ - first);
  }

  /// Map a slot (position within group) to its column, allocating on first
  /// touch in dynamic mode. Locked = take the group lock for allocation
  /// (always needed: multiple inserters may race in locking mode; movers
  /// race with other movers across destination classes in the same group).
  template <bool Locked>
  vid_t locate_column(std::size_t g, vid_t slot, InsertStats& stats) {
    if (mode_ == ColumnMode::kOneToOne) return slot;
    const std::size_t gslot = g * group_width() + slot;
    // HB edge "csb-column-publish" (acquire side): pairs with the release
    // store below, ordering the fast-path reader after the allocating
    // critical section it observed the column index from.
    std::int32_t col = index_array_[gslot].load(sync::acquire);
    if (col >= 0) return static_cast<vid_t>(col);
    group_locks_[g].lock();
    ++stats.lock_acquisitions;
    // Double-checked: another thread may have allocated while we waited.
    // Relaxed suffices — the group lock's own acquire already orders us
    // after the allocating critical section.
    col = index_array_[gslot].load(sync::relaxed);
    if (col < 0) {
      col = static_cast<std::int32_t>(col_offset_[g]++);
      // HB edge "csb-column-publish" (release side): publishes the column
      // allocation to lock-free fast-path readers (lock holders are already
      // ordered by the group lock). col_to_slot_ is filled in below and only
      // consumed after a phase barrier, so it needs no ordering here.
      index_array_[gslot].store(col, sync::release);
      col_to_slot_[g * group_width() + static_cast<std::size_t>(col)] =
          static_cast<std::int32_t>(slot);
      ++stats.columns_allocated;
    }
    group_locks_[g].unlock();
    (void)sizeof(Locked);  // same path for both schemes; kept for symmetry
    return static_cast<vid_t>(col);
  }

  void store(std::size_t g, vid_t col, std::uint32_t row, const Msg& m) noexcept {
    PG_DCHECK_FMT(row < group_cap_rows_[g],
                  "Csb::store: row %u exceeds the %u rows allocated for "
                  "group %zu (column %u received more messages than its "
                  "in-degree allows)",
                  row, group_cap_rows_[g], g, col);
    cell(g, col, row) = m;
  }

  int lanes_;
  int k_;
  ColumnMode mode_;
  vid_t num_vertices_;

  std::vector<vid_t> sorted_ids_;   // position -> vertex
  std::vector<vid_t> redirection_;  // vertex -> position

  std::vector<vid_t> group_cap_rows_;   // rows allocated per group (max deg + 1)
  std::vector<std::size_t> group_base_; // group -> offset into storage_

  aligned_array<Msg> storage_;  // uninitialized; see the file comment
  std::size_t storage_slots_ = 0;

  // Per-column state (group-major, group_width() entries per group).
  std::vector<std::uint32_t> counts_;
  // slot -> column (-1 = unassigned); atomic because the fast path reads it
  // without the group lock.
  std::unique_ptr<sync::Atomic<std::int32_t>[]> index_array_;
  std::vector<std::int32_t> col_to_slot_;  // column -> slot (-1 = unoccupied)
  std::vector<std::uint32_t> col_offset_;  // per group: next free column

  std::unique_ptr<sched::SpinLock[]> group_locks_;
  std::unique_ptr<sched::SpinLock[]> column_locks_;

  // Dirty-group tracking: per-group flag + compact list of groups touched
  // since the last clear_dirty(), so per-superstep work is proportional to
  // the groups that actually received messages.
  std::unique_ptr<sync::Atomic<std::uint8_t>[]> group_dirty_;
  std::vector<std::size_t> dirty_groups_;  // first dirty_count_ entries valid
  // On its own cache line: any thread that dirties a group bumps this
  // counter, and every insert reads group_dirty_ on its fast path, so the
  // two must never share a line, whatever the enclosing engine's layout.
  alignas(64) sync::Atomic<std::size_t> dirty_count_{0};

#if PG_AUDIT_ENABLED
  // Checked build only: per-column mover thread id (-1 = unclaimed), reset
  // with the group each superstep.
  std::unique_ptr<sync::Atomic<std::int32_t>[]> col_owner_;
#endif
};

}  // namespace phigraph::buffer
