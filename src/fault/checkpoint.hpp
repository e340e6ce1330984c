// Superstep checkpointing — CRC32-validated snapshots of one device's BSP
// state (vertex values + active flags + resume superstep), taken at superstep
// boundaries where no messages are in flight.
//
// A CheckpointStore keeps the last two frames (current + previous) either in
// memory or file-backed. Reads always re-validate the CRC: a corrupted frame
// is rejected and the reader falls back to the previous frame (or superstep
// 0) rather than loading garbage. Every rank of a cluster checkpoints at the
// same superstep numbers (same interval), so recovery resumes from the newest
// superstep that validates in every rank's store.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/expect.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_safety.hpp"
#include "src/fault/fault_injection.hpp"
#include "src/metrics/trace.hpp"

namespace phigraph::fault {

/// Checkpointing knobs (part of core::EngineConfig). interval == 0 disables
/// checkpointing entirely — the engine then carries no checkpoint state.
struct CheckpointConfig {
  /// Snapshot after every `interval` completed supersteps (k in the docs):
  /// frames land at resume supersteps k, 2k, 3k, ... 0 = off.
  int interval = 0;
  /// false: frames live in memory. true: frames are serialized to `dir`.
  bool file_backed = false;
  std::string dir;

  [[nodiscard]] bool enabled() const noexcept { return interval > 0; }
};

/// Plain table-based CRC-32 (IEEE 802.3 polynomial, zlib-compatible). Small
/// and dependency-free; checkpoint frames are written once per k supersteps,
/// so throughput is irrelevant next to integrity.
class Crc32 {
 public:
  void update(const void* data, std::size_t bytes) noexcept {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t c = state_;
    for (std::size_t i = 0; i < bytes; ++i)
      c = table()[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    state_ = c;
  }

  [[nodiscard]] std::uint32_t value() const noexcept { return ~state_; }

  static std::uint32_t of(const void* data, std::size_t bytes) noexcept {
    Crc32 crc;
    crc.update(data, bytes);
    return crc.value();
  }

 private:
  static const std::array<std::uint32_t, 256>& table() noexcept {
    static const std::array<std::uint32_t, 256> t = [] {
      std::array<std::uint32_t, 256> out{};
      for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
          c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        out[i] = c;
      }
      return out;
    }();
    return t;
  }

  std::uint32_t state_ = 0xffffffffu;
};

/// One snapshot. `values` holds the device's vertex values as raw bytes
/// (vertex value types are trivially copyable); `active` is the per-vertex
/// active flags, from which a restore rebuilds the frontier; `superstep` is
/// the superstep execution resumes at.
struct CheckpointFrame {
  int superstep = 0;
  std::vector<std::uint8_t> values;
  std::vector<std::uint8_t> active;
  std::uint32_t crc = 0;

  [[nodiscard]] std::uint32_t compute_crc() const noexcept {
    Crc32 c;
    const std::uint64_t header[3] = {static_cast<std::uint64_t>(superstep),
                                     values.size(), active.size()};
    c.update(header, sizeof header);
    c.update(values.data(), values.size());
    c.update(active.data(), active.size());
    return c.value();
  }

  /// Stamp the CRC after filling the payload.
  void seal() noexcept { crc = compute_crc(); }

  [[nodiscard]] bool valid() const noexcept { return crc == compute_crc(); }
};

/// Holds the last two frames for one rank. write() alternates between two
/// slots so a failure *while writing* (torn file, fault injection) never
/// destroys the previous good frame.
///
/// Concurrency: one writer (the orchestrator, at superstep boundaries);
/// readers are quiescent in steady state but the failover boundary can
/// overlap a reader with the writer's last frame. In-memory slots therefore
/// use a seqlock-style publication word per slot — pub_[slot] holds
/// superstep+1 once the frame is fully assigned, 0 while it is being
/// (re)written — so a reader either sees a completely published frame or
/// skips the slot; supersteps are strictly monotonic, so a pub_ word never
/// repeats a value (no ABA). The model build drives a concurrent
/// writer/reader pair through this protocol and the race detector verifies
/// the publish/validate edges; file bookkeeping and the slot cursor are
/// guarded by mu_ (annotated for -Wthread-safety).
class CheckpointStore {
 public:
  CheckpointStore(CheckpointConfig cfg, int rank)
      : cfg_(std::move(cfg)), rank_(rank) {
    if (cfg_.file_backed)
      PG_CHECK_MSG(!cfg_.dir.empty(),
                   "file-backed checkpointing requires CheckpointConfig::dir");
  }

  [[nodiscard]] const CheckpointConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] int rank() const noexcept { return rank_; }

  /// Persist a sealed frame into the next slot. File-backed stores serialize
  /// to `<dir>/phigraph_ckpt_rank<R>_slot<K>.bin`; a write failure throws so
  /// the engine's fault path treats it like any other device fault.
  void write(const CheckpointFrame& frame) {
    // superstep -1: the engine's own kCheckpoint span (superstep-tagged)
    // already carries the phase time; this one isolates the store I/O.
    PG_TRACE_SCOPE(kCheckpoint, -1, rank_);
    const int slot = [&] {
      sync::LockGuard g(mu_);
      return next_slot_;
    }();
    if (cfg_.file_backed) {
      write_file(slot_path(slot), frame);
      sync::LockGuard g(mu_);
      file_superstep_[slot] = frame.superstep;
      file_present_[slot] = true;
      next_slot_ = 1 - slot;  // advance only after a successful write
    } else {
      auto& pub = pub_[static_cast<std::size_t>(slot)];
      // Invalidate before touching the payload: a concurrent reader that
      // loads 0 (or mismatched values around its copy) discards the copy.
      pub.store(0, sync::relaxed);
      sync::plain_write(&mem_[static_cast<std::size_t>(slot)],
                        "checkpoint frame slot");
      mem_[static_cast<std::size_t>(slot)] = frame;
      // HB edge "checkpoint-frame-publish": pairs with the reader's two
      // acquire loads (ckpt.read.acquire); the release orders the whole
      // frame assignment before the publication word readers validate.
      pub.store(static_cast<std::uint64_t>(frame.superstep) + 1,
                PG_SYNC_ORDER("ckpt.publish", sync::release));
      sync::LockGuard g(mu_);
      next_slot_ = 1 - slot;
    }
  }

  /// Supersteps of all stored frames whose CRC still validates, newest
  /// first. Corrupted frames are skipped (the fallback contract).
  [[nodiscard]] std::vector<int> valid_supersteps() const {
    std::vector<int> out;
    for (int slot = 0; slot < 2; ++slot) {
      auto f = read_slot(slot);
      if (f && f->valid()) out.push_back(f->superstep);
    }
    if (out.size() == 2 && out[0] < out[1]) std::swap(out[0], out[1]);
    return out;
  }

  /// The frame checkpointed at exactly `superstep`, if present and valid.
  [[nodiscard]] std::optional<CheckpointFrame> frame_at(int superstep) const {
    for (int slot = 0; slot < 2; ++slot) {
      auto f = read_slot(slot);
      if (f && f->superstep == superstep && f->valid()) return f;
    }
    return std::nullopt;
  }

  /// Newest frame that validates; corrupted latest frame falls back to the
  /// previous one.
  ///
  /// The in-memory path orders the two slot reads by *freshly loaded*
  /// publication words instead of scanning slot 0 then slot 1. The naive scan
  /// is not monotonic for a concurrent reader: it can copy slot 0's old frame,
  /// lose the CPU while the writer publishes two newer frames and starts
  /// overwriting slot 1, then find slot 1 mid-write and return the stale copy
  /// — an interleaving the model checker found (ModelCheckpoint). Reading the
  /// publication words first and trying the newest slot closes that window:
  /// if the newest slot's seqlock read fails, the writer is already
  /// overwriting it, which means the *other* slot holds an even newer frame.
  [[nodiscard]] std::optional<CheckpointFrame> latest_valid() const {
    if (cfg_.file_backed) {
      std::optional<CheckpointFrame> best;
      for (int slot = 0; slot < 2; ++slot) {
        auto f = read_slot(slot);
        if (f && f->valid() && (!best || f->superstep > best->superstep))
          best = std::move(f);
      }
      return best;
    }
    for (int attempt = 0; attempt < kMaxSeqlockRetries; ++attempt) {
      const std::uint64_t p0 = pub_[0].load(sync::acquire);
      const std::uint64_t p1 = pub_[1].load(sync::acquire);
      if (p0 == 0 && p1 == 0) return std::nullopt;  // empty store
      const int newest = p1 > p0 ? 1 : 0;
      for (int k = 0; k < 2; ++k) {
        auto f = read_slot(k == 0 ? newest : 1 - newest);
        if (f && f->valid()) return f;
      }
      // Both reads torn or invalidated mid-scan: the writer is ahead of us;
      // re-snapshot the publication words and try again.
    }
    return std::nullopt;
  }

  [[nodiscard]] std::string slot_path(int slot) const {
    return cfg_.dir + "/phigraph_ckpt_rank" + std::to_string(rank_) + "_slot" +
           std::to_string(slot) + ".bin";
  }

 private:
  static constexpr std::uint32_t kMagic = 0x5047434bu;  // "PGCK"

  [[nodiscard]] std::optional<CheckpointFrame> read_slot(int slot) const {
    if (cfg_.file_backed) {
      {
        sync::LockGuard g(mu_);
        if (!file_present_[slot]) return std::nullopt;
      }
      return read_file(slot_path(slot));
    }
    // Seqlock read: copy the frame between two acquire loads of the
    // publication word; equal non-zero values bracket a stable frame.
    const auto& pub = pub_[static_cast<std::size_t>(slot)];
    for (int attempt = 0; attempt < kMaxSeqlockRetries; ++attempt) {
      // HB edge "checkpoint-frame-publish" (reader side): pairs with the
      // writer's pub_ release store (ckpt.publish); a validated read saw
      // every byte of the frame the writer published.
      const std::uint64_t s1 =
          pub.load(PG_SYNC_ORDER("ckpt.read.acquire", sync::acquire));
      if (s1 == 0) return std::nullopt;  // empty or mid-write
      std::optional<CheckpointFrame> copy = mem_[static_cast<std::size_t>(slot)];
      const std::uint64_t s2 =
          pub.load(PG_SYNC_ORDER("ckpt.read.acquire", sync::acquire));
      if (s1 == s2) {
        // Only a *validated* copy counts as a read for the race detector;
        // an invalidated copy is discarded, so the writer overwriting it is
        // the protocol working, not a race.
        sync::plain_read_published(&mem_[static_cast<std::size_t>(slot)],
                                   "checkpoint frame slot");
        return copy;
      }
    }
    return std::nullopt;  // writer kept racing us; treat as not-yet-present
  }

  /// Crash-consistent slot write: serialize into `<path>.tmp`, fsync it, and
  /// only then rename over the slot file. rename(2) is atomic on POSIX, so a
  /// crash (or an injected checkpoint.rename fault) at any point leaves the
  /// slot file either wholly old or wholly new — a torn write can damage at
  /// most the temp file, never a published slot, and the *other* slot is
  /// untouched throughout.
  void write_file(const std::string& path, const CheckpointFrame& f) const {
    const std::string tmp = path + ".tmp";
    std::FILE* fp = std::fopen(tmp.c_str(), "wb");
    PG_CHECK_FMT(fp != nullptr, "cannot open checkpoint file %s for writing",
                 tmp.c_str());
    bool ok = true;
    auto put = [&](const void* p, std::size_t bytes) {
      ok = ok && std::fwrite(p, 1, bytes, fp) == bytes;
    };
    const std::uint32_t magic = kMagic;
    const std::uint64_t header[3] = {static_cast<std::uint64_t>(f.superstep),
                                     f.values.size(), f.active.size()};
    put(&magic, sizeof magic);
    put(header, sizeof header);
    put(f.values.data(), f.values.size());
    put(f.active.data(), f.active.size());
    put(&f.crc, sizeof f.crc);
    // Flush userspace buffers and force the bytes to stable storage before
    // the rename: otherwise the rename could land while the data is still
    // only in the page cache, and a power loss would publish a torn frame.
    ok = ok && std::fflush(fp) == 0;
    ok = ok && ::fsync(::fileno(fp)) == 0;
    ok = std::fclose(fp) == 0 && ok;
    if (!ok) std::remove(tmp.c_str());
    PG_CHECK_FMT(ok, "write failure on checkpoint file %s", tmp.c_str());
    try {
      PG_FAULT_POINT(kCheckpointRename, rank_, f.superstep);
    } catch (...) {
      std::remove(tmp.c_str());  // a "crashed" write leaves no debris behind
      throw;
    }
    const bool renamed = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!renamed) std::remove(tmp.c_str());
    PG_CHECK_FMT(renamed, "cannot publish checkpoint file %s", path.c_str());
  }

  /// Returns nullopt on any structural damage (missing file, bad magic,
  /// truncation, implausible sizes); CRC mismatches are surfaced through
  /// CheckpointFrame::valid() by the callers above.
  [[nodiscard]] static std::optional<CheckpointFrame> read_file(
      const std::string& path) {
    std::FILE* fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) return std::nullopt;
    bool ok = true;
    auto get = [&](void* p, std::size_t bytes) {
      ok = ok && std::fread(p, 1, bytes, fp) == bytes;
    };
    std::uint32_t magic = 0;
    std::uint64_t header[3] = {0, 0, 0};
    get(&magic, sizeof magic);
    get(header, sizeof header);
    CheckpointFrame f;
    constexpr std::uint64_t kSane = 1ull << 40;  // reject absurd lengths
    if (!ok || magic != kMagic || header[1] > kSane || header[2] > kSane) {
      std::fclose(fp);
      return std::nullopt;
    }
    f.superstep = static_cast<int>(header[0]);
    f.values.resize(static_cast<std::size_t>(header[1]));
    f.active.resize(static_cast<std::size_t>(header[2]));
    get(f.values.data(), f.values.size());
    get(f.active.data(), f.active.size());
    get(&f.crc, sizeof f.crc);
    std::fclose(fp);
    if (!ok) return std::nullopt;
    return f;
  }

  static constexpr int kMaxSeqlockRetries = 64;

  CheckpointConfig cfg_;
  int rank_;
  mutable sync::Mutex mu_;
  int next_slot_ PG_GUARDED_BY(mu_) = 0;
  // In-memory slots: mem_ is published through pub_ (superstep+1 when slot
  // holds a complete frame, 0 while empty or being rewritten), not by mu_.
  std::array<std::optional<CheckpointFrame>, 2> mem_;
  std::array<sync::Atomic<std::uint64_t>, 2> pub_{};
  std::array<int, 2> file_superstep_ PG_GUARDED_BY(mu_) = {-1, -1};
  std::array<bool, 2> file_present_ PG_GUARDED_BY(mu_) = {false, false};
};

}  // namespace phigraph::fault
