// Delta-encoded checkpoint persistence: a base snapshot plus an append-only
// chain of delta blocks, compacted every `compact_every` delta saves.
//
// save_checkpoint rewrites the whole solver state on every call — O(pool)
// bytes per period even when one streaming period changed two columns and
// one gop record.  CheckpointLog makes the steady-state save O(changed
// columns): the base file at `path` holds a full checkpoint (the ordinary
// core/checkpoint.h format, loadable by anything that reads checkpoints),
// and `path + ".delta"` holds checksummed blocks that record column
// adds/drops/score changes, the refreshed duals/header, the pool-index and
// session sections, and the newly appended gop records.  Deltas carry no
// version of their own: they always extend a base of the current format.
//
// Contracts (enforced by tests/core/checkpoint_log_test.cpp, the fuzz
// corpus, and tools/chaos_soak):
//   * Replay equality: loading base + deltas yields a state whose
//     serialize_checkpoint output is byte-identical to a full rewrite of
//     the last saved state; after compact(), the base file itself is
//     byte-identical to serialize_checkpoint(state).
//   * Degradation ladder, never a crash: a torn or corrupt delta block
//     drops the chain tail (load keeps base + the valid prefix); an
//     unreadable base degrades to a cold start; a failed compaction leaves
//     the previous base + chain fully loadable and retries on the next
//     save.  Stale chains cannot misbind: blocks carry the base_seq of the
//     base they extend and are skipped when it does not match.
//   * Torn-write atomicity is block-level: the loader validates each
//     block's byte count and FNV-1a checksum before applying any of it
//     (faults::kCheckpointDeltaTornWrite and
//     faults::kCheckpointCompactCrash script the two crash windows).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/checkpoint.h"

namespace mmwave::core {

struct CheckpointLogOptions {
  /// Delta saves between forced compactions.  0 compacts on every save
  /// (delta encoding disabled); the default keeps chains short enough that
  /// recovery replays are cheap while steady-state saves stay O(changes).
  int compact_every = 8;
  /// Also account the bytes a full rewrite WOULD have written on each save
  /// (stats().full_equiv_bytes) — the chaos-soak bench's savings baseline.
  bool track_full_equiv = false;
};

struct CheckpointLogStats {
  std::int64_t saves = 0;
  std::int64_t delta_saves = 0;
  std::int64_t full_saves = 0;
  std::int64_t compactions = 0;
  /// Bytes appended to the delta chain (block headers included).
  std::int64_t delta_bytes = 0;
  /// Bytes written as full base snapshots.
  std::int64_t full_bytes = 0;
  /// Bytes full rewrites would have cost (when track_full_equiv).
  std::int64_t full_equiv_bytes = 0;
};

/// Outcome of binding to on-disk state.  Every damage mode maps to a rung
/// of the degradation ladder rather than an error: the caller always gets
/// the best state the files support, possibly "nothing" (cold start).
struct CheckpointLogLoad {
  /// `state` holds a usable checkpoint (base existed and parsed).
  bool loaded = false;
  /// A base file existed but was unreadable/corrupt: cold start, and the
  /// next save() lays down a fresh base.
  bool base_damaged = false;
  /// The delta chain had a torn/corrupt/stale tail that was dropped;
  /// `state` reflects base + the longest valid prefix.
  bool tail_dropped = false;
  int deltas_applied = 0;
  /// Bytes of unusable chain tail discarded (0 when !tail_dropped).
  std::int64_t tail_bytes_dropped = 0;
  CgCheckpoint state;
};

/// Read-only recovery: load the base at `path`, replay the valid prefix of
/// `path + ".delta"`, best-effort truncate the chain to that prefix.  Never
/// fails on damaged files — damage shows up as the flags above.
[[nodiscard]] CheckpointLogLoad load_checkpoint_log(const std::string& path);

class CheckpointLog {
 public:
  explicit CheckpointLog(std::string path, CheckpointLogOptions options = {});

  /// Binds the writer to existing on-disk state (missing files = fresh
  /// log).  Must be called before save(); the returned state is what a
  /// recovering process resumes from.
  [[nodiscard]] CheckpointLogLoad open();

  /// Persists `ckpt`: a delta block against the last saved state when the
  /// change is expressible and the chain is healthy, otherwise a full
  /// compaction.  kIoError on write failure — after which the on-disk state
  /// still loads to the previous save, and the next save() self-heals by
  /// compacting.
  [[nodiscard]] common::Status save(const CgCheckpoint& ckpt);

  /// Forces a full base rewrite (atomic) and clears the delta chain.
  [[nodiscard]] common::Status compact(const CgCheckpoint& ckpt);

  const CheckpointLogStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }
  std::string delta_path() const { return path_ + ".delta"; }
  std::int64_t base_seq() const { return base_seq_; }

 private:
  [[nodiscard]] bool build_delta_payload(const CgCheckpoint& ckpt,
                                         std::string* payload) const;
  [[nodiscard]] common::Status append_block(const std::string& block);

  std::string path_;
  CheckpointLogOptions options_;
  /// The last state persisted (base + applied deltas): what the next delta
  /// is diffed against.
  CgCheckpoint shadow_;
  bool have_shadow_ = false;
  /// A torn append or failed compaction left the chain tail suspect: the
  /// next save must compact instead of appending.
  bool dirty_tail_ = false;
  std::int64_t base_seq_ = 0;
  std::int64_t next_delta_seq_ = 1;
  int deltas_since_compact_ = 0;
  CheckpointLogStats stats_;
};

}  // namespace mmwave::core
