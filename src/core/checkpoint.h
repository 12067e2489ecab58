// Checkpoint/restore of the column-generation solver state.
//
// The most expensive artifact of one P1 solve is the pool of feasible
// schedules built by pricing; it stays valid (or cheaply repairable) across
// demand changes and partial topology perturbations.  CgCheckpoint captures
// that pool plus the surrounding solver state — instance fingerprint,
// per-column durations, duals, LB/UB, iteration counters, the pool
// manager's lifecycle metadata and neighbour index, and an optional
// stream-session cursor — in a versioned, checksummed, human-readable text
// format so a scheduling service can survive process death and re-enter CG
// warm instead of cold.
//
// Robustness contract (enforced by tests/core/checkpoint_test.cpp, the
// checkpoint fuzz harness, and the fault-injection sites in
// common/fault_injection.h):
//   * save_checkpoint writes atomically (temp file + rename): a crash
//     mid-write can lose the new checkpoint, never corrupt the old one;
//   * parse_checkpoint is strict: any corruption — truncation, bit flip
//     (caught by the FNV-1a payload checksum), version skew, out-of-range
//     field — returns a structured common::Status, never crashes and never
//     yields a partially-parsed checkpoint;
//   * only kCheckpointVersion is read: a file of any other version is
//     refused as version skew, which every caller treats as a cold start;
//   * fingerprint mismatches are detectable by the caller, so a checkpoint
//     can never be silently replayed against the wrong instance;
//   * the pool-metadata, pool-index and session sections are advisory: a
//     structurally sound file whose values there are out of range degrades
//     that section alone (columns kept, scores/index/cursor reset) instead
//     of rejecting the checkpoint — lifecycle hints must never cost the
//     warm-start capital they score.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mmwave/network.h"
#include "sched/schedule.h"
#include "video/demand.h"

namespace mmwave::core {

struct CgResult;  // column_generation.h

/// The on-disk format version this build writes and the only one it reads.
/// Older files (v1: no pool-metadata section; v2: no pool-index/session
/// sections; v3: no client-buffer line in the session cursor) are refused
/// as version skew and cold-start.
inline constexpr int kCheckpointVersion = 4;

/// Per-column lifecycle metadata (core::PoolManager's scoring state).  The
/// default-constructed value is the "cold metadata" a checkpoint whose
/// metadata records were semantically bad loads with.
struct PoolColumnMeta {
  /// Instance fingerprint the column last served under.
  std::uint64_t fingerprint = 0;
  /// Manager epoch (store() counter) at the column's last master admission
  /// with tau > 0; its recency for eviction scoring.
  std::int64_t last_used_epoch = 0;
  /// Reduced cost last observed for the column under its master's final
  /// duals (>= -eps at optimality; lower = more competitive).
  double last_reduced_cost = 0.0;
  /// tau > 0 in the most recent master solution: never evicted.
  bool in_basis = false;
};

/// One entry of the multi-instance neighbour index (core::PoolManager's
/// `instances_`), persisted so a restarted session
/// recovers nearest-neighbour seeding, not just one instance's pool.
struct PoolIndexEntry {
  std::uint64_t fingerprint = 0;
  int links = 0;
  int channels = 0;
  /// Manager epoch of the instance's most recent store().
  std::int64_t last_epoch = 0;
  /// The signature feature vector (gains/ladder/demands) the neighbour
  /// distance is computed over; empty = identity-only (no similarity).
  std::vector<double> features;
};

/// Per-GOP scoring record of a completed streaming period (mirrors
/// stream::GopRecord; lives here because core cannot depend on stream).
struct StreamGopRecord {
  int gop = 0;
  double demand_bits = 0.0;
  double schedule_slots = 0.0;
  double budget_slots = 0.0;
  bool on_time = false;
  double stall_slots = 0.0;
};

/// Per-link client playout-buffer state persisted in the session cursor
/// (mirrors stream::ClientBuffer; lives here because core cannot depend on
/// stream).  Occupancy/stall are seconds of video; the layer counters are
/// GOPs whose HP/LP layer was delivered in full.
struct StreamBufferState {
  double occupancy_seconds = 0.0;
  double stall_seconds = 0.0;
  int rebuffer_events = 0;
  /// bit0 = playing, bit1 = started.  Playing implies started, so the
  /// value 1 is semantically invalid (parse degrades, resume rejects).
  int flags = 0;
  int hp_gops_delivered = 0;
  int lp_gops_delivered = 0;
};

/// Cumulative stream::SolverContext counters at the cursor position, so a
/// resumed session's final pool-reuse metrics equal the uninterrupted run's.
struct StreamSolverCounters {
  int periods = 0;
  int resolves = 0;
  int pool_hits = 0;
  int pool_misses = 0;
  int columns_loaded = 0;
  int columns_reused = 0;
  int columns_repaired = 0;
  int columns_dropped = 0;
  int transmissions_dropped = 0;
  std::int64_t pool_evicted = 0;
  std::int64_t pool_neighbour_seeded = 0;
};

/// The stream-session cursor persisted in the session section: everything
/// `stream::run_blockage_session` needs to continue mid-session after a
/// crash.  Demands and blockage states are regenerated deterministically
/// from the session seed; the cursor pins where in those streams the
/// session was, plus the cumulative scores that cannot be replayed without
/// re-solving.
struct StreamCursor {
  /// First GOP period the resumed session still has to run; == num_gops
  /// when the session finished.  Always >= 1 in a valid cursor (a session
  /// with nothing completed saves no cursor).
  int next_gop = 0;
  int num_gops = 0;
  /// Hash of the session-defining inputs (instance flags, blockage config,
  /// horizon, seed); a resume against a different session is rejected.
  std::uint64_t session_fingerprint = 0;
  double carryover_stall = 0.0;
  double blocked_fraction_sum = 0.0;
  int invalidated_periods = 0;
  int exec_transmissions_dropped = 0;
  /// Rolling FNV digest over every solved period's timeline (the chaos-soak
  /// equality witness).
  std::uint64_t plan_digest = 0;
  /// Per-link bits delivered so far; size == links.
  std::vector<double> delivered_bits;
  /// Blockage state (0/1 per link) observed at period next_gop - 1: the
  /// resume replays the Markov chain and must land on exactly these bits,
  /// otherwise the cursor is stale and gets rejected.
  std::vector<int> blocked;
  /// Client playout-buffer state at the cursor position.  Either one entry
  /// per link or empty — empty means "no buffer state" (a producer without
  /// the buffer model): the resumed session starts its buffers cold.
  std::vector<StreamBufferState> buffers;
  StreamSolverCounters counters;
  /// Scoring records of the completed periods, in order (size next_gop).
  std::vector<StreamGopRecord> gops;
};

struct CgCheckpoint {
  /// FNV-1a fingerprint of the instance the state was computed on
  /// (dimensions, parameters, rate ladder, all gains/noises, demands).
  std::uint64_t fingerprint = 0;
  int links = 0;
  int channels = 0;
  /// CG iterations the checkpointed solve ran.
  int iterations = 0;
  bool converged = false;
  /// Incumbent MP objective (upper bound on the P1 optimum), slots.
  double total_slots = 0.0;
  /// Best Theorem-1 lower bound (NaN when none was certified).
  double lower_bound = 0.0;
  /// Final simplex multipliers per link (slots/bit); size == links.
  std::vector<double> duals_hp;
  std::vector<double> duals_lp;
  /// The column pool, in master order, with per-column rates/powers/channels
  /// embedded in each schedule's transmissions.
  std::vector<sched::Schedule> pool;
  /// Incumbent durations tau^s aligned with `pool` (0 outside the plan).
  std::vector<double> pool_tau;
  /// Lifecycle metadata aligned with `pool`.  Empty = cold metadata: the
  /// section was empty, or its records were semantically out of range (see
  /// pool_meta_degraded).
  std::vector<PoolColumnMeta> pool_meta;
  /// True when the pool-metadata section had to be discarded (out-of-range record, or the injected
  /// faults::kCheckpointBadPoolRecord): the columns are still warm capital,
  /// only their scores restarted cold.
  bool pool_meta_degraded = false;

  /// Compaction counter of the delta log this base belongs to; delta blocks
  /// bind to it so a stale .delta chain can never replay onto a newer base.
  std::int64_t base_seq = 0;
  /// PoolManager store() epoch at save time, restored on import so recency
  /// scoring continues instead of restarting at zero.
  std::int64_t pool_epoch = 0;
  /// The multi-instance neighbour index.  Empty when the section was empty
  /// or semantically damaged (pool_index_degraded).
  std::vector<PoolIndexEntry> pool_index;
  /// True when the pool-index section had to be discarded (out-of-range
  /// record, or the injected faults::kCheckpointBadIndexRecord): the pool
  /// is intact, only the neighbour index restarts empty.
  bool pool_index_degraded = false;
  /// True when `session` holds a usable stream cursor.
  bool has_session = false;
  /// The stream-session cursor (meaningful only when has_session).
  StreamCursor session;
  /// True when the session section had to be discarded (out-of-range
  /// cursor, or the injected faults::kSessionCursorCorrupt): the solver
  /// pool is intact, only the stream session restarts cold.
  bool session_degraded = false;
};

/// 64-bit FNV-1a over a byte string (the checkpoint payload checksum and
/// the fleet queue-manifest seal).  The offset basis is 1469598103934665603,
/// not the textbook 14695981039346656037: files written by earlier builds
/// carry checksums under this basis, so it is part of the format.
std::uint64_t fnv1a64(std::string_view bytes);

/// "0x" + 16 lowercase hex digits: how checkpoints, delta blocks and the
/// fleet queue manifest print 64-bit values.
std::string hex64(std::uint64_t value);

/// Durable whole-file write: `bytes` go to `path + ".tmp"` (fwrite, fflush,
/// fclose), which is then renamed over `path`.  kIoError on any failure,
/// after which the temp file is removed and `path` is untouched.
[[nodiscard]] common::Status write_file_atomic(const std::string& path,
                                               std::string_view bytes);

/// Order-sensitive fingerprint of a problem instance: network dimensions
/// and parameters, the rate ladder, every direct/cross gain, per-link noise
/// and topology, and the demand vector.  Two instances with any differing
/// bit in those inputs fingerprint differently (up to hash collision).
std::uint64_t instance_fingerprint(
    const net::Network& net, const std::vector<video::LinkDemand>& demands);

/// Scores a finished solve's pool for lifecycle management: reduced cost of
/// every pool column under the result's final duals, basis membership from
/// pool_tau, recency = `epoch`.  make_checkpoint records it at epoch 0
/// ("age unknown"); core::PoolManager::store() at its live epoch.
std::vector<PoolColumnMeta> score_pool(const net::Network& net,
                                       const CgResult& result,
                                       std::uint64_t fingerprint,
                                       std::int64_t epoch);

/// Snapshot of a finished (or degraded) solve, ready to save.
CgCheckpoint make_checkpoint(const net::Network& net,
                             const std::vector<video::LinkDemand>& demands,
                             const CgResult& result);

/// Serializes to the versioned, checksummed text format.
std::string serialize_checkpoint(const CgCheckpoint& checkpoint);

/// Strict parser: the exact inverse of serialize_checkpoint.  Returns
/// kInvalidInput with a one-line diagnosis on ANY deviation — wrong magic,
/// version skew, checksum mismatch, truncation, out-of-range or
/// non-numeric fields, trailing garbage.  Never throws on any byte
/// sequence (fuzzed contract).
[[nodiscard]] common::Expected<CgCheckpoint> parse_checkpoint(
    std::string_view text);

/// Serializes and writes through write_file_atomic (fsync-free).
/// Returns kIoError on any filesystem failure (the fault site
/// faults::kCheckpointWriteFail scripts one); a failed save never leaves a
/// half-written file at `path`.
[[nodiscard]] common::Status save_checkpoint(const CgCheckpoint& checkpoint,
                               const std::string& path);

/// Reads and strictly parses `path`.  kIoError when unreadable; otherwise
/// parse_checkpoint's verdict.  The fault site faults::kCheckpointCorrupt
/// flips a payload byte after the read to prove the checksum catches it.
[[nodiscard]] common::Expected<CgCheckpoint> load_checkpoint(
    const std::string& path);

}  // namespace mmwave::core
