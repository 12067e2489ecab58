#include "core/checkpoint_log.h"

#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/log.h"
#include "core/checkpoint_detail.h"

namespace mmwave::core {
namespace {

using detail::LineReader;
using detail::append_double;
using detail::expect_int;
using detail::expect_kv;
using detail::parse_double_token;
using detail::parse_error;
using detail::parse_hex64_token;
using detail::parse_int_token;
using detail::read_file;

/// Appends `bytes` to `path`, creating it if missing.  Returns false on any
/// short write — after which the file may hold a torn tail, which the
/// loader's per-block framing detects and drops.
[[nodiscard]] bool append_bytes(const std::string& path,
                                std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  return written == bytes.size() && flushed && closed;
}

/// Serializes one column's content (transmissions only, tau pinned to 0) —
/// the writer's exact-equality witness for "this pool slot is unchanged".
[[nodiscard]] std::string column_content_key(const sched::Schedule& col) {
  std::string out;
  detail::append_column(out, col, 0.0);
  return out;
}

/// Applies one delta payload to `state`, strictly: ANY deviation — wrong
/// key, out-of-range index, gop discontinuity — is an error, which the
/// chain loader turns into "drop the tail here".  A block never applies
/// partially: the caller hands in a scratch copy and commits on Ok.
[[nodiscard]] common::Status apply_delta(std::string_view payload,
                                         CgCheckpoint* state) {
  LineReader reader(payload, /*first_line=*/1);

  // ---- head: refreshed solve header --------------------------------------
  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "head");
    if (!tokens.ok()) return tokens.status();
    const auto& t = tokens.value();
    long long links = 0, channels = 0, iterations = 0, converged = 0;
    double total_slots = 0.0, lower_bound = 0.0;
    if (t.size() != 7 || !parse_hex64_token(t[0], &state->fingerprint) ||
        !parse_int_token(t[1], 1, detail::kMaxLinks, &links) ||
        !parse_int_token(t[2], 1, detail::kMaxChannels, &channels) ||
        !parse_int_token(t[3], 0, 1'000'000'000, &iterations) ||
        !parse_int_token(t[4], 0, 1, &converged) ||
        !parse_double_token(t[5], /*allow_nan=*/false, &total_slots) ||
        total_slots < 0.0 ||
        !parse_double_token(t[6], /*allow_nan=*/true, &lower_bound)) {
      return parse_error(line_no,
                         "head: expected '<fingerprint> <links> <channels> "
                         "<iterations> <converged> <total_slots> <lb>'");
    }
    if (links != state->links || channels != state->channels) {
      return parse_error(line_no, "head: instance dimensions do not match "
                                  "the base checkpoint");
    }
    state->iterations = static_cast<int>(iterations);
    state->converged = converged != 0;
    state->total_slots = total_slots;
    state->lower_bound = lower_bound;
  }
  {
    auto v = detail::parse_dual_vector(reader, "duals_hp", state->links);
    if (!v.ok()) return v.status();
    state->duals_hp = std::move(v.value());
  }
  {
    auto v = detail::parse_dual_vector(reader, "duals_lp", state->links);
    if (!v.ok()) return v.status();
    state->duals_lp = std::move(v.value());
  }

  // The delta records below address pool/tau/meta as one aligned triple;
  // realign advisory metadata defensively before indexing it.
  if (state->pool_tau.size() != state->pool.size())
    state->pool_tau.resize(state->pool.size(), 0.0);
  if (state->pool_meta.size() != state->pool.size())
    state->pool_meta.assign(state->pool.size(), PoolColumnMeta{});

  // ---- drops: evicted columns, indices descending ------------------------
  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "drops");
    if (!tokens.ok()) return tokens.status();
    const auto& t = tokens.value();
    long long n = 0;
    if (t.empty() || !parse_int_token(t[0], 0, detail::kMaxColumns, &n) ||
        static_cast<long long>(t.size()) != 1 + n) {
      return parse_error(line_no, "drops: expected '<n> <indices...>'");
    }
    long long prev = static_cast<long long>(state->pool.size());
    for (long long i = 0; i < n; ++i) {
      long long idx = 0;
      if (!parse_int_token(t[1 + i], 0, prev - 1, &idx)) {
        return parse_error(line_no,
                           "drops: indices must be strictly descending and "
                           "in range");
      }
      prev = idx;
      state->pool.erase(state->pool.begin() + idx);
      state->pool_tau.erase(state->pool_tau.begin() + idx);
      state->pool_meta.erase(state->pool_meta.begin() + idx);
    }
  }

  // ---- adds: new columns appended at the tail ----------------------------
  {
    long long n = 0;
    {
      auto v = expect_int(reader, "adds", 0, detail::kMaxColumns);
      if (!v.ok()) return v.status();
      n = v.value();
    }
    for (long long i = 0; i < n; ++i) {
      sched::Schedule col;
      double tau = 0.0;
      const common::Status st = detail::parse_column(
          reader, state->links, state->channels, &col, &tau);
      if (!st.ok()) return st;
      PoolColumnMeta meta;
      bool record_ok = true;
      const int line_no = reader.line();
      const common::Status mst =
          detail::parse_meta_record(reader, &meta, &record_ok);
      if (!mst.ok()) return mst;
      if (!record_ok)
        return parse_error(line_no, "meta: damaged record in delta block");
      state->pool.push_back(std::move(col));
      state->pool_tau.push_back(tau);
      state->pool_meta.push_back(meta);
    }
  }

  // ---- scores: refreshed tau/lifecycle of surviving columns --------------
  {
    long long n = 0;
    {
      auto v = expect_int(reader, "scores", 0, detail::kMaxColumns);
      if (!v.ok()) return v.status();
      n = v.value();
    }
    for (long long i = 0; i < n; ++i) {
      const int line_no = reader.line();
      auto tokens = expect_kv(reader, "score");
      if (!tokens.ok()) return tokens.status();
      const auto& t = tokens.value();
      long long idx = 0, epoch = 0, basis = 0;
      double rc = 0.0, tau = 0.0;
      std::uint64_t fp = 0;
      if (t.size() != 6 ||
          !parse_int_token(t[0], 0,
                           static_cast<long long>(state->pool.size()) - 1,
                           &idx) ||
          !parse_hex64_token(t[1], &fp) ||
          !parse_int_token(t[2], 0, 9'223'372'036'854'775'806LL, &epoch) ||
          !parse_double_token(t[3], /*allow_nan=*/false, &rc) ||
          !parse_int_token(t[4], 0, 1, &basis) ||
          !parse_double_token(t[5], /*allow_nan=*/false, &tau) || tau < 0.0) {
        return parse_error(line_no,
                           "score: expected '<index> <fingerprint> <epoch> "
                           "<rc> <basis> <tau>'");
      }
      state->pool_tau[static_cast<std::size_t>(idx)] = tau;
      PoolColumnMeta& m = state->pool_meta[static_cast<std::size_t>(idx)];
      m.fingerprint = fp;
      m.last_used_epoch = epoch;
      m.last_reduced_cost = rc;
      m.in_basis = basis != 0;
    }
  }

  // ---- pool epoch + index: small, always rewritten whole ----------------
  {
    auto v = expect_int(reader, "pool_epoch", 0,
                        9'223'372'036'854'775'806LL);
    if (!v.ok()) return v.status();
    state->pool_epoch = v.value();
  }
  {
    long long count = 0;
    {
      auto v = expect_int(reader, "pool_index", 0, detail::kMaxIndexEntries);
      if (!v.ok()) return v.status();
      count = v.value();
    }
    std::vector<PoolIndexEntry> index;
    index.reserve(static_cast<std::size_t>(count));
    for (long long i = 0; i < count; ++i) {
      PoolIndexEntry entry;
      bool record_ok = true;
      const int line_no = reader.line();
      const common::Status st =
          detail::parse_index_entry(reader, &entry, &record_ok);
      if (!st.ok()) return st;
      if (!record_ok)
        return parse_error(line_no, "inst: damaged record in delta block");
      index.push_back(std::move(entry));
    }
    state->pool_index = std::move(index);
    state->pool_index_degraded = false;
  }

  // ---- session: cursor rewritten, gop records appended incrementally -----
  {
    long long present = 0;
    {
      auto v = expect_int(reader, "session", 0, 1);
      if (!v.ok()) return v.status();
      present = v.value();
    }
    if (present == 0) {
      state->has_session = false;
      state->session = StreamCursor{};
    } else {
      StreamCursor s;
      bool semantic_ok = true;
      {
        const common::Status st =
            detail::parse_cursor_block(reader, &s, &semantic_ok);
        if (!st.ok()) return st;
      }
      long long gop_base = 0;
      {
        const long long prior =
            state->has_session
                ? static_cast<long long>(state->session.gops.size())
                : 0;
        auto v = expect_int(reader, "gop_base", 0, detail::kMaxGops);
        if (!v.ok()) return v.status();
        gop_base = v.value();
        if (gop_base > prior) {
          return common::Status::Error(
              common::ErrorCode::kInvalidInput,
              "checkpoint delta: gop_base exceeds the records on file");
        }
      }
      s.gops.assign(state->session.gops.begin(),
                    state->session.gops.begin() +
                        static_cast<std::ptrdiff_t>(gop_base));
      long long gops_new = 0;
      {
        auto v = expect_int(reader, "gops_new", 0, detail::kMaxGops);
        if (!v.ok()) return v.status();
        gops_new = v.value();
      }
      for (long long i = 0; i < gops_new; ++i) {
        StreamGopRecord rec;
        const int line_no = reader.line();
        const common::Status st =
            detail::parse_gop_record(reader, &rec, &semantic_ok);
        if (!st.ok()) return st;
        if (rec.gop != static_cast<int>(gop_base + i)) {
          return parse_error(line_no, "gop: discontinuous record index");
        }
        s.gops.push_back(rec);
      }
      // The writer only ever frames valid cursors; a delta carrying an
      // invalid one is damage and drops the tail here.
      if (!semantic_ok || s.next_gop < 1 || s.num_gops < 1 ||
          s.next_gop > s.num_gops ||
          static_cast<long long>(s.gops.size()) != s.next_gop ||
          static_cast<int>(s.delivered_bits.size()) != state->links ||
          static_cast<int>(s.blocked.size()) != state->links ||
          (!s.buffers.empty() &&
           static_cast<int>(s.buffers.size()) != state->links)) {
        return common::Status::Error(
            common::ErrorCode::kInvalidInput,
            "checkpoint delta: session cursor fails validity checks");
      }
      state->session = std::move(s);
      state->has_session = true;
      state->session_degraded = false;
    }
  }

  // ---- terminator ---------------------------------------------------------
  {
    std::string_view line;
    const int line_no = reader.line();
    if (!reader.next(&line) || line != "end_delta")
      return parse_error(line_no, "truncated: missing 'end_delta'");
  }
  if (!reader.at_end()) {
    return common::Status::Error(common::ErrorCode::kInvalidInput,
                                 "checkpoint delta: trailing bytes in block");
  }
  return common::Status::Ok();
}

}  // namespace

CheckpointLogLoad load_checkpoint_log(const std::string& path) {
  CheckpointLogLoad out;
  const std::string delta_path = path + ".delta";

  // ---- base snapshot ------------------------------------------------------
  {
    std::string base_text;
    bool missing = false;
    if (!read_file(path, &base_text, &missing).ok()) {
      if (!missing) out.base_damaged = true;
    } else {
      // The shared parse step keeps load_checkpoint's fault hook.
      auto ck = detail::parse_checkpoint_file(path, std::move(base_text));
      if (ck.ok()) {
        out.state = std::move(ck.value());
        out.loaded = true;
      } else {
        out.base_damaged = true;
        MMWAVE_LOG_WARN << "checkpoint log '" << path
                        << "': base unreadable (" << ck.status().message()
                        << "); cold start";
      }
    }
  }

  // ---- delta chain --------------------------------------------------------
  std::string chain;
  bool chain_missing = false;
  if (!read_file(delta_path, &chain, &chain_missing).ok()) {
    if (!chain_missing) {
      out.tail_dropped = true;  // unreadable chain: keep base only
    }
    return out;
  }
  if (chain.empty()) return out;
  if (!out.loaded) {
    // A chain with no (usable) base can never replay: discard it so a
    // later base rewrite cannot collide with stale blocks.
    out.tail_dropped = true;
    out.tail_bytes_dropped = static_cast<std::int64_t>(chain.size());
    std::remove(delta_path.c_str());
    return out;
  }

  std::size_t pos = 0;
  std::size_t good_end = 0;
  long long expected_seq = 1;
  while (pos < chain.size()) {
    const std::size_t nl = chain.find('\n', pos);
    if (nl == std::string::npos) break;  // torn header
    const auto tokens =
        detail::split_tokens(std::string_view(chain).substr(pos, nl - pos));
    long long base_seq = 0, delta_seq = 0, payload_bytes = 0;
    std::uint64_t checksum = 0;
    if (tokens.size() != 6 || tokens[0] != "delta" || tokens[1] != "=" ||
        !parse_int_token(tokens[2], 0, 9'223'372'036'854'775'806LL,
                         &base_seq) ||
        !parse_int_token(tokens[3], 1, 9'223'372'036'854'775'806LL,
                         &delta_seq) ||
        !parse_int_token(tokens[4], 0, 1LL << 30, &payload_bytes) ||
        !parse_hex64_token(tokens[5], &checksum)) {
      break;  // malformed framing
    }
    const std::size_t payload_start = nl + 1;
    if (payload_start + static_cast<std::size_t>(payload_bytes) >
        chain.size()) {
      break;  // torn payload
    }
    const std::string_view payload = std::string_view(chain).substr(
        payload_start, static_cast<std::size_t>(payload_bytes));
    if (base_seq != out.state.base_seq) break;   // stale chain
    if (delta_seq != expected_seq) break;        // sequence gap
    if (fnv1a64(payload) != checksum) break;     // bit rot
    CgCheckpoint scratch = out.state;
    const common::Status st = apply_delta(payload, &scratch);
    if (!st.ok()) {
      MMWAVE_LOG_WARN << "checkpoint log '" << path << "': delta "
                      << delta_seq << " unusable (" << st.message()
                      << "); dropping chain tail";
      break;
    }
    out.state = std::move(scratch);
    ++out.deltas_applied;
    ++expected_seq;
    pos = payload_start + static_cast<std::size_t>(payload_bytes);
    good_end = pos;
  }

  if (good_end < chain.size()) {
    out.tail_dropped = true;
    out.tail_bytes_dropped =
        static_cast<std::int64_t>(chain.size() - good_end);
    // Best-effort: rewrite the chain to its valid prefix so the damage is
    // not re-reported (and not re-parsed) on every subsequent load.
    if (good_end == 0) {
      std::remove(delta_path.c_str());
    } else {
      (void)write_file_atomic(delta_path,
                              std::string_view(chain).substr(0, good_end));
    }
  }
  return out;
}

CheckpointLog::CheckpointLog(std::string path, CheckpointLogOptions options)
    : path_(std::move(path)), options_(options) {}

CheckpointLogLoad CheckpointLog::open() {
  CheckpointLogLoad r = load_checkpoint_log(path_);
  if (r.loaded) {
    shadow_ = r.state;
    have_shadow_ = true;
    base_seq_ = r.state.base_seq;
    next_delta_seq_ = r.deltas_applied + 1;
    deltas_since_compact_ = r.deltas_applied;
  } else {
    have_shadow_ = false;
    base_seq_ = 0;
    next_delta_seq_ = 1;
    deltas_since_compact_ = 0;
  }
  dirty_tail_ = false;
  return r;
}

[[nodiscard]] common::Status CheckpointLog::save(const CgCheckpoint& ckpt) {
  ++stats_.saves;
  if (options_.track_full_equiv) {
    CgCheckpoint equiv = ckpt;
    equiv.base_seq = base_seq_;
    stats_.full_equiv_bytes +=
        static_cast<std::int64_t>(serialize_checkpoint(equiv).size());
  }

  const bool stride_ok = options_.compact_every > 0 &&
                         deltas_since_compact_ < options_.compact_every;
  std::string payload;
  if (!have_shadow_ || dirty_tail_ || !stride_ok ||
      !build_delta_payload(ckpt, &payload)) {
    // stats_.saves already counted; compact() accounts the full write.
    return compact(ckpt);
  }
  std::string block = "delta = " + std::to_string(base_seq_) + ' ' +
                      std::to_string(next_delta_seq_) + ' ' +
                      std::to_string(payload.size()) + ' ';
  block += hex64(fnv1a64(payload));
  block += '\n';
  block += payload;

  if (common::fault_fires(common::faults::kCheckpointDeltaTornWrite)) {
    // Crash window: half the block lands, then the write dies.  The chain
    // tail is now torn; the loader drops it and the next save compacts.
    (void)append_bytes(delta_path(), std::string_view(block).substr(
                                         0, block.size() / 2));
    dirty_tail_ = true;
    return common::Status::Error(
        common::ErrorCode::kIoError,
        "checkpoint delta append torn mid-block (injected fault)");
  }
  if (!append_bytes(delta_path(), block)) {
    dirty_tail_ = true;
    return common::Status::Error(common::ErrorCode::kIoError,
                                 "cannot append to '" + delta_path() + "'");
  }

  shadow_ = ckpt;
  shadow_.base_seq = base_seq_;
  have_shadow_ = true;
  ++next_delta_seq_;
  ++deltas_since_compact_;
  ++stats_.delta_saves;
  stats_.delta_bytes += static_cast<std::int64_t>(block.size());
  return common::Status::Ok();
}

[[nodiscard]] common::Status CheckpointLog::compact(const CgCheckpoint& ckpt) {
  CgCheckpoint copy = ckpt;
  copy.base_seq = base_seq_ + 1;  // stale delta blocks can no longer bind
  // Serialized once: the crash window, the write and the byte count all
  // use these bytes.
  const std::string text = serialize_checkpoint(copy);
  if (common::fault_fires(common::faults::kCheckpointCompactCrash)) {
    // Crash window: the temp file is half-written and never renamed.  The
    // previous base + chain stay fully loadable; the next save retries.
    std::FILE* f = std::fopen((path_ + ".tmp").c_str(), "wb");
    if (f != nullptr) {
      (void)std::fwrite(text.data(), 1, text.size() / 2, f);
      (void)std::fclose(f);
    }
    dirty_tail_ = true;
    return common::Status::Error(
        common::ErrorCode::kIoError,
        "checkpoint compaction crashed mid-write (injected fault)");
  }
  const common::Status st = detail::write_checkpoint_text(path_, text);
  if (!st.ok()) {
    dirty_tail_ = true;
    return st;
  }
  std::remove(delta_path().c_str());  // chain is folded into the new base
  base_seq_ = copy.base_seq;
  next_delta_seq_ = 1;
  deltas_since_compact_ = 0;
  dirty_tail_ = false;
  stats_.full_bytes += static_cast<std::int64_t>(text.size());
  ++stats_.full_saves;
  ++stats_.compactions;
  shadow_ = std::move(copy);
  have_shadow_ = true;
  return common::Status::Ok();
}

bool CheckpointLog::build_delta_payload(const CgCheckpoint& ckpt,
                                        std::string* payload) const {
  // Expressibility gates: the delta grammar assumes fixed dimensions, an
  // aligned pool/tau/meta triple on both sides, and PoolManager's order
  // discipline (survivors keep their relative order, additions append at
  // the tail).  Anything else falls back to a full compaction.
  if (ckpt.links != shadow_.links || ckpt.channels != shadow_.channels)
    return false;
  if (ckpt.pool_tau.size() != ckpt.pool.size() ||
      ckpt.pool_meta.size() != ckpt.pool.size() ||
      shadow_.pool_tau.size() != shadow_.pool.size() ||
      shadow_.pool_meta.size() != shadow_.pool.size()) {
    return false;
  }

  std::unordered_map<std::string, std::size_t> shadow_by_key;
  shadow_by_key.reserve(shadow_.pool.size());
  for (std::size_t i = 0; i < shadow_.pool.size(); ++i) {
    if (!shadow_by_key.emplace(shadow_.pool[i].key(), i).second)
      return false;  // duplicate keys: diff is ambiguous
  }

  std::vector<bool> survived(shadow_.pool.size(), false);
  struct Match {
    std::size_t shadow_index;
    std::size_t new_index;
  };
  std::vector<Match> matches;
  std::vector<std::size_t> adds;
  long long last_shadow = -1;
  for (std::size_t j = 0; j < ckpt.pool.size(); ++j) {
    const auto it = shadow_by_key.find(ckpt.pool[j].key());
    if (it == shadow_by_key.end()) {
      adds.push_back(j);
      continue;
    }
    const std::size_t si = it->second;
    if (!adds.empty()) return false;  // survivor after an addition
    if (static_cast<long long>(si) <= last_shadow) return false;  // reordered
    last_shadow = static_cast<long long>(si);
    if (survived[si]) return false;  // duplicate key in the new pool
    survived[si] = true;
    if (column_content_key(ckpt.pool[j]) !=
        column_content_key(shadow_.pool[si])) {
      return false;  // same key, different payload (power changed)
    }
    matches.push_back({si, j});
  }

  std::string& out = *payload;
  out.clear();
  out += "head = ";
  out += hex64(ckpt.fingerprint);
  out += ' ' + std::to_string(ckpt.links) + ' ' +
         std::to_string(ckpt.channels) + ' ' +
         std::to_string(ckpt.iterations) + ' ';
  out += ckpt.converged ? '1' : '0';
  out += ' ';
  append_double(out, ckpt.total_slots);
  out += ' ';
  append_double(out, ckpt.lower_bound);
  out += "\nduals_hp =";
  for (double v : ckpt.duals_hp) {
    out += ' ';
    append_double(out, v);
  }
  out += "\nduals_lp =";
  for (double v : ckpt.duals_lp) {
    out += ' ';
    append_double(out, v);
  }

  std::vector<std::size_t> drops;
  for (std::size_t i = shadow_.pool.size(); i-- > 0;) {
    if (!survived[i]) drops.push_back(i);
  }
  out += "\ndrops = " + std::to_string(drops.size());
  for (std::size_t i : drops) out += ' ' + std::to_string(i);

  out += "\nadds = " + std::to_string(adds.size());
  out += '\n';
  for (std::size_t j : adds) {
    detail::append_column(out, ckpt.pool[j], ckpt.pool_tau[j]);
    detail::append_meta_record(out, ckpt.pool_meta[j]);
  }

  std::string scores;
  std::size_t num_scores = 0;
  for (const Match& m : matches) {
    const PoolColumnMeta& om = shadow_.pool_meta[m.shadow_index];
    const PoolColumnMeta& nm = ckpt.pool_meta[m.new_index];
    const double ot = shadow_.pool_tau[m.shadow_index];
    const double nt = ckpt.pool_tau[m.new_index];
    if (ot == nt && om.fingerprint == nm.fingerprint &&
        om.last_used_epoch == nm.last_used_epoch &&
        om.last_reduced_cost == nm.last_reduced_cost &&
        om.in_basis == nm.in_basis) {
      continue;
    }
    // Post-drop the survivors occupy the first |matches| slots in shadow
    // order, which equals their position in the new pool.
    scores += "score = " + std::to_string(m.new_index) + ' ';
    scores += hex64(nm.fingerprint);
    scores += ' ' + std::to_string(nm.last_used_epoch) + ' ';
    append_double(scores, nm.last_reduced_cost);
    scores += ' ';
    scores += nm.in_basis ? '1' : '0';
    scores += ' ';
    append_double(scores, nt);
    scores += '\n';
    ++num_scores;
  }
  out += "scores = " + std::to_string(num_scores);
  out += '\n';
  out += scores;

  out += "pool_epoch = " + std::to_string(ckpt.pool_epoch);
  out += "\npool_index = " + std::to_string(ckpt.pool_index.size());
  out += '\n';
  for (const PoolIndexEntry& e : ckpt.pool_index)
    detail::append_index_entry(out, e);

  out += "session = ";
  out += ckpt.has_session ? '1' : '0';
  out += '\n';
  if (ckpt.has_session) {
    const StreamCursor& s = ckpt.session;
    detail::append_cursor_block(out, s);
    std::size_t gop_base = 0;
    if (shadow_.has_session) {
      const std::vector<StreamGopRecord>& old = shadow_.session.gops;
      while (gop_base < old.size() && gop_base < s.gops.size()) {
        const StreamGopRecord& a = old[gop_base];
        const StreamGopRecord& b = s.gops[gop_base];
        if (a.gop != b.gop || a.demand_bits != b.demand_bits ||
            a.schedule_slots != b.schedule_slots ||
            a.budget_slots != b.budget_slots || a.on_time != b.on_time ||
            a.stall_slots != b.stall_slots) {
          break;
        }
        ++gop_base;
      }
    }
    out += "gop_base = " + std::to_string(gop_base);
    out += "\ngops_new = " + std::to_string(s.gops.size() - gop_base);
    out += '\n';
    for (std::size_t i = gop_base; i < s.gops.size(); ++i)
      detail::append_gop_record(out, s.gops[i]);
  }
  out += "end_delta\n";
  return true;
}

}  // namespace mmwave::core
