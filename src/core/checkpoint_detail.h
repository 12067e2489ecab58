// Shared text-format machinery of the checkpoint family.
//
// core/checkpoint.cpp (the base snapshot format) and core/checkpoint_log.cpp
// (the delta log appended against a base) speak the same line grammar:
// `key = tokens...` records, %.17g doubles that round-trip IEEE exactly,
// 0x + 16-hex-digit u64s, strict full-token numeric parses.  This header
// holds that machinery so the two writers/parsers cannot drift apart.
// Everything here is internal to core/ — tools and tests go through the
// public checkpoint.h / checkpoint_log.h surfaces.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/checkpoint.h"
#include "sched/schedule.h"

namespace mmwave::core::detail {

// Hard ceilings on parsed counts: a corrupted header must not be able to
// drive a multi-gigabyte allocation before the record lines are even
// reachable (the checksum is verified first, but belt and braces).
inline constexpr int kMaxLinks = 4096;
inline constexpr int kMaxChannels = 1024;
inline constexpr int kMaxColumns = 1'000'000;
inline constexpr int kMaxRateLevels = 64;
inline constexpr int kMaxIndexEntries = 100'000;
inline constexpr int kMaxFeatures = 65'536;
inline constexpr int kMaxGops = 1'000'000;

/// Reads all of `path` into *out (the one whole-file read behind
/// load_checkpoint and the delta-log loader).  kIoError when the file
/// cannot be opened or read; *missing (when given) is set when it does not
/// exist at all.
[[nodiscard]] common::Status read_file(const std::string& path,
                                       std::string* out,
                                       bool* missing = nullptr);

/// Writes already-serialized checkpoint `text` to `path` atomically: the
/// write half of save_checkpoint, shared with the delta log's compaction
/// so it serializes once.  The fault site faults::kCheckpointWriteFail
/// fires here.
[[nodiscard]] common::Status write_checkpoint_text(const std::string& path,
                                                   std::string_view text);

/// Strictly parses the bytes read from `path`: the parse half of
/// load_checkpoint, shared with the delta-log loader so the base file is
/// read once.  The fault site faults::kCheckpointCorrupt fires here.
[[nodiscard]] common::Expected<CgCheckpoint> parse_checkpoint_file(
    const std::string& path, std::string text);

[[nodiscard]] inline common::Status parse_error(int line,
                                                const std::string& what) {
  return common::Status::Error(
      common::ErrorCode::kInvalidInput,
      "checkpoint line " + std::to_string(line) + ": " + what);
}

/// %.17g round-trips IEEE doubles exactly, which is what makes the
/// save -> load -> serialize cycle byte-identical.
inline void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "nan";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Strict full-token double parse; `allow_nan` admits the literal "nan".
inline bool parse_double_token(std::string_view token, bool allow_nan,
                               double* out) {
  if (token.empty() || token.size() >= 63) return false;
  if (token == "nan") {
    if (!allow_nan) return false;
    *out = std::nan("");
    return true;
  }
  char buf[64];
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (end != buf + token.size() || errno == ERANGE || !std::isfinite(v))
    return false;
  *out = v;
  return true;
}

inline bool parse_int_token(std::string_view token, long long lo, long long hi,
                            long long* out) {
  if (token.empty() || token.size() >= 31) return false;
  char buf[32];
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (end != buf + token.size() || errno == ERANGE || v < lo || v > hi)
    return false;
  *out = v;
  return true;
}

inline bool parse_hex64_token(std::string_view token, std::uint64_t* out) {
  if (token.size() != 18 || token[0] != '0' || token[1] != 'x') return false;
  std::uint64_t v = 0;
  for (std::size_t i = 2; i < token.size(); ++i) {
    const char c = token[i];
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = v;
  return true;
}

/// Line cursor over the payload; tracks 1-based line numbers for errors.
class LineReader {
 public:
  LineReader(std::string_view text, int first_line)
      : text_(text), line_(first_line - 1) {}

  /// Next line without its '\n'.  False at end of input.
  bool next(std::string_view* out) {
    if (pos_ >= text_.size()) return false;
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      // A checkpoint always ends in a newline; a final unterminated line is
      // a truncation, reported by the caller when the content mismatches.
      *out = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      *out = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    ++line_;
    return true;
  }
  bool at_end() const { return pos_ >= text_.size(); }
  int line() const { return line_ + 1; }  ///< line number of the NEXT line

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_;
};

/// Splits on single spaces (the serializers never emit doubles/tabs).
inline std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t sp = line.find(' ', pos);
    if (sp == std::string_view::npos) {
      tokens.push_back(line.substr(pos));
      break;
    }
    tokens.push_back(line.substr(pos, sp - pos));
    pos = sp + 1;
  }
  return tokens;
}

/// Reads one `key = <value tokens...>` line; returns the value tokens.
[[nodiscard]] inline common::Expected<std::vector<std::string_view>> expect_kv(
    LineReader& reader, std::string_view key) {
  std::string_view line;
  const int line_no = reader.line();
  if (!reader.next(&line)) {
    return parse_error(line_no, "truncated: expected '" + std::string(key) +
                                    " = ...'");
  }
  auto tokens = split_tokens(line);
  if (tokens.size() < 3 || tokens[0] != key || tokens[1] != "=") {
    return parse_error(line_no, "expected '" + std::string(key) +
                                    " = ...', got '" + std::string(line) +
                                    "'");
  }
  tokens.erase(tokens.begin(), tokens.begin() + 2);
  return tokens;
}

[[nodiscard]] inline common::Expected<long long> expect_int(
    LineReader& reader, std::string_view key, long long lo, long long hi) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, key);
  if (!tokens.ok()) return tokens.status();
  long long v = 0;
  if (tokens.value().size() != 1 ||
      !parse_int_token(tokens.value()[0], lo, hi, &v)) {
    return parse_error(line_no, std::string(key) + ": expected an integer in [" +
                                    std::to_string(lo) + ", " +
                                    std::to_string(hi) + "]");
  }
  return v;
}

[[nodiscard]] inline common::Expected<double> expect_double(
    LineReader& reader, std::string_view key, bool allow_nan) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, key);
  if (!tokens.ok()) return tokens.status();
  double v = 0.0;
  if (tokens.value().size() != 1 ||
      !parse_double_token(tokens.value()[0], allow_nan, &v)) {
    return parse_error(line_no,
                       std::string(key) + ": expected a finite number" +
                           (allow_nan ? " or 'nan'" : ""));
  }
  return v;
}

/// Emits one pool column: the `column = tau <t> txs <n>` record followed by
/// its `tx = ...` lines (the grammar both the base format's pool section
/// and the delta log's `add` records use).
inline void append_column(std::string& out, const sched::Schedule& col,
                          double tau) {
  out += "column = tau ";
  append_double(out, tau);
  out += " txs " + std::to_string(col.size());
  out += '\n';
  for (const sched::Transmission& tx : col.transmissions()) {
    out += "tx = " + std::to_string(tx.link) + ' ' +
           std::to_string(static_cast<int>(tx.layer)) + ' ' +
           std::to_string(tx.rate_level) + ' ' +
           std::to_string(tx.channel) + ' ';
    append_double(out, tx.power_watts);
    out += '\n';
  }
}

/// Strict inverse of append_column: one column record plus its tx lines,
/// bounds-checked against the instance dimensions.
[[nodiscard]] inline common::Status parse_column(LineReader& reader, int links,
                                                 int channels,
                                                 sched::Schedule* col,
                                                 double* tau) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, "column");
  if (!tokens.ok()) return tokens.status();
  const auto& t = tokens.value();
  long long num_txs = 0;
  if (t.size() != 4 || t[0] != "tau" || t[2] != "txs" ||
      !parse_double_token(t[1], /*allow_nan=*/false, tau) || *tau < 0.0 ||
      !parse_int_token(t[3], 0, 2LL * kMaxLinks, &num_txs)) {
    return parse_error(line_no, "column: expected 'column = tau <t> txs <n>'");
  }
  for (long long i = 0; i < num_txs; ++i) {
    const int tx_line = reader.line();
    auto tx_tokens = expect_kv(reader, "tx");
    if (!tx_tokens.ok()) return tx_tokens.status();
    const auto& tt = tx_tokens.value();
    long long link = 0, layer = 0, level = 0, channel = 0;
    double power = 0.0;
    if (tt.size() != 5 ||
        !parse_int_token(tt[0], 0, links - 1, &link) ||
        !parse_int_token(tt[1], 0, 1, &layer) ||
        !parse_int_token(tt[2], 0, kMaxRateLevels - 1, &level) ||
        !parse_int_token(tt[3], 0, channels - 1, &channel) ||
        !parse_double_token(tt[4], /*allow_nan=*/false, &power) ||
        power < 0.0) {
      return parse_error(
          tx_line, "tx: expected '<link> <layer> <level> <channel> <power>' "
                   "with all fields in range");
    }
    col->add({static_cast<int>(link), static_cast<net::Layer>(layer),
              static_cast<int>(level), static_cast<int>(channel), power});
  }
  return common::Status::Ok();
}

/// Parses a fixed-width duals line (`duals_hp = ...` / `duals_lp = ...`):
/// exactly `expected_size` finite non-negative values.
[[nodiscard]] inline common::Expected<std::vector<double>> parse_dual_vector(
    LineReader& reader, std::string_view key, int expected_size) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, key);
  if (!tokens.ok()) return tokens.status();
  if (static_cast<int>(tokens.value().size()) != expected_size) {
    return parse_error(line_no, std::string(key) + ": expected " +
                                    std::to_string(expected_size) +
                                    " values, got " +
                                    std::to_string(tokens.value().size()));
  }
  std::vector<double> values;
  values.reserve(tokens.value().size());
  for (std::string_view t : tokens.value()) {
    double v = 0.0;
    if (!parse_double_token(t, /*allow_nan=*/false, &v) || v < 0.0) {
      return parse_error(line_no, std::string(key) +
                                      ": dual values must be finite and >= 0");
    }
    values.push_back(v);
  }
  return values;
}

/// Emits one pool-metadata record (the base format's and the delta log's
/// shared `meta = <fingerprint> <epoch> <rc> <basis>` line).
inline void append_meta_record(std::string& out, const PoolColumnMeta& m) {
  out += "meta = ";
  out += hex64(m.fingerprint);
  out += ' ' + std::to_string(m.last_used_epoch) + ' ';
  append_double(out,
                std::isfinite(m.last_reduced_cost) ? m.last_reduced_cost : 0.0);
  out += ' ';
  out += m.in_basis ? '1' : '0';
  out += '\n';
}

/// Parses one `meta = ...` record.  Structural damage (wrong key, wrong
/// token count, truncation) is a hard error; value-level damage sets
/// *record_ok = false and leaves *m untouched — the base parser degrades
/// metadata to cold, the delta parser drops the chain tail.
[[nodiscard]] inline common::Status parse_meta_record(LineReader& reader,
                                                      PoolColumnMeta* m,
                                                      bool* record_ok) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, "meta");
  if (!tokens.ok()) return tokens.status();
  const auto& t = tokens.value();
  if (t.size() != 4) {
    return parse_error(line_no,
                       "meta: expected '<fingerprint> <epoch> <rc> <basis>'");
  }
  long long epoch = 0, basis = 0;
  double rc = 0.0;
  std::uint64_t fp = 0;
  if (!parse_hex64_token(t[0], &fp) ||
      !parse_int_token(t[1], 0, 9'223'372'036'854'775'806LL, &epoch) ||
      !parse_double_token(t[2], /*allow_nan=*/false, &rc) ||
      !parse_int_token(t[3], 0, 1, &basis)) {
    *record_ok = false;
    return common::Status::Ok();
  }
  m->fingerprint = fp;
  m->last_used_epoch = epoch;
  m->last_reduced_cost = rc;
  m->in_basis = basis != 0;
  return common::Status::Ok();
}

/// Emits one neighbour-index record (the base format's and the delta log's
/// shared `inst = ...` line).
inline void append_index_entry(std::string& out, const PoolIndexEntry& e) {
  out += "inst = ";
  out += hex64(e.fingerprint);
  out += ' ' + std::to_string(e.links) + ' ' + std::to_string(e.channels) +
         ' ' + std::to_string(e.last_epoch) + ' ' +
         std::to_string(e.features.size());
  for (double f : e.features) {
    out += ' ';
    append_double(out, f);
  }
  out += '\n';
}

/// Parses one `inst = ...` record.  Structural damage is a hard error;
/// semantically nonsense dimensions (links/channels < 1) set
/// *record_ok = false with *e left untouched.
[[nodiscard]] inline common::Status parse_index_entry(LineReader& reader,
                                                      PoolIndexEntry* e,
                                                      bool* record_ok) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, "inst");
  if (!tokens.ok()) return tokens.status();
  const auto& t = tokens.value();
  std::uint64_t fp = 0;
  long long links = 0, channels = 0, epoch = 0, nfeat = 0;
  if (t.size() < 5 || !parse_hex64_token(t[0], &fp) ||
      !parse_int_token(t[1], 0, kMaxLinks, &links) ||
      !parse_int_token(t[2], 0, kMaxChannels, &channels) ||
      !parse_int_token(t[3], 0, 9'223'372'036'854'775'806LL, &epoch) ||
      !parse_int_token(t[4], 0, kMaxFeatures, &nfeat) ||
      static_cast<long long>(t.size()) != 5 + nfeat) {
    return parse_error(line_no,
                       "inst: expected '<fingerprint> <links> <channels> "
                       "<epoch> <nfeat> <features...>'");
  }
  std::vector<double> features;
  features.reserve(static_cast<std::size_t>(nfeat));
  for (long long f = 0; f < nfeat; ++f) {
    double v = 0.0;
    if (!parse_double_token(t[5 + f], /*allow_nan=*/false, &v)) {
      return parse_error(line_no, "inst: non-numeric feature value");
    }
    features.push_back(v);
  }
  if (links < 1 || channels < 1) {
    *record_ok = false;
    return common::Status::Ok();
  }
  e->fingerprint = fp;
  e->links = static_cast<int>(links);
  e->channels = static_cast<int>(channels);
  e->last_epoch = epoch;
  e->features = std::move(features);
  return common::Status::Ok();
}

/// Emits the cursor/delivered/blocked/context lines of a session section —
/// everything except the surrounding `session = 0|1` marker and the gop
/// records, which the base format and the delta log frame differently.
inline void append_cursor_block(std::string& out, const StreamCursor& s) {
  out += "cursor = " + std::to_string(s.next_gop) + ' ' +
         std::to_string(s.num_gops) + ' ';
  out += hex64(s.session_fingerprint);
  out += ' ';
  append_double(out, s.carryover_stall);
  out += ' ';
  append_double(out, s.blocked_fraction_sum);
  out += ' ' + std::to_string(s.invalidated_periods) + ' ' +
         std::to_string(s.exec_transmissions_dropped) + ' ';
  out += hex64(s.plan_digest);
  out += "\ndelivered = " + std::to_string(s.delivered_bits.size());
  for (double v : s.delivered_bits) {
    out += ' ';
    append_double(out, v);
  }
  out += "\nblocked = " + std::to_string(s.blocked.size());
  for (int b : s.blocked) out += ' ' + std::to_string(b);
  out += "\nbuffers = " + std::to_string(s.buffers.size());
  for (const StreamBufferState& b : s.buffers) {
    out += ' ';
    append_double(out, b.occupancy_seconds);
    out += ' ';
    append_double(out, b.stall_seconds);
    out += ' ' + std::to_string(b.rebuffer_events) + ' ' +
           std::to_string(b.flags) + ' ' +
           std::to_string(b.hp_gops_delivered) + ' ' +
           std::to_string(b.lp_gops_delivered);
  }
  const StreamSolverCounters& c = s.counters;
  out += "\ncontext = " + std::to_string(c.periods) + ' ' +
         std::to_string(c.resolves) + ' ' + std::to_string(c.pool_hits) +
         ' ' + std::to_string(c.pool_misses) + ' ' +
         std::to_string(c.columns_loaded) + ' ' +
         std::to_string(c.columns_reused) + ' ' +
         std::to_string(c.columns_repaired) + ' ' +
         std::to_string(c.columns_dropped) + ' ' +
         std::to_string(c.transmissions_dropped) + ' ' +
         std::to_string(c.pool_evicted) + ' ' +
         std::to_string(c.pool_neighbour_seeded);
  out += '\n';
}

/// Parses the cursor/delivered/blocked/buffers/context lines.  Structural
/// damage is a hard error; value-level damage (negative delivered bits,
/// blocked bits outside {0,1}, NaN/negative buffer occupancies, the
/// playing-without-started flags encoding, counter identities broken)
/// clears *semantic_ok.  Gop and link-count cross-checks are the caller's,
/// since only it knows the instance dimensions and the gop framing.
[[nodiscard]] inline common::Status parse_cursor_block(LineReader& reader,
                                                       StreamCursor* s,
                                                       bool* semantic_ok) {
  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "cursor");
    if (!tokens.ok()) return tokens.status();
    const auto& t = tokens.value();
    long long next_gop = 0, num_gops = 0, invalidated = 0, exec_dropped = 0;
    if (t.size() != 8 || !parse_int_token(t[0], 0, kMaxGops, &next_gop) ||
        !parse_int_token(t[1], 0, kMaxGops, &num_gops) ||
        !parse_hex64_token(t[2], &s->session_fingerprint) ||
        !parse_double_token(t[3], /*allow_nan=*/false, &s->carryover_stall) ||
        !parse_double_token(t[4], /*allow_nan=*/false,
                            &s->blocked_fraction_sum) ||
        !parse_int_token(t[5], 0, kMaxGops, &invalidated) ||
        !parse_int_token(t[6], 0, 9'223'372'036'854'775'806LL,
                         &exec_dropped) ||
        !parse_hex64_token(t[7], &s->plan_digest)) {
      return parse_error(line_no,
                         "cursor: expected '<next_gop> <num_gops> "
                         "<fingerprint> <stall> <blocked_sum> <invalidated> "
                         "<dropped> <digest>'");
    }
    s->next_gop = static_cast<int>(next_gop);
    s->num_gops = static_cast<int>(num_gops);
    s->invalidated_periods = static_cast<int>(invalidated);
    s->exec_transmissions_dropped = static_cast<int>(exec_dropped);
    if (s->carryover_stall < 0.0 || s->blocked_fraction_sum < 0.0)
      *semantic_ok = false;
  }
  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "delivered");
    if (!tokens.ok()) return tokens.status();
    const auto& t = tokens.value();
    long long n = 0;
    if (t.empty() || !parse_int_token(t[0], 0, kMaxLinks, &n) ||
        static_cast<long long>(t.size()) != 1 + n) {
      return parse_error(line_no, "delivered: expected '<n> <values...>'");
    }
    s->delivered_bits.clear();
    s->delivered_bits.reserve(static_cast<std::size_t>(n));
    for (long long i = 0; i < n; ++i) {
      double v = 0.0;
      if (!parse_double_token(t[1 + i], /*allow_nan=*/false, &v)) {
        return parse_error(line_no, "delivered: non-numeric value");
      }
      if (v < 0.0) *semantic_ok = false;
      s->delivered_bits.push_back(v);
    }
  }
  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "blocked");
    if (!tokens.ok()) return tokens.status();
    const auto& t = tokens.value();
    long long n = 0;
    if (t.empty() || !parse_int_token(t[0], 0, kMaxLinks, &n) ||
        static_cast<long long>(t.size()) != 1 + n) {
      return parse_error(line_no, "blocked: expected '<n> <bits...>'");
    }
    s->blocked.clear();
    s->blocked.reserve(static_cast<std::size_t>(n));
    for (long long i = 0; i < n; ++i) {
      long long b = 0;
      if (!parse_int_token(t[1 + i], 0, 1'000'000, &b)) {
        return parse_error(line_no, "blocked: non-numeric value");
      }
      if (b > 1) *semantic_ok = false;
      s->blocked.push_back(static_cast<int>(b));
    }
  }
  s->buffers.clear();
  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "buffers");
    if (!tokens.ok()) return tokens.status();
    const auto& t = tokens.value();
    long long n = 0;
    if (t.empty() || !parse_int_token(t[0], 0, kMaxLinks, &n) ||
        static_cast<long long>(t.size()) != 1 + 6 * n) {
      return parse_error(line_no,
                         "buffers: expected '<n> [<occ> <stall> <events> "
                         "<flags> <hp> <lp>]...'");
    }
    s->buffers.reserve(static_cast<std::size_t>(n));
    for (long long i = 0; i < n; ++i) {
      const std::string_view* f = &t[1 + 6 * i];
      StreamBufferState b;
      long long events = 0, flags = 0, hp = 0, lp = 0;
      // NaN occupancies parse structurally (a torn double is value damage,
      // not framing damage) and degrade semantically below.
      if (!parse_double_token(f[0], /*allow_nan=*/true,
                              &b.occupancy_seconds) ||
          !parse_double_token(f[1], /*allow_nan=*/true, &b.stall_seconds) ||
          !parse_int_token(f[2], 0, kMaxGops, &events) ||
          !parse_int_token(f[3], 0, 3, &flags) ||
          !parse_int_token(f[4], 0, kMaxGops, &hp) ||
          !parse_int_token(f[5], 0, kMaxGops, &lp)) {
        return parse_error(line_no, "buffers: malformed record");
      }
      b.rebuffer_events = static_cast<int>(events);
      b.flags = static_cast<int>(flags);
      b.hp_gops_delivered = static_cast<int>(hp);
      b.lp_gops_delivered = static_cast<int>(lp);
      if (!(b.occupancy_seconds >= 0.0) || !(b.stall_seconds >= 0.0) ||
          b.flags == 1) {
        *semantic_ok = false;  // NaN/negative state or playing-without-started
      }
      s->buffers.push_back(b);
    }
  }
  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "context");
    if (!tokens.ok()) return tokens.status();
    const auto& t = tokens.value();
    long long v[11] = {};
    bool ok = t.size() == 11;
    for (std::size_t i = 0; ok && i < 11; ++i) {
      ok = parse_int_token(t[i], 0, 9'223'372'036'854'775'806LL, &v[i]);
    }
    if (!ok) {
      return parse_error(line_no, "context: expected 11 non-negative counters");
    }
    StreamSolverCounters& c = s->counters;
    c.periods = static_cast<int>(v[0]);
    c.resolves = static_cast<int>(v[1]);
    c.pool_hits = static_cast<int>(v[2]);
    c.pool_misses = static_cast<int>(v[3]);
    c.columns_loaded = static_cast<int>(v[4]);
    c.columns_reused = static_cast<int>(v[5]);
    c.columns_repaired = static_cast<int>(v[6]);
    c.columns_dropped = static_cast<int>(v[7]);
    c.transmissions_dropped = static_cast<int>(v[8]);
    c.pool_evicted = v[9];
    c.pool_neighbour_seeded = v[10];
    // The accounting identities the scheduler maintains; a cursor that
    // breaks them cannot have come from a real session.
    if (c.pool_hits + c.pool_misses != c.resolves ||
        c.columns_reused > c.columns_loaded) {
      *semantic_ok = false;
    }
  }
  return common::Status::Ok();
}

/// Emits one per-GOP scoring record.
inline void append_gop_record(std::string& out, const StreamGopRecord& g) {
  out += "gop = " + std::to_string(g.gop) + ' ';
  append_double(out, g.demand_bits);
  out += ' ';
  append_double(out, g.schedule_slots);
  out += ' ';
  append_double(out, g.budget_slots);
  out += ' ';
  out += g.on_time ? '1' : '0';
  out += ' ';
  append_double(out, g.stall_slots);
  out += '\n';
}

/// Parses one `gop = ...` record.  Structural damage is a hard error;
/// negative measurements clear *semantic_ok.  The index-continuity check is
/// the caller's (the base format and the delta log number differently).
[[nodiscard]] inline common::Status parse_gop_record(LineReader& reader,
                                                     StreamGopRecord* g,
                                                     bool* semantic_ok) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, "gop");
  if (!tokens.ok()) return tokens.status();
  const auto& t = tokens.value();
  long long gop = 0, on_time = 0;
  if (t.size() != 6 || !parse_int_token(t[0], 0, kMaxGops, &gop) ||
      !parse_double_token(t[1], /*allow_nan=*/false, &g->demand_bits) ||
      !parse_double_token(t[2], /*allow_nan=*/false, &g->schedule_slots) ||
      !parse_double_token(t[3], /*allow_nan=*/false, &g->budget_slots) ||
      !parse_int_token(t[4], 0, 1, &on_time) ||
      !parse_double_token(t[5], /*allow_nan=*/false, &g->stall_slots)) {
    return parse_error(line_no,
                       "gop: expected '<g> <demand> <slots> <budget> "
                       "<on_time> <stall>'");
  }
  g->gop = static_cast<int>(gop);
  g->on_time = on_time != 0;
  if (g->demand_bits < 0.0 || g->schedule_slots < 0.0 ||
      g->budget_slots < 0.0 || g->stall_slots < 0.0) {
    *semantic_ok = false;
  }
  return common::Status::Ok();
}

}  // namespace mmwave::core::detail
