#include "core/checkpoint.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/fault_injection.h"
#include "common/log.h"
#include "core/checkpoint_detail.h"
#include "core/column_generation.h"

namespace mmwave::core {
namespace {

using detail::LineReader;
using detail::append_double;
using detail::expect_double;
using detail::expect_int;
using detail::expect_kv;
using detail::parse_double_token;
using detail::parse_error;
using detail::parse_hex64_token;
using detail::parse_int_token;
using detail::split_tokens;

constexpr const char* kMagic = "mmwave-cg-checkpoint";

/// Incremental FNV-1a over typed fields (the instance fingerprint).
class FingerprintHasher {
 public:
  void add_double(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Serializes the session section (grammar in DESIGN §12).  The vectors
/// carry explicit counts so the serializer is total over any StreamCursor;
/// the parser's semantic checks enforce count == links on load.
void append_session(std::string& body, const CgCheckpoint& ckpt) {
  body += "session = ";
  body += ckpt.has_session ? '1' : '0';
  body += '\n';
  if (!ckpt.has_session) return;
  const StreamCursor& s = ckpt.session;
  detail::append_cursor_block(body, s);
  body += "gops = " + std::to_string(s.gops.size());
  body += '\n';
  for (const StreamGopRecord& g : s.gops) detail::append_gop_record(body, g);
}

/// Parses the pool-index section.  Structural damage (wrong key, token
/// count, truncation) is a hard parse error; *semantic* damage — a record
/// whose values are out of range, or the injected
/// faults::kCheckpointBadIndexRecord — degrades to an empty index (columns
/// kept, neighbour seeding restarts from scratch).
[[nodiscard]] common::Status parse_pool_index(LineReader& reader,
                                              CgCheckpoint* ckpt) {
  long long count = 0;
  {
    auto v = expect_int(reader, "pool_index", 0, detail::kMaxIndexEntries);
    if (!v.ok()) return v.status();
    count = v.value();
  }
  ckpt->pool_index.reserve(static_cast<std::size_t>(count));
  for (long long i = 0; i < count; ++i) {
    PoolIndexEntry entry;
    bool record_ok = true;
    const common::Status st =
        detail::parse_index_entry(reader, &entry, &record_ok);
    if (!st.ok()) return st;
    // Semantic range checks: a structurally sound record whose dimensions
    // are nonsense degrades the index instead of rejecting the checkpoint.
    if (!record_ok ||
        common::fault_fires(common::faults::kCheckpointBadIndexRecord)) {
      ckpt->pool_index_degraded = true;
      continue;  // keep consuming the declared records
    }
    ckpt->pool_index.push_back(std::move(entry));
  }
  if (ckpt->pool_index_degraded) {
    MMWAVE_LOG_WARN << "checkpoint: pool index degraded to empty "
                       "(columns kept, neighbour index reset)";
    ckpt->pool_index.clear();
  }
  return common::Status::Ok();
}

/// Parses the session section.  Same split as the pool index: structural
/// damage is a hard error, semantic damage (an out-of-range cursor, a
/// replay-impossible field combination, or the injected
/// faults::kSessionCursorCorrupt) degrades to "no session" — the solver
/// pool stays warm, only the stream restarts its session cold.
[[nodiscard]] common::Status parse_session(LineReader& reader,
                                           CgCheckpoint* ckpt) {
  long long present = 0;
  {
    auto v = expect_int(reader, "session", 0, 1);
    if (!v.ok()) return v.status();
    present = v.value();
  }
  if (present == 0) return common::Status::Ok();
  StreamCursor s;
  bool semantic_ok = true;
  {
    const common::Status st =
        detail::parse_cursor_block(reader, &s, &semantic_ok);
    if (!st.ok()) return st;
  }
  long long num_gops_records = 0;
  {
    auto v = expect_int(reader, "gops", 0, detail::kMaxGops);
    if (!v.ok()) return v.status();
    num_gops_records = v.value();
  }
  s.gops.reserve(static_cast<std::size_t>(num_gops_records));
  for (long long i = 0; i < num_gops_records; ++i) {
    StreamGopRecord rec;
    const common::Status st =
        detail::parse_gop_record(reader, &rec, &semantic_ok);
    if (!st.ok()) return st;
    if (rec.gop != static_cast<int>(i)) semantic_ok = false;
    s.gops.push_back(rec);
  }
  // Cursor-level semantic checks: replayability requires a completed-period
  // prefix consistent with the horizon and with the per-link vectors.
  semantic_ok = semantic_ok && s.next_gop >= 1 && s.num_gops >= 1 &&
                s.next_gop <= s.num_gops &&
                static_cast<long long>(s.gops.size()) == s.next_gop &&
                static_cast<int>(s.delivered_bits.size()) == ckpt->links &&
                static_cast<int>(s.blocked.size()) == ckpt->links &&
                s.carryover_stall >= 0.0 && s.blocked_fraction_sum >= 0.0;
  // Buffer state: either absent or one entry per link, with layer
  // counters bounded by the completed-period count.
  semantic_ok = semantic_ok &&
                (s.buffers.empty() ||
                 static_cast<int>(s.buffers.size()) == ckpt->links);
  for (const StreamBufferState& b : s.buffers) {
    if (b.hp_gops_delivered > s.next_gop || b.lp_gops_delivered > s.next_gop)
      semantic_ok = false;
  }
  semantic_ok = semantic_ok &&
                !common::fault_fires(common::faults::kSessionCursorCorrupt);
  if (!semantic_ok) {
    MMWAVE_LOG_WARN << "checkpoint: session cursor degraded (solver pool "
                       "kept, stream session restarts cold)";
    ckpt->session_degraded = true;
    return common::Status::Ok();
  }
  ckpt->has_session = true;
  ckpt->session = std::move(s);
  return common::Status::Ok();
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t instance_fingerprint(
    const net::Network& net, const std::vector<video::LinkDemand>& demands) {
  FingerprintHasher h;
  const net::NetworkParams& p = net.params();
  h.add_u64(static_cast<std::uint64_t>(net.num_links()));
  h.add_u64(static_cast<std::uint64_t>(net.num_channels()));
  h.add_double(p.p_max_watts);
  h.add_double(p.noise_watts);
  h.add_double(p.bandwidth_hz);
  h.add_double(p.slot_seconds);
  h.add_u64(static_cast<std::uint64_t>(net.num_rate_levels()));
  for (int q = 0; q < net.num_rate_levels(); ++q) {
    h.add_double(net.rate_level(q).sinr_threshold);
    h.add_double(net.rate_level(q).rate_bps);
  }
  for (int l = 0; l < net.num_links(); ++l) {
    const net::Link& link = net.link(l);
    h.add_u64(static_cast<std::uint64_t>(link.tx_node));
    h.add_u64(static_cast<std::uint64_t>(link.rx_node));
    h.add_double(net.noise(l));
    for (int k = 0; k < net.num_channels(); ++k) {
      h.add_double(net.direct_gain(l, k));
      for (int m = 0; m < net.num_links(); ++m) {
        if (m != l) h.add_double(net.cross_gain(m, l, k));
      }
    }
  }
  h.add_u64(static_cast<std::uint64_t>(demands.size()));
  for (const video::LinkDemand& d : demands) {
    h.add_double(d.hp_bits);
    h.add_double(d.lp_bits);
  }
  return h.hash();
}

std::vector<PoolColumnMeta> score_pool(const net::Network& net,
                                       const CgResult& result,
                                       std::uint64_t fingerprint,
                                       std::int64_t epoch) {
  std::vector<PoolColumnMeta> meta(result.pool.size());
  for (std::size_t s = 0; s < result.pool.size(); ++s) {
    PoolColumnMeta& m = meta[s];
    m.fingerprint = fingerprint;
    m.last_used_epoch = epoch;
    m.in_basis =
        s < result.pool_tau.size() && result.pool_tau[s] > 0.0;
    double priced = 0.0;
    const auto hp =
        result.pool[s].rate_column_bits_per_slot(net, net::Layer::Hp);
    const auto lp =
        result.pool[s].rate_column_bits_per_slot(net, net::Layer::Lp);
    for (int l = 0; l < net.num_links(); ++l) {
      priced += (l < static_cast<int>(result.duals_hp.size())
                     ? result.duals_hp[l] * hp[l]
                     : 0.0) +
                (l < static_cast<int>(result.duals_lp.size())
                     ? result.duals_lp[l] * lp[l]
                     : 0.0);
    }
    m.last_reduced_cost = std::isfinite(priced) ? 1.0 - priced : 0.0;
  }
  return meta;
}

CgCheckpoint make_checkpoint(const net::Network& net,
                             const std::vector<video::LinkDemand>& demands,
                             const CgResult& result) {
  CgCheckpoint ckpt;
  ckpt.fingerprint = instance_fingerprint(net, demands);
  ckpt.links = net.num_links();
  ckpt.channels = net.num_channels();
  ckpt.iterations = result.iterations;
  ckpt.converged = result.converged;
  ckpt.total_slots = result.total_slots;
  ckpt.lower_bound = result.lower_bound;
  ckpt.duals_hp = result.duals_hp;
  ckpt.duals_lp = result.duals_lp;
  // The duals lines are fixed-width (one value per link): a solve that
  // never produced duals checkpoints zeros rather than a jagged record.
  if (static_cast<int>(ckpt.duals_hp.size()) != ckpt.links)
    ckpt.duals_hp.assign(ckpt.links, 0.0);
  if (static_cast<int>(ckpt.duals_lp.size()) != ckpt.links)
    ckpt.duals_lp.assign(ckpt.links, 0.0);
  ckpt.pool = result.pool;
  ckpt.pool_tau = result.pool_tau;
  if (ckpt.pool_tau.size() != ckpt.pool.size())
    ckpt.pool_tau.assign(ckpt.pool.size(), 0.0);
  ckpt.pool_meta = score_pool(net, result, ckpt.fingerprint, /*epoch=*/0);
  return ckpt;
}

std::string serialize_checkpoint(const CgCheckpoint& ckpt) {
  std::string body;
  body.reserve(256 + ckpt.pool.size() * 96);
  body += "fingerprint = ";
  body += hex64(ckpt.fingerprint);
  body += "\nlinks = " + std::to_string(ckpt.links);
  body += "\nchannels = " + std::to_string(ckpt.channels);
  body += "\niterations = " + std::to_string(ckpt.iterations);
  body += "\nconverged = ";
  body += ckpt.converged ? '1' : '0';
  body += "\ntotal_slots = ";
  append_double(body, ckpt.total_slots);
  body += "\nlower_bound = ";
  append_double(body, ckpt.lower_bound);
  body += "\nduals_hp =";
  for (double v : ckpt.duals_hp) {
    body += ' ';
    append_double(body, v);
  }
  body += "\nduals_lp =";
  for (double v : ckpt.duals_lp) {
    body += ' ';
    append_double(body, v);
  }
  body += "\ncolumns = " + std::to_string(ckpt.pool.size());
  body += '\n';
  for (std::size_t s = 0; s < ckpt.pool.size(); ++s) {
    detail::append_column(body, ckpt.pool[s],
                          s < ckpt.pool_tau.size() ? ckpt.pool_tau[s] : 0.0);
  }
  // Pool-metadata section: one record per column when metadata is
  // aligned, an explicit empty section otherwise (cold metadata).
  const bool have_meta = ckpt.pool_meta.size() == ckpt.pool.size();
  body += "pool_meta = " +
          std::to_string(have_meta ? ckpt.pool_meta.size() : 0);
  body += '\n';
  if (have_meta) {
    for (const PoolColumnMeta& m : ckpt.pool_meta)
      detail::append_meta_record(body, m);
  }
  // Delta-log binding, the multi-instance neighbour index, and the
  // stream-session cursor.
  body += "base_seq = " + std::to_string(ckpt.base_seq);
  body += "\npool_epoch = " + std::to_string(ckpt.pool_epoch);
  body += "\npool_index = " + std::to_string(ckpt.pool_index.size());
  body += '\n';
  for (const PoolIndexEntry& e : ckpt.pool_index)
    detail::append_index_entry(body, e);
  append_session(body, ckpt);
  body += "end\n";

  std::string out;
  out.reserve(body.size() + 64);
  out += kMagic;
  out += " v" + std::to_string(kCheckpointVersion);
  out += "\nchecksum = ";
  out += hex64(fnv1a64(body));
  out += '\n';
  out += body;
  return out;
}

[[nodiscard]] common::Expected<CgCheckpoint> parse_checkpoint(
    std::string_view text) {
  // ---- Header: magic + version, then the payload checksum ----------------
  const std::size_t first_nl = text.find('\n');
  if (first_nl == std::string_view::npos)
    return parse_error(1, "not a checkpoint (missing header line)");
  const std::string_view header = text.substr(0, first_nl);
  const std::string magic_prefix = std::string(kMagic) + " v";
  if (header.substr(0, magic_prefix.size()) != magic_prefix) {
    return parse_error(1, "not a checkpoint (bad magic '" +
                              std::string(header.substr(0, 40)) + "')");
  }
  long long version = 0;
  if (!parse_int_token(header.substr(magic_prefix.size()), 0, 1'000'000,
                       &version)) {
    return parse_error(1, "malformed version field");
  }
  if (version != kCheckpointVersion) {
    return parse_error(
        1, "unsupported checkpoint version v" + std::to_string(version) +
               " (this build reads v" + std::to_string(kCheckpointVersion) +
               " only)");
  }

  const std::size_t second_nl = text.find('\n', first_nl + 1);
  if (second_nl == std::string_view::npos)
    return parse_error(2, "truncated: missing checksum line");
  const auto checksum_tokens =
      split_tokens(text.substr(first_nl + 1, second_nl - first_nl - 1));
  std::uint64_t declared_checksum = 0;
  if (checksum_tokens.size() != 3 || checksum_tokens[0] != "checksum" ||
      checksum_tokens[1] != "=" ||
      !parse_hex64_token(checksum_tokens[2], &declared_checksum)) {
    return parse_error(2, "malformed checksum line");
  }

  // ---- Checksum over the raw payload bytes BEFORE any field parsing ------
  const std::string_view payload = text.substr(second_nl + 1);
  if (fnv1a64(payload) != declared_checksum) {
    return parse_error(
        2, "checksum mismatch (truncated or corrupted checkpoint)");
  }

  // ---- Payload fields, strict order --------------------------------------
  LineReader reader(payload, /*first_line=*/3);
  CgCheckpoint ckpt;

  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "fingerprint");
    if (!tokens.ok()) return tokens.status();
    if (tokens.value().size() != 1 ||
        !parse_hex64_token(tokens.value()[0], &ckpt.fingerprint)) {
      return parse_error(line_no, "fingerprint: expected 0x + 16 hex digits");
    }
  }
  {
    auto v = expect_int(reader, "links", 1, detail::kMaxLinks);
    if (!v.ok()) return v.status();
    ckpt.links = static_cast<int>(v.value());
  }
  {
    auto v = expect_int(reader, "channels", 1, detail::kMaxChannels);
    if (!v.ok()) return v.status();
    ckpt.channels = static_cast<int>(v.value());
  }
  {
    auto v = expect_int(reader, "iterations", 0, 1'000'000'000);
    if (!v.ok()) return v.status();
    ckpt.iterations = static_cast<int>(v.value());
  }
  {
    auto v = expect_int(reader, "converged", 0, 1);
    if (!v.ok()) return v.status();
    ckpt.converged = v.value() != 0;
  }
  {
    const int line_no = reader.line();
    auto v = expect_double(reader, "total_slots", /*allow_nan=*/false);
    if (!v.ok()) return v.status();
    if (v.value() < 0.0)
      return parse_error(line_no, "total_slots: must be >= 0");
    ckpt.total_slots = v.value();
  }
  {
    auto v = expect_double(reader, "lower_bound", /*allow_nan=*/true);
    if (!v.ok()) return v.status();
    ckpt.lower_bound = v.value();
  }
  {
    auto v = detail::parse_dual_vector(reader, "duals_hp", ckpt.links);
    if (!v.ok()) return v.status();
    ckpt.duals_hp = std::move(v.value());
  }
  {
    auto v = detail::parse_dual_vector(reader, "duals_lp", ckpt.links);
    if (!v.ok()) return v.status();
    ckpt.duals_lp = std::move(v.value());
  }
  long long num_columns = 0;
  {
    auto v = expect_int(reader, "columns", 0, detail::kMaxColumns);
    if (!v.ok()) return v.status();
    num_columns = v.value();
  }

  ckpt.pool.reserve(static_cast<std::size_t>(num_columns));
  ckpt.pool_tau.reserve(static_cast<std::size_t>(num_columns));
  for (long long s = 0; s < num_columns; ++s) {
    sched::Schedule col;
    double tau = 0.0;
    const common::Status st =
        detail::parse_column(reader, ckpt.links, ckpt.channels, &col, &tau);
    if (!st.ok()) return st;
    ckpt.pool.push_back(std::move(col));
    ckpt.pool_tau.push_back(tau);
  }

  // ---- Pool-metadata section ---------------------------------------------
  // Structural damage (wrong key, wrong token count, truncation) is a hard
  // parse error like everywhere else; *semantic* damage — a record whose
  // values are out of their documented ranges — only degrades the metadata
  // to cold (pool_meta cleared, pool_meta_degraded set).  The columns are
  // the expensive artifact; their lifecycle scores are merely advisory.
  long long num_meta = 0;
  {
    auto v = expect_int(reader, "pool_meta", 0, detail::kMaxColumns);
    if (!v.ok()) return v.status();
    num_meta = v.value();
  }
  if (num_meta != 0 && num_meta != num_columns) {
    ckpt.pool_meta_degraded = true;  // count skew: scores unusable
  }
  ckpt.pool_meta.reserve(static_cast<std::size_t>(num_meta));
  for (long long s = 0; s < num_meta; ++s) {
    PoolColumnMeta m;
    bool record_ok = true;
    const common::Status st =
        detail::parse_meta_record(reader, &m, &record_ok);
    if (!st.ok()) return st;
    if (!record_ok ||
        common::fault_fires(common::faults::kCheckpointBadPoolRecord)) {
      ckpt.pool_meta_degraded = true;
      continue;  // keep consuming the declared records
    }
    ckpt.pool_meta.push_back(m);
  }
  if (ckpt.pool_meta_degraded || ckpt.pool_meta.size() != ckpt.pool.size()) {
    if (!ckpt.pool_meta.empty() || num_meta > 0) {
      MMWAVE_LOG_WARN << "checkpoint: pool metadata degraded to cold "
                         "(columns kept, scores reset)";
    }
    ckpt.pool_meta_degraded = num_meta > 0;
    ckpt.pool_meta.clear();
  }

  // ---- Delta binding, pool index, session cursor -------------------------
  {
    auto v = expect_int(reader, "base_seq", 0,
                        std::numeric_limits<long long>::max() - 1);
    if (!v.ok()) return v.status();
    ckpt.base_seq = v.value();
  }
  {
    auto v = expect_int(reader, "pool_epoch", 0,
                        std::numeric_limits<long long>::max() - 1);
    if (!v.ok()) return v.status();
    ckpt.pool_epoch = v.value();
  }
  {
    const common::Status st = parse_pool_index(reader, &ckpt);
    if (!st.ok()) return st;
  }
  {
    const common::Status st = parse_session(reader, &ckpt);
    if (!st.ok()) return st;
  }

  // ---- Terminator + no trailing garbage ----------------------------------
  {
    std::string_view line;
    const int line_no = reader.line();
    if (!reader.next(&line) || line != "end")
      return parse_error(line_no, "truncated: missing 'end' terminator");
  }
  if (!reader.at_end()) {
    // serialize always ends with "end\n": exactly one empty tail token.
    std::string_view line;
    if (reader.next(&line) && !line.empty())
      return parse_error(reader.line() - 1, "trailing garbage after 'end'");
    if (!reader.at_end())
      return parse_error(reader.line(), "trailing garbage after 'end'");
  }
  return ckpt;
}

[[nodiscard]] common::Status write_file_atomic(const std::string& path,
                                               std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return common::Status::Error(
        common::ErrorCode::kIoError,
        "cannot open '" + tmp + "' for writing: " + std::strerror(errno));
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    return common::Status::Error(common::ErrorCode::kIoError,
                                 "short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return common::Status::Error(
        common::ErrorCode::kIoError,
        "cannot rename '" + tmp + "' to '" + path + "': " +
            std::strerror(errno));
  }
  return common::Status::Ok();
}

[[nodiscard]] common::Status detail::read_file(const std::string& path,
                                               std::string* out,
                                               bool* missing) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (missing != nullptr) *missing = errno == ENOENT;
    return common::Status::Error(
        common::ErrorCode::kIoError,
        "cannot open '" + path + "': " + std::strerror(errno));
  }
  if (missing != nullptr) *missing = false;
  out->clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return common::Status::Error(common::ErrorCode::kIoError,
                                 "read error on '" + path + "'");
  }
  return common::Status::Ok();
}

[[nodiscard]] common::Status detail::write_checkpoint_text(
    const std::string& path, std::string_view text) {
  if (common::fault_fires(common::faults::kCheckpointWriteFail)) {
    return common::Status::Error(common::ErrorCode::kIoError,
                                 "checkpoint write failed (injected fault)");
  }
  return write_file_atomic(path, text);
}

[[nodiscard]] common::Expected<CgCheckpoint> detail::parse_checkpoint_file(
    const std::string& path, std::string text) {
  // Scripted corruption: flip one payload byte; the checksum must catch it
  // and the caller must degrade to a cold start, never use the bad state.
  if (common::fault_fires(common::faults::kCheckpointCorrupt) &&
      !text.empty()) {
    text[text.size() / 2] = static_cast<char>(text[text.size() / 2] ^ 0x01);
    MMWAVE_LOG_WARN << "checkpoint '" << path
                    << "': payload byte flipped (injected fault)";
  }
  return parse_checkpoint(text);
}

[[nodiscard]] common::Status save_checkpoint(const CgCheckpoint& ckpt,
                                             const std::string& path) {
  return detail::write_checkpoint_text(path, serialize_checkpoint(ckpt));
}

[[nodiscard]] common::Expected<CgCheckpoint> load_checkpoint(
    const std::string& path) {
  std::string text;
  const common::Status st = detail::read_file(path, &text);
  if (!st.ok()) return st;
  return detail::parse_checkpoint_file(path, std::move(text));
}

}  // namespace mmwave::core
