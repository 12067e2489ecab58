// Checkpoint round-trip, corruption-matrix and fault-injection tests: the
// robustness contract of core/checkpoint.h.  A checkpoint must survive a
// save/load cycle bit-for-bit, and every corruption — truncation at any
// point, a flipped byte, version skew, a foreign fingerprint — must come
// back as a structured error that degrades to a cold start, never a crash
// or a silently wrong warm start.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "common/fault_injection.h"
#include "core/column_generation.h"
#include "core/resolve.h"

namespace mmwave::core {
namespace {

net::Network make_net(std::uint64_t seed, int links, int channels,
                      int levels) {
  common::Rng rng(seed);
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q) p.sinr_thresholds[q] = 0.1 * (q + 1);
  return net::Network::table_i(p, rng);
}

std::vector<video::LinkDemand> random_demands(const net::Network& net,
                                              std::uint64_t seed) {
  common::Rng rng(seed * 131 + 7);
  std::vector<video::LinkDemand> d(net.num_links());
  for (auto& x : d) {
    x.hp_bits = rng.uniform(500.0, 2000.0);
    x.lp_bits = rng.uniform(500.0, 2000.0);
  }
  return d;
}

/// A solved small instance and its checkpoint, shared by most tests.
struct Solved {
  net::Network net;
  std::vector<video::LinkDemand> demands;
  CgResult result;
  CgCheckpoint ckpt;
};

Solved solve_and_checkpoint(std::uint64_t seed = 1) {
  Solved s{make_net(seed, 5, 2, 3), {}, {}, {}};
  s.demands = random_demands(s.net, seed);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  s.result = solve_column_generation(s.net, s.demands, opts);
  s.ckpt = make_checkpoint(s.net, s.demands, s.result);
  return s;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(CgCheckpoint, CapturesSolverState) {
  const Solved s = solve_and_checkpoint();
  ASSERT_TRUE(s.result.converged);
  EXPECT_EQ(s.ckpt.links, s.net.num_links());
  EXPECT_EQ(s.ckpt.channels, s.net.num_channels());
  EXPECT_EQ(s.ckpt.iterations, s.result.iterations);
  EXPECT_TRUE(s.ckpt.converged);
  EXPECT_DOUBLE_EQ(s.ckpt.total_slots, s.result.total_slots);
  EXPECT_FALSE(s.ckpt.pool.empty());
  EXPECT_EQ(s.ckpt.pool.size(), s.ckpt.pool_tau.size());
  EXPECT_EQ(static_cast<int>(s.ckpt.duals_hp.size()), s.net.num_links());
  EXPECT_EQ(static_cast<int>(s.ckpt.duals_lp.size()), s.net.num_links());
  // The emitted plan's durations live inside pool_tau: they must sum to the
  // objective.
  double tau_sum = 0.0;
  for (double t : s.ckpt.pool_tau) tau_sum += t;
  EXPECT_NEAR(tau_sum, s.result.total_slots, 1e-6 * s.result.total_slots);
}

TEST(CgCheckpoint, SerializeParseSerializeIsByteIdentical) {
  const Solved s = solve_and_checkpoint();
  const std::string text = serialize_checkpoint(s.ckpt);
  const auto parsed = parse_checkpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(serialize_checkpoint(parsed.value()), text);
}

TEST(CgCheckpoint, ParseRecoversEveryField) {
  const Solved s = solve_and_checkpoint();
  const auto parsed = parse_checkpoint(serialize_checkpoint(s.ckpt));
  ASSERT_TRUE(parsed.ok());
  const CgCheckpoint& c = parsed.value();
  EXPECT_EQ(c.fingerprint, s.ckpt.fingerprint);
  EXPECT_EQ(c.links, s.ckpt.links);
  EXPECT_EQ(c.channels, s.ckpt.channels);
  EXPECT_EQ(c.iterations, s.ckpt.iterations);
  EXPECT_EQ(c.converged, s.ckpt.converged);
  EXPECT_EQ(c.total_slots, s.ckpt.total_slots);  // %.17g: bit-exact
  EXPECT_EQ(c.duals_hp, s.ckpt.duals_hp);
  EXPECT_EQ(c.duals_lp, s.ckpt.duals_lp);
  EXPECT_EQ(c.pool_tau, s.ckpt.pool_tau);
  ASSERT_EQ(c.pool.size(), s.ckpt.pool.size());
  for (std::size_t i = 0; i < c.pool.size(); ++i)
    EXPECT_EQ(c.pool[i].key(), s.ckpt.pool[i].key());
}

TEST(CgCheckpoint, NanLowerBoundRoundTrips) {
  Solved s = solve_and_checkpoint();
  s.ckpt.lower_bound = std::nan("");
  const auto parsed = parse_checkpoint(serialize_checkpoint(s.ckpt));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isnan(parsed.value().lower_bound));
}

TEST(CgCheckpoint, SaveLoadRoundTrip) {
  const Solved s = solve_and_checkpoint();
  const std::string path = temp_path("ckpt_roundtrip.txt");
  ASSERT_TRUE(save_checkpoint(s.ckpt, path).ok());
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(serialize_checkpoint(loaded.value()),
            serialize_checkpoint(s.ckpt));
  std::remove(path.c_str());
}

TEST(CgCheckpoint, FingerprintSeparatesInstances) {
  const auto net1 = make_net(1, 5, 2, 3);
  const auto net2 = make_net(2, 5, 2, 3);  // same dims, different gains
  const auto d1 = random_demands(net1, 1);
  const auto d2 = random_demands(net1, 2);
  EXPECT_EQ(instance_fingerprint(net1, d1), instance_fingerprint(net1, d1));
  EXPECT_NE(instance_fingerprint(net1, d1), instance_fingerprint(net2, d1));
  EXPECT_NE(instance_fingerprint(net1, d1), instance_fingerprint(net1, d2));
}

// ---- Corruption matrix ---------------------------------------------------

TEST(CgCheckpoint, EveryTruncationIsAStructuredError) {
  const Solved s = solve_and_checkpoint();
  const std::string text = serialize_checkpoint(s.ckpt);
  // Cut at every prefix length on a stride (plus the exact line boundaries
  // implicitly covered): none may parse, none may crash.
  for (std::size_t cut = 0; cut < text.size();
       cut += std::max<std::size_t>(1, text.size() / 257)) {
    const auto parsed = parse_checkpoint(text.substr(0, cut));
    ASSERT_FALSE(parsed.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_FALSE(parsed.status().message().empty());
  }
}

TEST(CgCheckpoint, EveryByteFlipIsCaught) {
  const Solved s = solve_and_checkpoint();
  const std::string text = serialize_checkpoint(s.ckpt);
  // Flip one bit at a stride of positions across the whole file.  Flips in
  // the payload break the checksum; flips in the two header lines break
  // magic/version/checksum parsing.  Either way: structured error.
  for (std::size_t pos = 0; pos < text.size();
       pos += std::max<std::size_t>(1, text.size() / 131)) {
    std::string bad = text;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x08);
    const auto parsed = parse_checkpoint(bad);
    if (parsed.ok()) {
      // The only tolerated survivor: a flip that leaves the bytes equal
      // (impossible with XOR) — so this must never happen.
      ADD_FAILURE() << "byte flip at " << pos << " went undetected";
    } else {
      EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
    }
  }
}

TEST(CgCheckpoint, VersionSkewIsDiagnosed) {
  const Solved s = solve_and_checkpoint();
  std::string text = serialize_checkpoint(s.ckpt);
  // One past the version this build writes: must be refused.
  const std::string tag = "checkpoint v" + std::to_string(kCheckpointVersion);
  text.replace(text.find(tag), tag.size(),
               "checkpoint v" + std::to_string(kCheckpointVersion + 1));
  const auto parsed = parse_checkpoint(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("version"), std::string::npos);
}

TEST(CgCheckpoint, RejectsEmptyAndGarbage) {
  EXPECT_FALSE(parse_checkpoint("").ok());
  EXPECT_FALSE(parse_checkpoint("\n").ok());
  EXPECT_FALSE(parse_checkpoint("not a checkpoint\n").ok());
  EXPECT_FALSE(parse_checkpoint(std::string(4096, 'x')).ok());
  EXPECT_FALSE(parse_checkpoint(std::string("\0\0\0\0", 4)).ok());
}

TEST(CgCheckpoint, RejectsTrailingGarbage) {
  const Solved s = solve_and_checkpoint();
  std::string text = serialize_checkpoint(s.ckpt);
  text += "extra\n";
  EXPECT_FALSE(parse_checkpoint(text).ok());
}

TEST(CgCheckpoint, LoadOfMissingFileIsIoError) {
  const auto loaded = load_checkpoint(temp_path("does_not_exist.ckpt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::ErrorCode::kIoError);
}

// ---- Pool-metadata section --------------------------------------------

/// Reassembles a checkpoint after editing its payload: fresh checksum over
/// the mutated payload, requested version in the magic line.  This is how
/// the tests fabricate older-version files and semantically-damaged files
/// that are still structurally (checksum-)valid.
std::string reassemble(const std::string& text, int version,
                       const std::function<void(std::string&)>& mutate) {
  const std::size_t first_nl = text.find('\n');
  const std::size_t second_nl = text.find('\n', first_nl + 1);
  std::string payload = text.substr(second_nl + 1);
  mutate(payload);
  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "0x%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return "mmwave-cg-checkpoint v" + std::to_string(version) +
         "\nchecksum = " + checksum + "\n" + payload;
}

/// Drops everything from the pool_meta section to the terminator, leaving
/// exactly the v1 payload layout.
void strip_pool_meta(std::string& payload) {
  const std::size_t start = payload.find("pool_meta = ");
  ASSERT_NE(start, std::string::npos);
  const std::size_t end = payload.find("end\n", start);
  ASSERT_NE(end, std::string::npos);
  payload.erase(start, end - start);
}

TEST(CgCheckpoint, PoolMetadataRoundTrips) {
  const Solved s = solve_and_checkpoint();
  ASSERT_EQ(s.ckpt.pool_meta.size(), s.ckpt.pool.size());
  const auto parsed = parse_checkpoint(serialize_checkpoint(s.ckpt));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const CgCheckpoint& c = parsed.value();
  EXPECT_FALSE(c.pool_meta_degraded);
  ASSERT_EQ(c.pool_meta.size(), s.ckpt.pool_meta.size());
  for (std::size_t i = 0; i < c.pool_meta.size(); ++i) {
    EXPECT_EQ(c.pool_meta[i].fingerprint, s.ckpt.pool_meta[i].fingerprint);
    EXPECT_EQ(c.pool_meta[i].last_used_epoch,
              s.ckpt.pool_meta[i].last_used_epoch);
    EXPECT_EQ(c.pool_meta[i].in_basis, s.ckpt.pool_meta[i].in_basis);
    // %.17g round-trips doubles bit-exactly.
    EXPECT_EQ(c.pool_meta[i].last_reduced_cost,
              s.ckpt.pool_meta[i].last_reduced_cost);
  }
  // Basis membership in the metadata agrees with the tau vector.
  for (std::size_t i = 0; i < c.pool_meta.size(); ++i)
    EXPECT_EQ(c.pool_meta[i].in_basis, c.pool_tau[i] > 0.0);
}

TEST(CgCheckpoint, SemanticallyBadMetaRecordDegradesToColdMetadata) {
  const Solved s = solve_and_checkpoint();
  ASSERT_GE(s.ckpt.pool_meta.size(), 1u);
  const std::string bad = reassemble(
      serialize_checkpoint(s.ckpt), kCheckpointVersion,
      [](std::string& payload) {
        // Poison the first record's reduced cost: "nan" is token-shaped
        // (structure intact) but semantically out of range for rc.
        const std::size_t meta = payload.find("\nmeta = ");
        ASSERT_NE(meta, std::string::npos);
        const std::size_t eol = payload.find('\n', meta + 1);
        std::string line = payload.substr(meta + 1, eol - meta - 1);
        const std::size_t last_space = line.rfind(' ');
        const std::size_t rc_space = line.rfind(' ', last_space - 1);
        line.replace(rc_space + 1, last_space - rc_space - 1, "nan");
        payload.replace(meta + 1, eol - meta - 1, line);
      });
  const auto parsed = parse_checkpoint(bad);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  // Columns kept, scores reset: never reject the checkpoint over advisory
  // metadata.
  EXPECT_TRUE(parsed.value().pool_meta_degraded);
  EXPECT_TRUE(parsed.value().pool_meta.empty());
  EXPECT_EQ(parsed.value().pool.size(), s.ckpt.pool.size());
}

TEST(CgCheckpoint, MetaCountSkewDegradesToColdMetadata) {
  const Solved s = solve_and_checkpoint();
  ASSERT_GE(s.ckpt.pool_meta.size(), 2u);
  const std::string skewed = reassemble(
      serialize_checkpoint(s.ckpt), kCheckpointVersion,
      [&s](std::string& payload) {
        // Declare one record fewer and drop the last one: structurally
        // sound, but the count no longer matches the column count.
        const std::size_t n = s.ckpt.pool_meta.size();
        const std::string decl = "pool_meta = " + std::to_string(n);
        const std::size_t at = payload.find(decl);
        ASSERT_NE(at, std::string::npos);
        payload.replace(at, decl.size(),
                        "pool_meta = " + std::to_string(n - 1));
        const std::size_t last = payload.rfind("meta = ");
        const std::size_t eol = payload.find('\n', last);
        payload.erase(last, eol - last + 1);
      });
  const auto parsed = parse_checkpoint(skewed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed.value().pool_meta_degraded);
  EXPECT_TRUE(parsed.value().pool_meta.empty());
  EXPECT_EQ(parsed.value().pool.size(), s.ckpt.pool.size());
}

TEST(CgCheckpoint, StructuralMetaDamageIsStillAHardError) {
  const Solved s = solve_and_checkpoint();
  const std::string broken = reassemble(
      serialize_checkpoint(s.ckpt), kCheckpointVersion,
      [](std::string& payload) {
        // A misspelled record key is structural damage, not a bad value.
        const std::size_t at = payload.find("\nmeta = ");
        ASSERT_NE(at, std::string::npos);
        payload.replace(at, 8, "\nmta = x");
      });
  const auto parsed = parse_checkpoint(broken);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
}

// ---- Fault injection -----------------------------------------------------

TEST(CgCheckpoint, InjectedWriteFailureIsIoError) {
  const Solved s = solve_and_checkpoint();
  const std::string path = temp_path("ckpt_write_fail.txt");
  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointWriteFail, {.times = 1});
  common::FaultScope scope(inj);
  const common::Status st = save_checkpoint(s.ckpt, path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::ErrorCode::kIoError);
  EXPECT_EQ(inj.fired(common::faults::kCheckpointWriteFail), 1);
  // Nothing may be left behind at the target path.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(CgCheckpoint, InjectedBadPoolRecordDegradesMetadataOnly) {
  const Solved s = solve_and_checkpoint();
  const std::string text = serialize_checkpoint(s.ckpt);

  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointBadPoolRecord, {.times = 1});
  common::FaultScope scope(inj);
  const auto parsed = parse_checkpoint(text);
  EXPECT_EQ(inj.fired(common::faults::kCheckpointBadPoolRecord), 1);
  // The injected bad record costs the metadata, never the checkpoint: the
  // pool is intact and a resolve from it still certifies the optimum.
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed.value().pool_meta_degraded);
  EXPECT_TRUE(parsed.value().pool_meta.empty());
  ASSERT_EQ(parsed.value().pool.size(), s.ckpt.pool.size());
  const ResolveResult r = resolve(s.net, s.demands, parsed.value(), CgOptions{});
  EXPECT_TRUE(r.used_checkpoint);
  EXPECT_TRUE(r.cg.converged);
  EXPECT_NEAR(r.cg.total_slots, s.result.total_slots,
              1e-7 * s.result.total_slots);
}

TEST(CgCheckpoint, InjectedPayloadCorruptionDegradesToColdStart) {
  const Solved s = solve_and_checkpoint();
  const std::string path = temp_path("ckpt_corrupt.txt");
  ASSERT_TRUE(save_checkpoint(s.ckpt, path).ok());

  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointCorrupt, {.times = 1});
  common::FaultScope scope(inj);
  // The flipped byte must fail the checksum and resolve_from_file must fall
  // back to a cold solve that still reaches the optimum.
  const ResolveResult r =
      resolve_from_file(path, s.net, s.demands, CgOptions{});
  EXPECT_EQ(inj.fired(common::faults::kCheckpointCorrupt), 1);
  EXPECT_FALSE(r.used_checkpoint);
  EXPECT_FALSE(r.checkpoint_status.ok());
  EXPECT_TRUE(r.cg.converged);
  EXPECT_NEAR(r.cg.total_slots, s.result.total_slots,
              1e-7 * s.result.total_slots);
  std::remove(path.c_str());
}

// ---- Pool index + stream-session cursor ----------------------------------

StreamCursor make_cursor(int links, int next_gop, int num_gops) {
  StreamCursor c;
  c.next_gop = next_gop;
  c.num_gops = num_gops;
  c.session_fingerprint = 0x5EED5EED5EED5EEDULL;
  c.carryover_stall = 1.5;
  c.blocked_fraction_sum = 0.75;
  c.invalidated_periods = 1;
  c.exec_transmissions_dropped = 2;
  c.plan_digest = 0xD16E57D16E57D165ULL;
  c.delivered_bits.assign(links, 1234.5);
  c.blocked.assign(links, 0);
  c.blocked[0] = 1;
  c.counters.periods = next_gop;
  c.counters.resolves = next_gop;
  c.counters.pool_hits = next_gop - 1;
  c.counters.pool_misses = 1;
  c.counters.columns_loaded = 7;
  c.counters.columns_reused = 6;
  c.counters.columns_repaired = 1;
  c.counters.columns_dropped = 1;
  c.counters.transmissions_dropped = 1;
  c.counters.pool_evicted = 3;
  c.counters.pool_neighbour_seeded = 2;
  for (int g = 0; g < next_gop; ++g) {
    StreamGopRecord r;
    r.gop = g;
    r.demand_bits = 1000.0 + g;
    r.schedule_slots = 10.0 + g;
    r.budget_slots = 20.0;
    r.on_time = g % 2 == 0;
    r.stall_slots = r.on_time ? 0.0 : 0.5;
    c.gops.push_back(r);
  }
  return c;
}

/// A solved checkpoint with the index and session sections populated.
Solved solve_with_v3_state() {
  Solved s = solve_and_checkpoint();
  s.ckpt.base_seq = 4;
  s.ckpt.pool_epoch = 17;
  PoolIndexEntry a;
  a.fingerprint = s.ckpt.fingerprint;
  a.links = 5;
  a.channels = 2;
  a.last_epoch = 17;
  a.features = {0.5, 1.25, -3.0};
  PoolIndexEntry b;
  b.fingerprint = 0xFEEDFACEFEEDFACEULL;
  b.links = 5;
  b.channels = 2;
  b.last_epoch = 9;
  s.ckpt.pool_index = {a, b};
  s.ckpt.has_session = true;
  s.ckpt.session = make_cursor(5, 3, 8);
  return s;
}

/// Turns a payload into the v2 layout: drop everything from the
/// delta-binding line through the session section (the range v2 never
/// wrote).
void strip_v3_sections(std::string& payload) {
  const std::size_t start = payload.find("base_seq = ");
  ASSERT_NE(start, std::string::npos);
  const std::size_t end = payload.find("end\n", start);
  ASSERT_NE(end, std::string::npos);
  payload.erase(start, end - start);
}

TEST(CgCheckpoint, V3SessionAndIndexRoundTrip) {
  const Solved s = solve_with_v3_state();
  const std::string text = serialize_checkpoint(s.ckpt);
  const auto parsed = parse_checkpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const CgCheckpoint& c = parsed.value();
  EXPECT_EQ(serialize_checkpoint(c), text);

  EXPECT_EQ(c.base_seq, 4);
  EXPECT_EQ(c.pool_epoch, 17);
  EXPECT_FALSE(c.pool_index_degraded);
  ASSERT_EQ(c.pool_index.size(), 2u);
  EXPECT_EQ(c.pool_index[0].fingerprint, s.ckpt.fingerprint);
  EXPECT_EQ(c.pool_index[0].features, s.ckpt.pool_index[0].features);
  EXPECT_EQ(c.pool_index[1].last_epoch, 9);
  EXPECT_TRUE(c.pool_index[1].features.empty());

  ASSERT_TRUE(c.has_session);
  EXPECT_FALSE(c.session_degraded);
  const StreamCursor& cur = c.session;
  EXPECT_EQ(cur.next_gop, 3);
  EXPECT_EQ(cur.num_gops, 8);
  EXPECT_EQ(cur.session_fingerprint, s.ckpt.session.session_fingerprint);
  EXPECT_EQ(cur.carryover_stall, 1.5);  // %.17g: bit-exact
  EXPECT_EQ(cur.delivered_bits, s.ckpt.session.delivered_bits);
  EXPECT_EQ(cur.blocked, s.ckpt.session.blocked);
  EXPECT_EQ(cur.plan_digest, s.ckpt.session.plan_digest);
  EXPECT_EQ(cur.counters.pool_neighbour_seeded, 2);
  ASSERT_EQ(cur.gops.size(), 3u);
  EXPECT_EQ(cur.gops[2].gop, 2);
  EXPECT_EQ(cur.gops[1].stall_slots, 0.5);
}

TEST(CgCheckpoint, V3FileSurvivesSaveAndLoad) {
  const Solved s = solve_with_v3_state();
  const std::string path = temp_path("ckpt_v3_roundtrip.txt");
  ASSERT_TRUE(save_checkpoint(s.ckpt, path).ok());
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(serialize_checkpoint(loaded.value()),
            serialize_checkpoint(s.ckpt));
  std::remove(path.c_str());
}

/// Turns a payload into the v3 layout: drop the session cursor's client
/// buffer line (the one line v3 never wrote).
void strip_buffers_line(std::string& payload) {
  const std::size_t start = payload.find("buffers = ");
  ASSERT_NE(start, std::string::npos);
  payload.erase(start, payload.find('\n', start) + 1 - start);
}

/// Only kCheckpointVersion is read.  A genuine older layout with a valid
/// checksum is refused as version skew, and a resolve from such a file
/// cold-starts to the optimum.
void expect_refused_and_cold_start(const Solved& s, int version,
                                   const std::string& text) {
  const auto parsed = parse_checkpoint(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
  EXPECT_NE(
      parsed.status().message().find("version v" + std::to_string(version)),
      std::string::npos)
      << parsed.status().message();

  const std::string path = temp_path("ckpt_older_version.txt");
  ASSERT_TRUE(write_file_atomic(path, text).ok());
  const ResolveResult r =
      resolve_from_file(path, s.net, s.demands, CgOptions{});
  EXPECT_FALSE(r.used_checkpoint);
  EXPECT_TRUE(r.cg.converged);
  EXPECT_NEAR(r.cg.total_slots, s.result.total_slots,
              1e-7 * s.result.total_slots);
  std::remove(path.c_str());
}

/// v1: no pool-metadata section.
TEST(CgCheckpoint, V1CheckpointIsRefusedAndColdStarts) {
  const Solved s = solve_with_v3_state();
  expect_refused_and_cold_start(
      s, 1, reassemble(serialize_checkpoint(s.ckpt), 1, strip_pool_meta));
}

/// v2: no index or session sections.
TEST(CgCheckpoint, V2FileIsRefusedAndColdStarts) {
  const Solved s = solve_with_v3_state();
  expect_refused_and_cold_start(
      s, 2, reassemble(serialize_checkpoint(s.ckpt), 2, strip_v3_sections));
}

/// v3: no client buffer line in the session cursor.
TEST(CgCheckpoint, V3FileWithoutBuffersIsRefusedAndColdStarts) {
  const Solved s = solve_with_v3_state();
  expect_refused_and_cold_start(
      s, 3, reassemble(serialize_checkpoint(s.ckpt), 3, strip_buffers_line));
}

TEST(CgCheckpoint, V3SectionsInAV2FileAreRejected) {
  const Solved s = solve_with_v3_state();
  // Same bytes, version stamp lowered to one that never carried these
  // sections: the strict parser must refuse it.
  const std::string bad = reassemble(serialize_checkpoint(s.ckpt),
                                     /*version=*/2, [](std::string&) {});
  const auto parsed = parse_checkpoint(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
}

TEST(CgCheckpoint, SemanticallyBadCursorDegradesSessionOnly) {
  const Solved s = solve_with_v3_state();
  const std::string damaged = reassemble(
      serialize_checkpoint(s.ckpt), kCheckpointVersion,
      [](std::string& payload) {
        // next_gop beyond num_gops: structurally fine, semantically stale.
        const std::size_t at = payload.find("cursor = 3 8 ");
        ASSERT_NE(at, std::string::npos);
        payload.replace(at, 13, "cursor = 9 8 ");
      });
  const auto parsed = parse_checkpoint(damaged);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const CgCheckpoint& c = parsed.value();
  EXPECT_TRUE(c.session_degraded);
  EXPECT_FALSE(c.has_session);
  // Solver state is untouched: warm pool, metadata, index all intact.
  EXPECT_EQ(c.pool.size(), s.ckpt.pool.size());
  EXPECT_FALSE(c.pool_meta.empty());
  EXPECT_EQ(c.pool_index.size(), 2u);
  EXPECT_FALSE(c.pool_index_degraded);
}

TEST(CgCheckpoint, SemanticallyBadIndexRecordDegradesIndexOnly) {
  const Solved s = solve_with_v3_state();
  const std::string damaged = reassemble(
      serialize_checkpoint(s.ckpt), kCheckpointVersion,
      [](std::string& payload) {
        // links = 0 parses but no instance can have it.
        const std::size_t inst = payload.find("inst = ");
        ASSERT_NE(inst, std::string::npos);
        const std::size_t dims = payload.find(" 5 2 ", inst);
        ASSERT_NE(dims, std::string::npos);
        payload.replace(dims, 5, " 0 2 ");
      });
  const auto parsed = parse_checkpoint(damaged);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const CgCheckpoint& c = parsed.value();
  EXPECT_TRUE(c.pool_index_degraded);
  EXPECT_TRUE(c.pool_index.empty());
  // The cursor and the solver pool ride through unharmed.
  EXPECT_TRUE(c.has_session);
  EXPECT_FALSE(c.session_degraded);
  EXPECT_EQ(c.pool.size(), s.ckpt.pool.size());
}

TEST(CgCheckpoint, StructuralCursorDamageIsStillAHardError) {
  const Solved s = solve_with_v3_state();
  const std::string broken = reassemble(
      serialize_checkpoint(s.ckpt), kCheckpointVersion,
      [](std::string& payload) {
        const std::size_t at = payload.find("\ndelivered = ");
        ASSERT_NE(at, std::string::npos);
        payload.replace(at, 13, "\ndelivred = x");
      });
  const auto parsed = parse_checkpoint(broken);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
}

TEST(CgCheckpoint, InjectedSessionCursorCorruptDegradesSessionOnly) {
  const Solved s = solve_with_v3_state();
  const std::string text = serialize_checkpoint(s.ckpt);

  common::FaultInjector inj;
  inj.arm(common::faults::kSessionCursorCorrupt, {.times = 1});
  common::FaultScope scope(inj);
  const auto parsed = parse_checkpoint(text);
  EXPECT_EQ(inj.fired(common::faults::kSessionCursorCorrupt), 1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  // The injected corrupt cursor costs the session, never the checkpoint:
  // the pool still resolves to the certified optimum.
  EXPECT_TRUE(parsed.value().session_degraded);
  EXPECT_FALSE(parsed.value().has_session);
  ASSERT_EQ(parsed.value().pool.size(), s.ckpt.pool.size());
  const ResolveResult r =
      resolve(s.net, s.demands, parsed.value(), CgOptions{});
  EXPECT_TRUE(r.used_checkpoint);
  EXPECT_TRUE(r.cg.converged);
  EXPECT_NEAR(r.cg.total_slots, s.result.total_slots,
              1e-7 * s.result.total_slots);
}

TEST(CgCheckpoint, InjectedBadIndexRecordDegradesIndexOnly) {
  const Solved s = solve_with_v3_state();
  const std::string text = serialize_checkpoint(s.ckpt);

  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointBadIndexRecord, {.times = 1});
  common::FaultScope scope(inj);
  const auto parsed = parse_checkpoint(text);
  EXPECT_EQ(inj.fired(common::faults::kCheckpointBadIndexRecord), 1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed.value().pool_index_degraded);
  EXPECT_TRUE(parsed.value().pool_index.empty());
  EXPECT_TRUE(parsed.value().has_session);
  ASSERT_EQ(parsed.value().pool.size(), s.ckpt.pool.size());
}

}  // namespace
}  // namespace mmwave::core
