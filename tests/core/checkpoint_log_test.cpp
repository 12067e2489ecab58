// Delta-log contract tests: the replay-equality and degradation-ladder
// guarantees of core/checkpoint_log.h.  Loading base + deltas must be
// byte-equivalent to a full rewrite of the last saved state; every damage
// mode — torn append, crashed compaction, stale chain, missing base — must
// land on a rung of the ladder (drop tail -> last good base -> cold start)
// and never on a crash or a silently wrong state.
#include "core/checkpoint_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/column_generation.h"

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

CgCheckpoint solved_checkpoint(std::uint64_t seed = 1) {
  const net::Network net = make_net(seed, 5, 2, 3);
  const auto demands = random_demands(net, seed);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  const CgResult result = solve_column_generation(net, demands, opts);
  CgCheckpoint ckpt = make_checkpoint(net, demands, result);
  // The delta writer needs the pool/tau/meta triple aligned to diff it.
  if (ckpt.pool_meta.size() != ckpt.pool.size())
    ckpt.pool_meta.assign(ckpt.pool.size(), PoolColumnMeta{});
  return ckpt;
}

StreamGopRecord gop_record(int gop) {
  StreamGopRecord r;
  r.gop = gop;
  r.demand_bits = 1000.0 + gop;
  r.schedule_slots = 10.0 + gop;
  r.budget_slots = 20.0;
  r.on_time = gop % 2 == 0;
  r.stall_slots = r.on_time ? 0.0 : 0.5;
  return r;
}

StreamCursor make_cursor(int links, int next_gop, int num_gops) {
  StreamCursor c;
  c.next_gop = next_gop;
  c.num_gops = num_gops;
  c.session_fingerprint = 0x5EED5EED5EED5EEDULL;
  c.carryover_stall = 0.25 * next_gop;
  c.blocked_fraction_sum = 0.125 * next_gop;
  c.invalidated_periods = 0;
  c.exec_transmissions_dropped = 0;
  c.plan_digest = 0xD16E57ULL + static_cast<std::uint64_t>(next_gop);
  c.delivered_bits.assign(links, 100.0 * next_gop);
  c.blocked.assign(links, 0);
  c.blocked[0] = 1;
  c.counters.periods = next_gop;
  c.counters.resolves = next_gop;
  c.counters.pool_hits = next_gop > 1 ? next_gop - 1 : 0;
  c.counters.pool_misses = next_gop > 0 ? 1 : 0;
  for (int g = 0; g < next_gop; ++g) c.gops.push_back(gop_record(g));
  return c;
}

/// One streaming period's worth of state change: refreshed header/duals,
/// one column scored differently, the session cursor advanced one GOP.
/// Exactly the shape the delta grammar is built for.
CgCheckpoint advance(const CgCheckpoint& prev, int step) {
  CgCheckpoint next = prev;
  next.iterations += 1;
  next.total_slots += 0.0;  // objective unchanged; header rewritten anyway
  for (double& d : next.duals_hp) d += 1e-4;
  if (!next.pool_meta.empty()) {
    next.pool_meta[0].last_used_epoch += 1;
    next.pool_meta[0].last_reduced_cost -= 1e-6;
  }
  next.pool_epoch = prev.pool_epoch + 1;
  const int links = next.links;
  const int done = next.has_session ? next.session.next_gop : 0;
  next.session = make_cursor(links, done + 1, 10);
  next.has_session = true;
  (void)step;
  return next;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

void remove_log(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".delta").c_str());
}

std::string slurp(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool spit(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  return std::fclose(f) == 0 && written == bytes.size();
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// serialize_checkpoint with base_seq pinned, for comparing states that
/// legitimately differ only in their compaction counter.
std::string serialize_at_seq(CgCheckpoint c, std::int64_t seq) {
  c.base_seq = seq;
  return serialize_checkpoint(c);
}

TEST(CheckpointLog, FreshOpenIsColdAndFirstSaveCompacts) {
  const std::string path = temp_path("log_fresh.txt");
  remove_log(path);
  CheckpointLog log(path);
  const CheckpointLogLoad opened = log.open();
  EXPECT_FALSE(opened.loaded);
  EXPECT_FALSE(opened.base_damaged);
  EXPECT_FALSE(opened.tail_dropped);

  const CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  EXPECT_EQ(log.stats().saves, 1);
  EXPECT_EQ(log.stats().full_saves, 1);
  EXPECT_EQ(log.stats().delta_saves, 0);
  EXPECT_EQ(log.stats().compactions, 1);

  // The base file IS an ordinary checkpoint of the saved state.
  EXPECT_EQ(slurp(path), serialize_at_seq(ckpt, log.base_seq()));
  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.deltas_applied, 0);
  remove_log(path);
}

TEST(CheckpointLog, DeltaReplayEqualsFullRewriteAfterEverySave) {
  const std::string path = temp_path("log_replay.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  for (int step = 0; step < 5; ++step) {
    ckpt = advance(ckpt, step);
    ASSERT_TRUE(log.save(ckpt).ok());
    const CheckpointLogLoad loaded = load_checkpoint_log(path);
    ASSERT_TRUE(loaded.loaded);
    EXPECT_FALSE(loaded.tail_dropped);
    EXPECT_EQ(loaded.deltas_applied, step + 1);
    // The replayed state serializes byte-identically to what a full
    // rewrite of the latest state would have written.
    EXPECT_EQ(serialize_checkpoint(loaded.state),
              serialize_at_seq(ckpt, log.base_seq()));
  }
  EXPECT_EQ(log.stats().delta_saves, 5);
  EXPECT_EQ(log.stats().full_saves, 1);
  remove_log(path);
}

TEST(CheckpointLog, DeltaHandlesColumnDropsAndAdds) {
  const std::string path = temp_path("log_pool_churn.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint(1);
  ASSERT_TRUE(log.save(ckpt).ok());

  // Drop a mid-pool column (eviction)...
  ASSERT_GE(ckpt.pool.size(), 2u);
  ckpt.pool.erase(ckpt.pool.begin());
  ckpt.pool_tau.erase(ckpt.pool_tau.begin());
  ckpt.pool_meta.erase(ckpt.pool_meta.begin());
  ASSERT_TRUE(log.save(ckpt).ok());

  // ...and append a column this pool has never seen (pricing found one).
  const CgCheckpoint other = solved_checkpoint(7);
  bool added = false;
  for (const sched::Schedule& col : other.pool) {
    bool known = false;
    for (const sched::Schedule& mine : ckpt.pool)
      if (mine.key() == col.key()) known = true;
    if (known) continue;
    ckpt.pool.push_back(col);
    ckpt.pool_tau.push_back(0.0);
    ckpt.pool_meta.push_back(PoolColumnMeta{});
    added = true;
    break;
  }
  ASSERT_TRUE(added) << "seeds 1 and 7 produced identical pools";
  ASSERT_TRUE(log.save(ckpt).ok());
  EXPECT_EQ(log.stats().delta_saves, 2);

  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.deltas_applied, 2);
  EXPECT_EQ(serialize_checkpoint(loaded.state),
            serialize_at_seq(ckpt, log.base_seq()));
  remove_log(path);
}

TEST(CheckpointLog, CompactionIsByteIdenticalAndClearsTheChain) {
  const std::string path = temp_path("log_compact.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  for (int step = 0; step < 3; ++step) {
    ckpt = advance(ckpt, step);
    ASSERT_TRUE(log.save(ckpt).ok());
  }
  const std::string via_deltas =
      serialize_at_seq(load_checkpoint_log(path).state, 0);

  ASSERT_TRUE(log.compact(ckpt).ok());
  EXPECT_FALSE(file_exists(path + ".delta"));
  EXPECT_EQ(slurp(path), serialize_at_seq(ckpt, log.base_seq()));
  // Modulo the bumped compaction counter, the compacted base holds exactly
  // the state the delta chain replayed to.
  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.deltas_applied, 0);
  EXPECT_EQ(serialize_at_seq(loaded.state, 0), via_deltas);
  remove_log(path);
}

TEST(CheckpointLog, CompactEveryBoundsTheChainLength) {
  const std::string path = temp_path("log_cadence.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 2});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(log.save(ckpt).ok());
    ckpt = advance(ckpt, step);
  }
  // save 1 compacts (no shadow), 2-3 delta, 4 compacts (chain at limit),
  // 5 delta.
  EXPECT_EQ(log.stats().saves, 5);
  EXPECT_EQ(log.stats().full_saves, 2);
  EXPECT_EQ(log.stats().delta_saves, 3);
  remove_log(path);
}

TEST(CheckpointLog, InexpressibleChangeFallsBackToCompaction) {
  const std::string path = temp_path("log_fallback.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  // Reordering survivors violates the pool-order discipline the delta
  // grammar assumes; the writer must fall back to a full rewrite.
  ASSERT_GE(ckpt.pool.size(), 2u);
  std::swap(ckpt.pool.front(), ckpt.pool.back());
  std::swap(ckpt.pool_tau.front(), ckpt.pool_tau.back());
  std::swap(ckpt.pool_meta.front(), ckpt.pool_meta.back());
  ASSERT_TRUE(log.save(ckpt).ok());
  EXPECT_EQ(log.stats().full_saves, 2);
  EXPECT_EQ(log.stats().delta_saves, 0);

  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(serialize_checkpoint(loaded.state),
            serialize_at_seq(ckpt, log.base_seq()));
  remove_log(path);
}

TEST(CheckpointLog, StaleChainCannotBindToANewerBase) {
  const std::string path = temp_path("log_stale.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  ckpt = advance(ckpt, 0);
  ASSERT_TRUE(log.save(ckpt).ok());
  const std::string old_chain = slurp(path + ".delta");
  ASSERT_FALSE(old_chain.empty());

  // Compact (bumps base_seq), then resurrect the pre-compaction chain —
  // the crash-ordering that would corrupt a log without sequence binding.
  ckpt = advance(ckpt, 1);
  ASSERT_TRUE(log.compact(ckpt).ok());
  ASSERT_TRUE(spit(path + ".delta", old_chain));

  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.deltas_applied, 0);
  EXPECT_TRUE(loaded.tail_dropped);
  EXPECT_EQ(loaded.tail_bytes_dropped,
            static_cast<std::int64_t>(old_chain.size()));
  EXPECT_EQ(serialize_checkpoint(loaded.state),
            serialize_at_seq(ckpt, log.base_seq()));
  remove_log(path);
}

TEST(CheckpointLog, TornTailIsDroppedAndHealedOnDisk) {
  const std::string path = temp_path("log_torn.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  ckpt = advance(ckpt, 0);
  ASSERT_TRUE(log.save(ckpt).ok());
  ckpt = advance(ckpt, 1);
  ASSERT_TRUE(log.save(ckpt).ok());

  // Tear the chain mid-block: keep the first delta whole, truncate into
  // the second's payload.
  const std::string chain = slurp(path + ".delta");
  const std::size_t second = chain.find("delta = ", 8);
  ASSERT_NE(second, std::string::npos);
  const std::size_t cut = second + (chain.size() - second) / 2;
  ASSERT_TRUE(spit(path + ".delta", chain.substr(0, cut)));

  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_TRUE(loaded.tail_dropped);
  EXPECT_EQ(loaded.deltas_applied, 1);
  EXPECT_GT(loaded.tail_bytes_dropped, 0);
  // The load healed the chain to its valid prefix: a second load is clean.
  const CheckpointLogLoad again = load_checkpoint_log(path);
  ASSERT_TRUE(again.loaded);
  EXPECT_FALSE(again.tail_dropped);
  EXPECT_EQ(again.deltas_applied, 1);
  EXPECT_EQ(serialize_checkpoint(again.state),
            serialize_checkpoint(loaded.state));
  remove_log(path);
}

TEST(CheckpointLog, BitFlippedBlockIsCaughtByItsChecksum) {
  const std::string path = temp_path("log_bitrot.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  ckpt = advance(ckpt, 0);
  ASSERT_TRUE(log.save(ckpt).ok());

  std::string chain = slurp(path + ".delta");
  ASSERT_GT(chain.size(), 40u);
  chain[chain.size() / 2] ^= 0x01;  // one bit, mid-payload
  ASSERT_TRUE(spit(path + ".delta", chain));

  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_TRUE(loaded.tail_dropped);
  EXPECT_EQ(loaded.deltas_applied, 0);
  // The state is the base, not a half-applied delta.
  EXPECT_EQ(serialize_checkpoint(loaded.state),
            serialize_at_seq(solved_checkpoint(), log.base_seq()));
  remove_log(path);
}

TEST(CheckpointLog, ChainWithoutABaseIsDiscarded) {
  const std::string path = temp_path("log_orphan.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  ckpt = advance(ckpt, 0);
  ASSERT_TRUE(log.save(ckpt).ok());
  std::remove(path.c_str());

  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  EXPECT_FALSE(loaded.loaded);
  EXPECT_FALSE(loaded.base_damaged);  // missing, not corrupt: plain cold
  EXPECT_TRUE(loaded.tail_dropped);
  EXPECT_GT(loaded.tail_bytes_dropped, 0);
  // The orphan chain was removed so a future base rewrite cannot collide
  // with blocks from a previous life.
  EXPECT_FALSE(file_exists(path + ".delta"));
  remove_log(path);
}

TEST(CheckpointLog, InjectedTornWriteFailsTheSaveThenSelfHeals) {
  const std::string path = temp_path("log_fault_torn.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());

  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointDeltaTornWrite, {.times = 1});
  common::FaultScope scope(inj);

  ckpt = advance(ckpt, 0);
  const common::Status torn = log.save(ckpt);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.code(), common::ErrorCode::kIoError);
  EXPECT_EQ(inj.fired(common::faults::kCheckpointDeltaTornWrite), 1);

  // The half-written block is dropped on load: on-disk state is the
  // previous save, not garbage.
  const CheckpointLogLoad after_tear = load_checkpoint_log(path);
  ASSERT_TRUE(after_tear.loaded);
  EXPECT_TRUE(after_tear.tail_dropped);
  EXPECT_EQ(after_tear.deltas_applied, 0);

  // The writer knows its tail is suspect: the next save compacts and the
  // lost update is persisted after all.
  ASSERT_TRUE(log.save(ckpt).ok());
  EXPECT_EQ(log.stats().compactions, 2);
  const CheckpointLogLoad healed = load_checkpoint_log(path);
  ASSERT_TRUE(healed.loaded);
  EXPECT_FALSE(healed.tail_dropped);
  EXPECT_EQ(serialize_checkpoint(healed.state),
            serialize_at_seq(ckpt, log.base_seq()));
  remove_log(path);
}

TEST(CheckpointLog, InjectedCompactCrashLeavesThePreviousStateLoadable) {
  const std::string path = temp_path("log_fault_compact.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  ckpt = advance(ckpt, 0);
  ASSERT_TRUE(log.save(ckpt).ok());
  const std::string before = serialize_checkpoint(load_checkpoint_log(path).state);

  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointCompactCrash, {.times = 1});
  common::FaultScope scope(inj);

  CgCheckpoint next = advance(ckpt, 1);
  const common::Status crashed = log.compact(next);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.code(), common::ErrorCode::kIoError);
  EXPECT_EQ(inj.fired(common::faults::kCheckpointCompactCrash), 1);

  // Base + chain are untouched: the recovery rung is the last good save.
  const CheckpointLogLoad survived = load_checkpoint_log(path);
  ASSERT_TRUE(survived.loaded);
  EXPECT_EQ(survived.deltas_applied, 1);
  EXPECT_EQ(serialize_checkpoint(survived.state), before);

  // Retry succeeds once the fault window passes.
  ASSERT_TRUE(log.save(next).ok());
  const CheckpointLogLoad healed = load_checkpoint_log(path);
  ASSERT_TRUE(healed.loaded);
  EXPECT_EQ(serialize_checkpoint(healed.state),
            serialize_at_seq(next, log.base_seq()));
  remove_log(path);
}

TEST(CheckpointLog, DeltaSavesAreCheaperThanFullRewrites) {
  const std::string path = temp_path("log_cost.txt");
  remove_log(path);
  CheckpointLog log(path, {.compact_every = 100, .track_full_equiv = true});
  (void)log.open();

  CgCheckpoint ckpt = solved_checkpoint();
  ASSERT_TRUE(log.save(ckpt).ok());
  for (int step = 0; step < 6; ++step) {
    ckpt = advance(ckpt, step);
    ASSERT_TRUE(log.save(ckpt).ok());
  }
  ASSERT_EQ(log.stats().delta_saves, 6);
  // One-period changes (header + one score + one gop) must cost well under
  // a full pool rewrite; 50% is a loose floor, the soak bench reports the
  // real ratio.
  EXPECT_LT(log.stats().delta_bytes,
            log.stats().full_equiv_bytes - log.stats().full_bytes);
  remove_log(path);
}

TEST(CheckpointLog, OpenResumesTheChainWhereItLeftOff) {
  const std::string path = temp_path("log_reopen.txt");
  remove_log(path);
  CgCheckpoint ckpt = solved_checkpoint();
  {
    CheckpointLog log(path, {.compact_every = 100});
    (void)log.open();
    ASSERT_TRUE(log.save(ckpt).ok());
    ckpt = advance(ckpt, 0);
    ASSERT_TRUE(log.save(ckpt).ok());
  }
  // A new process binds to the same files and keeps appending deltas —
  // no spurious compaction, no sequence restart.
  CheckpointLog log(path, {.compact_every = 100});
  const CheckpointLogLoad opened = log.open();
  ASSERT_TRUE(opened.loaded);
  EXPECT_EQ(opened.deltas_applied, 1);
  ckpt = advance(ckpt, 1);
  ASSERT_TRUE(log.save(ckpt).ok());
  EXPECT_EQ(log.stats().delta_saves, 1);
  EXPECT_EQ(log.stats().full_saves, 0);

  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.deltas_applied, 2);
  EXPECT_EQ(serialize_checkpoint(loaded.state),
            serialize_at_seq(ckpt, log.base_seq()));
  remove_log(path);
}

TEST(CheckpointLog, CompactEveryStrideSurvivesReopen) {
  const std::string path = temp_path("log_stride_reopen.txt");
  remove_log(path);
  CgCheckpoint ckpt = solved_checkpoint();
  {
    CheckpointLog log(path, {.compact_every = 3});
    (void)log.open();
    ASSERT_TRUE(log.save(ckpt).ok());
    ckpt = advance(ckpt, 0);
    ASSERT_TRUE(log.save(ckpt).ok());
    ckpt = advance(ckpt, 1);
    ASSERT_TRUE(log.save(ckpt).ok());
  }
  // A recovering process counts the deltas it replayed against the stride,
  // so a restart cannot stretch the chain: 2 on-disk deltas + 1 more hits
  // compact_every, and the save after that must compact.
  CheckpointLog log(path, {.compact_every = 3});
  const CheckpointLogLoad opened = log.open();
  ASSERT_TRUE(opened.loaded);
  EXPECT_EQ(opened.deltas_applied, 2);
  ckpt = advance(ckpt, 2);
  ASSERT_TRUE(log.save(ckpt).ok());
  EXPECT_EQ(log.stats().delta_saves, 1);
  ckpt = advance(ckpt, 3);
  ASSERT_TRUE(log.save(ckpt).ok());
  EXPECT_EQ(log.stats().compactions, 1);
  const CheckpointLogLoad loaded = load_checkpoint_log(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.deltas_applied, 0);
  EXPECT_EQ(serialize_checkpoint(loaded.state),
            serialize_at_seq(ckpt, log.base_seq()));
  remove_log(path);
}

}  // namespace
}  // namespace mmwave::core
