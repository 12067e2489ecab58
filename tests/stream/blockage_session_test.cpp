#include "stream/blockage_session.h"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"

namespace mmwave::stream {
namespace {

struct Fixture {
  net::NetworkParams params;
  std::unique_ptr<net::TableIChannelModel> model;
};

Fixture make_fixture(std::uint64_t seed, int links = 5, int channels = 3) {
  Fixture f;
  f.params.num_links = links;
  f.params.num_channels = channels;
  common::Rng rng(seed);
  f.model = std::make_unique<net::TableIChannelModel>(
      links, channels, f.params.noise_watts, rng);
  return f;
}

BlockageSessionConfig small_config(int gops = 4) {
  BlockageSessionConfig cfg;
  cfg.session.num_gops = gops;
  cfg.session.demand_scale = 1e-4;
  return cfg;
}

TEST(BlockageSession, RunsWithRescheduling) {
  auto f = make_fixture(1);
  common::Rng rng(21);
  const auto metrics = run_blockage_session(
      *f.model, f.params, small_config(), make_cg_scheduler({}), rng);
  EXPECT_EQ(metrics.base.gops.size(), 4u);
  EXPECT_GE(metrics.mean_blocked_fraction, 0.0);
  EXPECT_LE(metrics.mean_blocked_fraction, 1.0);
  // Re-solving each period never schedules an invalid transmission.
  EXPECT_EQ(metrics.invalidated_periods, 0);
}

TEST(BlockageSession, ObliviousSchedulingCanBeInvalidated) {
  auto f = make_fixture(2, 6, 2);
  BlockageSessionConfig cfg = small_config(8);
  cfg.reschedule_each_period = false;
  cfg.blockage.p_block = 0.5;       // heavy blockage
  cfg.blockage.attenuation = 1e-3;  // -30 dB
  common::Rng rng(22);
  const auto metrics = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}), rng);
  // With half the links blocked per period, a clear-air schedule should
  // lose transmissions in at least one period.
  EXPECT_GT(metrics.invalidated_periods, 0);
  EXPECT_FALSE(metrics.base.all_served);
}

TEST(BlockageSession, ReschedulingBeatsOblivious) {
  auto f = make_fixture(3, 6, 3);
  BlockageSessionConfig aware = small_config(8);
  aware.blockage.p_block = 0.3;
  BlockageSessionConfig oblivious = aware;
  oblivious.reschedule_each_period = false;

  common::Rng a(23), b(23);
  const auto m_aware = run_blockage_session(*f.model, f.params, aware,
                                            make_cg_scheduler({}), a);
  const auto m_obl = run_blockage_session(*f.model, f.params, oblivious,
                                          make_cg_scheduler({}), b);
  // Period-by-period re-solving delivers at least as much video.
  EXPECT_GE(m_aware.base.mean_psnr_db, m_obl.base.mean_psnr_db - 1e-9);
}

TEST(BlockageSession, NoBlockageMatchesPlainSession) {
  auto f = make_fixture(4);
  BlockageSessionConfig cfg = small_config(3);
  cfg.blockage.p_block = 0.0;
  cfg.blockage.initial_blocked = 0.0;

  common::Rng a(24);
  const auto blocked = run_blockage_session(*f.model, f.params, cfg,
                                            make_cg_scheduler({}), a);

  // Plain session on an identical (unscaled) network.
  std::vector<double> ones(f.params.num_links, 1.0);
  net::Network net(f.params, std::make_unique<net::RxScaledChannelModel>(
                                 f.model.get(), ones));
  common::Rng b(24);
  const auto plain =
      run_session(net, cfg.session, make_cg_scheduler({}), b);

  ASSERT_EQ(blocked.base.gops.size(), plain.gops.size());
  for (std::size_t g = 0; g < plain.gops.size(); ++g) {
    EXPECT_NEAR(blocked.base.gops[g].schedule_slots,
                plain.gops[g].schedule_slots, 1e-9);
  }
  EXPECT_DOUBLE_EQ(blocked.mean_blocked_fraction, 0.0);
}

TEST(BlockageSession, BlockageReducesOnTimeRatio) {
  auto f = make_fixture(5, 6, 2);
  BlockageSessionConfig clear = small_config(6);
  clear.session.demand_scale = 3e-3;  // near the period budget
  clear.blockage.p_block = 0.0;
  BlockageSessionConfig heavy = clear;
  heavy.blockage.p_block = 0.6;
  heavy.blockage.p_recover = 0.3;
  heavy.blockage.attenuation = 1e-3;

  common::Rng a(25), b(25);
  const auto m_clear = run_blockage_session(*f.model, f.params, clear,
                                            make_cg_scheduler({}), a);
  const auto m_heavy = run_blockage_session(*f.model, f.params, heavy,
                                            make_cg_scheduler({}), b);
  EXPECT_LE(m_heavy.base.on_time_ratio, m_clear.base.on_time_ratio + 1e-12);
}

TEST(BlockageSession, SolverContextReusesPoolAcrossPeriods) {
  auto f = make_fixture(6, 6, 2);
  BlockageSessionConfig cfg = small_config(6);
  cfg.blockage.p_block = 0.3;
  cfg.blockage.attenuation = 0.05;

  SolverContext ctx;
  common::Rng rng(26);
  const auto metrics = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}, &ctx), rng, &ctx);

  // Every period solved through the context; periods after the first offer
  // the previous pool for reuse.
  EXPECT_EQ(metrics.pool_periods, 6);
  EXPECT_GT(metrics.pool_columns_loaded, 0);
  EXPECT_GT(metrics.pool_columns_reused, 0);
  EXPECT_GT(metrics.pool_hit_rate, 0.0);
  EXPECT_LE(metrics.pool_hit_rate, 1.0);
  EXPECT_EQ(metrics.pool_columns_loaded,
            metrics.pool_columns_reused + metrics.pool_columns_dropped);
  EXPECT_FALSE(ctx.pool.empty());
}

TEST(BlockageSession, PoolReuseDoesNotChangeOutcomes) {
  auto f = make_fixture(7, 5, 2);
  BlockageSessionConfig cfg = small_config(5);
  cfg.blockage.p_block = 0.25;
  cfg.blockage.attenuation = 0.05;

  common::Rng a(27), b(27);
  const auto without = run_blockage_session(*f.model, f.params, cfg,
                                            make_cg_scheduler({}), a);
  SolverContext ctx;
  const auto with = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}, &ctx), b, &ctx);

  // Warm columns may only speed the solve: the per-period objective (and
  // thus every stall/on-time metric) must be unchanged.
  ASSERT_EQ(with.base.gops.size(), without.base.gops.size());
  for (std::size_t g = 0; g < with.base.gops.size(); ++g) {
    EXPECT_NEAR(with.base.gops[g].schedule_slots,
                without.base.gops[g].schedule_slots,
                1e-6 * (1.0 + without.base.gops[g].schedule_slots));
  }
  EXPECT_NEAR(with.base.on_time_ratio, without.base.on_time_ratio, 1e-12);
}

TEST(BlockageSession, PoolAccountingIdentityHolds) {
  auto f = make_fixture(9, 6, 2);
  BlockageSessionConfig cfg = small_config(6);
  cfg.blockage.p_block = 0.3;
  cfg.blockage.attenuation = 0.05;

  SolverContext ctx;
  common::Rng rng(29);
  const auto metrics = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}, &ctx), rng, &ctx);

  // The hit/miss ledger must balance: every context-routed solve is either
  // a hit (>=1 seeded column survived into the master) or a miss.
  EXPECT_EQ(ctx.pool_hits + ctx.pool_misses, ctx.resolves);
  EXPECT_EQ(ctx.resolves, ctx.periods);
  EXPECT_EQ(metrics.pool_hits + metrics.pool_misses, metrics.pool_resolves);
  EXPECT_EQ(metrics.pool_resolves, 6);
  // The first period seeds from an empty pool: at least one miss, and with
  // mild blockage the later periods should mostly hit.
  EXPECT_GE(metrics.pool_misses, 1);
  EXPECT_GT(metrics.pool_hits, 0);
  // The manager's ledger is consistent with the session's.
  EXPECT_EQ(ctx.manager.metrics().stores,
            static_cast<std::int64_t>(ctx.periods));
  EXPECT_EQ(ctx.manager.metrics().seed_calls,
            static_cast<std::int64_t>(ctx.resolves));
}

TEST(BlockageSession, ContextMetricsAccumulateAndResetKeepsThePool) {
  auto f = make_fixture(10, 5, 2);
  BlockageSessionConfig cfg = small_config(4);
  cfg.blockage.p_block = 0.25;
  cfg.blockage.attenuation = 0.05;

  SolverContext ctx;
  common::Rng a(30);
  const auto first = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}, &ctx), a, &ctx);
  const int loaded_after_first = ctx.columns_loaded;
  common::Rng b(31);
  const auto second = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}, &ctx), b, &ctx);

  // The context counters are cumulative across sessions...
  EXPECT_EQ(ctx.periods, 8);
  EXPECT_GT(ctx.columns_loaded, loaded_after_first);
  // ...while each session's metrics report only its own deltas.
  EXPECT_EQ(first.pool_resolves, 4);
  EXPECT_EQ(second.pool_resolves, 4);
  EXPECT_EQ(first.pool_hits + first.pool_misses, first.pool_resolves);
  EXPECT_EQ(second.pool_hits + second.pool_misses, second.pool_resolves);
  // The second session starts warm (the manager already knows nearby
  // instances), so it must not load fewer columns than the first.
  EXPECT_GE(second.pool_columns_loaded, first.pool_columns_loaded);

  // reset_metrics zeroes the ledger but keeps the warm-start capital.
  const int pool_size = ctx.manager.size();
  ASSERT_GT(pool_size, 0);
  ctx.reset_metrics();
  EXPECT_EQ(ctx.periods, 0);
  EXPECT_EQ(ctx.resolves, 0);
  EXPECT_EQ(ctx.pool_hits, 0);
  EXPECT_EQ(ctx.pool_misses, 0);
  EXPECT_EQ(ctx.columns_loaded, 0);
  EXPECT_EQ(ctx.manager.metrics().stores, 0);
  EXPECT_EQ(ctx.manager.size(), pool_size);
}

TEST(BlockageSession, CappedPoolDoesNotChangeOutcomes) {
  auto f = make_fixture(11, 5, 2);
  BlockageSessionConfig cfg = small_config(5);
  cfg.blockage.p_block = 0.25;
  cfg.blockage.attenuation = 0.05;

  common::Rng a(32), b(32);
  const auto without = run_blockage_session(*f.model, f.params, cfg,
                                            make_cg_scheduler({}), a);
  core::PoolManagerOptions pool_opts;
  pool_opts.cap = 4;
  SolverContext ctx(pool_opts);
  const auto with = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}, &ctx), b, &ctx);

  // Evicting columns can cost iterations, never bits: every per-period
  // objective matches the context-free run.
  ASSERT_EQ(with.base.gops.size(), without.base.gops.size());
  for (std::size_t g = 0; g < with.base.gops.size(); ++g) {
    EXPECT_NEAR(with.base.gops[g].schedule_slots,
                without.base.gops[g].schedule_slots,
                1e-6 * (1.0 + without.base.gops[g].schedule_slots));
  }
  EXPECT_GT(with.pool_evicted, 0);
}

TEST(BlockageSession, ExecDropCountsMatchInvalidation) {
  auto f = make_fixture(8, 6, 2);
  BlockageSessionConfig cfg = small_config(8);
  cfg.reschedule_each_period = false;
  cfg.blockage.p_block = 0.5;
  cfg.blockage.attenuation = 1e-3;
  common::Rng rng(28);
  const auto metrics = run_blockage_session(*f.model, f.params, cfg,
                                            make_cg_scheduler({}), rng);
  // Oblivious scheduling under heavy blockage drops transmissions, and the
  // transmission counter is at least as fine-grained as the period flag.
  EXPECT_GT(metrics.invalidated_periods, 0);
  EXPECT_GE(metrics.exec_transmissions_dropped, metrics.invalidated_periods);
}

// ---- Crash recovery: cursor capture, resume, rejection -------------------

TEST(BlockageSession, OnPeriodCursorsDescribeEveryBoundary) {
  auto f = make_fixture(40);
  BlockageSessionConfig cfg = small_config(4);
  cfg.blockage.p_block = 0.3;
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 77);

  std::vector<core::StreamCursor> cursors;
  BlockageRunControl control;
  control.on_period = [&](const core::StreamCursor& c, int gop) {
    EXPECT_EQ(c.next_gop, gop + 1);
    cursors.push_back(c);
    return true;
  };
  common::Rng rng(77);
  const auto metrics = run_blockage_session(*f.model, f.params, cfg,
                                            make_cg_scheduler({}), rng,
                                            nullptr, &control);
  EXPECT_TRUE(metrics.completed);
  ASSERT_EQ(cursors.size(), 4u);
  for (const core::StreamCursor& c : cursors) {
    EXPECT_EQ(c.num_gops, 4);
    EXPECT_EQ(c.session_fingerprint, cfg.session_fingerprint);
    EXPECT_EQ(c.gops.size(), static_cast<std::size_t>(c.next_gop));
    EXPECT_EQ(c.delivered_bits.size(), 5u);
    EXPECT_EQ(c.blocked.size(), 5u);
    EXPECT_GE(c.carryover_stall, 0.0);
  }
  // The final cursor's records ARE the session's records.
  ASSERT_EQ(cursors.back().gops.size(), metrics.base.gops.size());
  for (std::size_t g = 0; g < metrics.base.gops.size(); ++g) {
    EXPECT_EQ(cursors.back().gops[g].stall_slots,
              metrics.base.gops[g].stall_slots);
    EXPECT_EQ(cursors.back().gops[g].on_time, metrics.base.gops[g].on_time);
  }
}

TEST(BlockageSession, ResumeMidSessionMatchesTheUninterruptedRun) {
  auto f = make_fixture(41, 5, 2);
  BlockageSessionConfig cfg = small_config(6);
  cfg.blockage.p_block = 0.35;
  cfg.blockage.attenuation = 0.05;
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 90);
  CgSchedulerOptions sched_opts;
  sched_opts.capture_checkpoint = true;

  // The uninterrupted reference.
  SolverContext ref_ctx;
  common::Rng ref_rng(90);
  const auto ref = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler(sched_opts, &ref_ctx),
      ref_rng, &ref_ctx);
  ASSERT_NE(ref.plan_digest_chain, 0u);

  // "Crash" after period 2: keep the cursor and the exported pool.
  SolverContext crash_ctx;
  core::StreamCursor cursor;
  BlockageRunControl stop;
  stop.on_period = [&](const core::StreamCursor& c, int gop) {
    cursor = c;
    return gop != 2;
  };
  common::Rng crash_rng(90);
  const auto partial = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler(sched_opts, &crash_ctx),
      crash_rng, &crash_ctx, &stop);
  EXPECT_FALSE(partial.completed);
  ASSERT_EQ(partial.base.gops.size(), 3u);
  ASSERT_TRUE(crash_ctx.has_last_checkpoint);

  // A fresh process: import the pool, replay the cursor, finish the run.
  SolverContext resumed_ctx;
  resumed_ctx.manager.import_checkpoint(
      crash_ctx.manager.export_checkpoint(crash_ctx.last_checkpoint));
  BlockageRunControl resume;
  resume.resume = &cursor;
  common::Rng resumed_rng(90);
  const auto resumed = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler(sched_opts, &resumed_ctx),
      resumed_rng, &resumed_ctx, &resume);

  EXPECT_FALSE(resumed.resume_rejected);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.start_gop, 3);
  // The digest chain is exact plan identity, period by period.
  EXPECT_EQ(resumed.plan_digest_chain, ref.plan_digest_chain);
  ASSERT_EQ(resumed.base.gops.size(), ref.base.gops.size());
  for (std::size_t g = 0; g < ref.base.gops.size(); ++g) {
    EXPECT_EQ(resumed.base.gops[g].on_time, ref.base.gops[g].on_time);
    EXPECT_NEAR(resumed.base.gops[g].stall_slots,
                ref.base.gops[g].stall_slots, 1e-9);
  }
  EXPECT_NEAR(resumed.base.on_time_ratio, ref.base.on_time_ratio, 1e-12);
  EXPECT_NEAR(resumed.base.total_stall_slots, ref.base.total_stall_slots,
              1e-9);
  EXPECT_NEAR(resumed.base.mean_psnr_db, ref.base.mean_psnr_db, 1e-9);
  EXPECT_NEAR(resumed.mean_blocked_fraction, ref.mean_blocked_fraction,
              1e-12);
  // Counter offsetting: the resumed session reports whole-session numbers.
  EXPECT_EQ(resumed.pool_periods, ref.pool_periods);
  EXPECT_EQ(resumed.pool_resolves, ref.pool_resolves);
}

TEST(BlockageSession, ResumeRejectsAForeignOrStaleCursor) {
  auto f = make_fixture(42, 5, 2);
  BlockageSessionConfig cfg = small_config(5);
  cfg.blockage.p_block = 0.3;
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 91);

  core::StreamCursor cursor;
  BlockageRunControl stop;
  stop.on_period = [&](const core::StreamCursor& c, int gop) {
    cursor = c;
    return gop != 1;
  };
  common::Rng crash_rng(91);
  (void)run_blockage_session(*f.model, f.params, cfg,
                             make_cg_scheduler({}), crash_rng, nullptr,
                             &stop);

  // A fresh cold run is what every rejected resume must degrade to.
  common::Rng fresh_rng(91);
  SolverContext fresh_ctx;
  const auto fresh = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}, &fresh_ctx), fresh_rng,
      &fresh_ctx);

  // (a) A cursor whose fingerprint names another session.
  {
    core::StreamCursor foreign = cursor;
    foreign.session_fingerprint ^= 0x1;
    BlockageRunControl resume;
    resume.resume = &foreign;
    common::Rng rng(91);
    SolverContext ctx;
    const auto m = run_blockage_session(*f.model, f.params, cfg,
                                        make_cg_scheduler({}, &ctx), rng,
                                        &ctx, &resume);
    EXPECT_TRUE(m.resume_rejected);
    EXPECT_EQ(m.start_gop, 0);
    EXPECT_TRUE(m.completed);
    EXPECT_EQ(m.plan_digest_chain, fresh.plan_digest_chain);
  }
  // (b) A cursor whose blockage bits do not replay (stale state).
  {
    core::StreamCursor stale = cursor;
    stale.blocked[0] = 1 - stale.blocked[0];
    BlockageRunControl resume;
    resume.resume = &stale;
    common::Rng rng(91);
    SolverContext ctx;
    const auto m = run_blockage_session(*f.model, f.params, cfg,
                                        make_cg_scheduler({}, &ctx), rng,
                                        &ctx, &resume);
    EXPECT_TRUE(m.resume_rejected);
    EXPECT_EQ(m.plan_digest_chain, fresh.plan_digest_chain);
  }
  // (c) A cursor for a different horizon.
  {
    core::StreamCursor wrong = cursor;
    wrong.num_gops = 7;
    BlockageRunControl resume;
    resume.resume = &wrong;
    common::Rng rng(91);
    SolverContext ctx;
    const auto m = run_blockage_session(*f.model, f.params, cfg,
                                        make_cg_scheduler({}, &ctx), rng,
                                        &ctx, &resume);
    EXPECT_TRUE(m.resume_rejected);
    EXPECT_EQ(m.plan_digest_chain, fresh.plan_digest_chain);
  }
}

TEST(BlockageSession, InjectedCursorCorruptionRejectsTheResume) {
  auto f = make_fixture(43, 5, 2);
  BlockageSessionConfig cfg = small_config(4);
  cfg.blockage.p_block = 0.3;
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 92);

  core::StreamCursor cursor;
  BlockageRunControl stop;
  stop.on_period = [&](const core::StreamCursor& c, int gop) {
    cursor = c;
    return gop != 1;
  };
  common::Rng crash_rng(92);
  (void)run_blockage_session(*f.model, f.params, cfg,
                             make_cg_scheduler({}), crash_rng, nullptr,
                             &stop);

  common::FaultInjector inj;
  inj.arm(common::faults::kSessionCursorCorrupt, {.times = 1});
  common::FaultScope scope(inj);
  BlockageRunControl resume;
  resume.resume = &cursor;
  common::Rng rng(92);
  const auto m = run_blockage_session(*f.model, f.params, cfg,
                                      make_cg_scheduler({}), rng, nullptr,
                                      &resume);
  EXPECT_EQ(inj.fired(common::faults::kSessionCursorCorrupt), 1);
  // The degradation ladder's last rung: corrupt cursor -> full fresh run,
  // never a crash, never a half-resumed session.
  EXPECT_TRUE(m.resume_rejected);
  EXPECT_EQ(m.start_gop, 0);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.base.gops.size(), 4u);
}

// ---- Client-buffer state across crash/resume -----------------------------

/// Deep-blockage world where blind playback genuinely stalls: blocked links
/// fall below every SINR threshold, so a blocked period delivers nothing.
BlockageSessionConfig stall_config(int gops) {
  BlockageSessionConfig cfg;
  cfg.session.num_gops = gops;
  cfg.session.demand_scale = 1e-4;
  cfg.blockage.p_block = 0.5;
  cfg.blockage.p_recover = 0.5;
  cfg.blockage.attenuation = 1e-3;
  return cfg;
}

TEST(BlockageSession, ResumeMidStallReplaysBufferStateExactly) {
  auto f = make_fixture(45, 5, 2);
  BlockageSessionConfig cfg = stall_config(8);
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 94);
  CgSchedulerOptions sched_opts;
  sched_opts.capture_checkpoint = true;

  SolverContext ref_ctx;
  common::Rng ref_rng(94);
  const auto ref = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler(sched_opts, &ref_ctx),
      ref_rng, &ref_ctx);
  // The scenario must actually rebuffer, otherwise this test is vacuous.
  ASSERT_GT(ref.stall_seconds, 0.0);
  ASSERT_GT(ref.rebuffer_events, 0);

  // Crash at period 4 and keep the cursor; the kill point must land inside
  // a stall (some link mid-rebuffer) so the resume replays a dirty state,
  // not a conveniently quiescent one.
  SolverContext crash_ctx;
  core::StreamCursor cursor;
  BlockageRunControl stop;
  stop.on_period = [&](const core::StreamCursor& c, int gop) {
    cursor = c;
    return gop != 4;
  };
  common::Rng crash_rng(94);
  const auto partial = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler(sched_opts, &crash_ctx),
      crash_rng, &crash_ctx, &stop);
  EXPECT_FALSE(partial.completed);
  ASSERT_EQ(cursor.buffers.size(), 5u);
  double stalled_at_kill = 0.0;
  int not_playing = 0;
  for (const core::StreamBufferState& b : cursor.buffers) {
    stalled_at_kill += b.stall_seconds;
    if ((b.flags & 1) == 0) ++not_playing;
  }
  ASSERT_GT(stalled_at_kill, 0.0);
  ASSERT_GT(not_playing, 0);

  SolverContext resumed_ctx;
  resumed_ctx.manager.import_checkpoint(
      crash_ctx.manager.export_checkpoint(crash_ctx.last_checkpoint));
  BlockageRunControl resume;
  resume.resume = &cursor;
  common::Rng resumed_rng(94);
  const auto resumed = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler(sched_opts, &resumed_ctx),
      resumed_rng, &resumed_ctx, &resume);

  EXPECT_FALSE(resumed.resume_rejected);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.start_gop, 5);
  EXPECT_EQ(resumed.plan_digest_chain, ref.plan_digest_chain);
  // The QoE ledger is whole-session and exact: stall carried across the
  // crash, the in-flight rebuffer finished counting, layers reconciled.
  EXPECT_NEAR(resumed.stall_seconds, ref.stall_seconds, 1e-9);
  EXPECT_EQ(resumed.rebuffer_events, ref.rebuffer_events);
  EXPECT_EQ(resumed.layer_gops_offered, ref.layer_gops_offered);
  EXPECT_EQ(resumed.layer_gops_delivered, ref.layer_gops_delivered);
  EXPECT_NEAR(resumed.layer_delivery_ratio, ref.layer_delivery_ratio, 1e-12);
}

TEST(BlockageSession, ResumeMidStallUnderDrainRiskPolicy) {
  auto f = make_fixture(46, 5, 2);
  const std::unique_ptr<DemandPolicy> drain =
      make_drain_risk_policy(ClientBufferConfig{});
  BlockageSessionConfig cfg = stall_config(8);
  cfg.demand_policy = drain.get();
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 95);
  CgSchedulerOptions sched_opts;
  sched_opts.capture_checkpoint = true;

  SolverContext ref_ctx;
  common::Rng ref_rng(95);
  const auto ref = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler(sched_opts, &ref_ctx),
      ref_rng, &ref_ctx);

  SolverContext crash_ctx;
  core::StreamCursor cursor;
  BlockageRunControl stop;
  stop.on_period = [&](const core::StreamCursor& c, int gop) {
    cursor = c;
    return gop != 3;
  };
  common::Rng crash_rng(95);
  (void)run_blockage_session(*f.model, f.params, cfg,
                             make_cg_scheduler(sched_opts, &crash_ctx),
                             crash_rng, &crash_ctx, &stop);
  ASSERT_EQ(cursor.buffers.size(), 5u);

  SolverContext resumed_ctx;
  resumed_ctx.manager.import_checkpoint(
      crash_ctx.manager.export_checkpoint(crash_ctx.last_checkpoint));
  BlockageRunControl resume;
  resume.resume = &cursor;
  common::Rng resumed_rng(95);
  const auto resumed = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler(sched_opts, &resumed_ctx),
      resumed_rng, &resumed_ctx, &resume);

  // Shaped demands depend on resumed buffer occupancy, so an inexact
  // restore would fork the plan digest chain immediately.
  EXPECT_FALSE(resumed.resume_rejected);
  EXPECT_EQ(resumed.plan_digest_chain, ref.plan_digest_chain);
  EXPECT_NEAR(resumed.stall_seconds, ref.stall_seconds, 1e-9);
  EXPECT_EQ(resumed.rebuffer_events, ref.rebuffer_events);
  EXPECT_NEAR(resumed.layer_delivery_ratio, ref.layer_delivery_ratio, 1e-12);
}

TEST(BlockageSession, CursorWithoutBufferStateResumesWithColdBuffers) {
  auto f = make_fixture(47, 5, 2);
  BlockageSessionConfig cfg = stall_config(6);
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 96);

  common::Rng ref_rng(96);
  const auto ref = run_blockage_session(*f.model, f.params, cfg,
                                        make_cg_scheduler({}), ref_rng);

  core::StreamCursor cursor;
  BlockageRunControl stop;
  stop.on_period = [&](const core::StreamCursor& c, int gop) {
    cursor = c;
    return gop != 2;
  };
  common::Rng crash_rng(96);
  (void)run_blockage_session(*f.model, f.params, cfg,
                             make_cg_scheduler({}), crash_rng, nullptr,
                             &stop);
  ASSERT_GT(ref.stall_seconds, 0.0);
  // A cursor from a producer without the buffer model carries an empty
  // buffer vector (`buffers = 0` on disk).  The empty-vector degradation is
  // defined behavior: the scheduling timeline resumes, the buffers restart
  // cold.
  cursor.buffers.clear();
  BlockageRunControl resume;
  resume.resume = &cursor;
  common::Rng rng(96);
  const auto m = run_blockage_session(*f.model, f.params, cfg,
                                      make_cg_scheduler({}), rng, nullptr,
                                      &resume);
  EXPECT_FALSE(m.resume_rejected);
  EXPECT_EQ(m.start_gop, 3);
  EXPECT_TRUE(m.completed);
  // Schedules are untouched by buffer state under the blind policy...
  EXPECT_EQ(m.plan_digest_chain, ref.plan_digest_chain);
  // ...but the QoE ledger restarted, so it can only understate the truth.
  EXPECT_LE(m.stall_seconds, ref.stall_seconds + 1e-12);
}

TEST(BlockageSession, CorruptBufferRecordsRejectTheResume) {
  auto f = make_fixture(48, 5, 2);
  BlockageSessionConfig cfg = stall_config(6);
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 97);

  core::StreamCursor cursor;
  BlockageRunControl stop;
  stop.on_period = [&](const core::StreamCursor& c, int gop) {
    cursor = c;
    return gop != 2;
  };
  common::Rng crash_rng(97);
  (void)run_blockage_session(*f.model, f.params, cfg,
                             make_cg_scheduler({}), crash_rng, nullptr,
                             &stop);
  ASSERT_EQ(cursor.buffers.size(), 5u);

  const auto expect_rejected = [&](const core::StreamCursor& bad) {
    BlockageRunControl resume;
    resume.resume = &bad;
    common::Rng rng(97);
    const auto m = run_blockage_session(*f.model, f.params, cfg,
                                        make_cg_scheduler({}), rng, nullptr,
                                        &resume);
    EXPECT_TRUE(m.resume_rejected);
    EXPECT_TRUE(m.completed);
  };
  {
    core::StreamCursor bad = cursor;
    bad.buffers[2].occupancy_seconds = -0.25;  // negative occupancy
    expect_rejected(bad);
  }
  {
    core::StreamCursor bad = cursor;
    bad.buffers[0].flags = 1;  // playing-but-not-started is unrepresentable
    expect_rejected(bad);
  }
  {
    core::StreamCursor bad = cursor;
    bad.buffers.resize(3);  // wrong link count
    expect_rejected(bad);
  }
  {
    core::StreamCursor bad = cursor;
    bad.buffers[4].hp_gops_delivered = bad.next_gop + 1;  // ahead of time
    expect_rejected(bad);
  }
}

TEST(BlockageSession, InjectedBufferCorruptionRejectsTheResume) {
  auto f = make_fixture(49, 5, 2);
  BlockageSessionConfig cfg = stall_config(6);
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 98);

  core::StreamCursor cursor;
  BlockageRunControl stop;
  stop.on_period = [&](const core::StreamCursor& c, int gop) {
    cursor = c;
    return gop != 2;
  };
  common::Rng crash_rng(98);
  (void)run_blockage_session(*f.model, f.params, cfg,
                             make_cg_scheduler({}), crash_rng, nullptr,
                             &stop);
  ASSERT_FALSE(cursor.buffers.empty());

  common::FaultInjector inj;
  inj.arm(common::faults::kSessionBufferCorrupt, {.times = 1});
  common::FaultScope scope(inj);
  BlockageRunControl resume;
  resume.resume = &cursor;
  common::Rng rng(98);
  const auto m = run_blockage_session(*f.model, f.params, cfg,
                                      make_cg_scheduler({}), rng, nullptr,
                                      &resume);
  EXPECT_EQ(inj.fired(common::faults::kSessionBufferCorrupt), 1);
  // Same ladder rung as a corrupt cursor: fresh run, correct QoE ledger.
  EXPECT_TRUE(m.resume_rejected);
  EXPECT_EQ(m.start_gop, 0);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.base.gops.size(), 6u);
}

// ---- JSON surfaces --------------------------------------------------------

/// Minimal validator for the repo's flat JSON-object lines: one object of
/// `"key":scalar` pairs where a scalar is a quoted string (no escapes),
/// a number, or true/false.  Strict enough to catch missing commas, bare
/// NaN/inf, unbalanced quotes and trailing garbage.
bool parses_as_flat_json_object(const std::string& s) {
  std::size_t i = 0;
  const auto number = [&]() {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '+' || s[i] == '-'))
      ++i;
    return i > start;
  };
  const auto string_lit = [&]() {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"' && s[i] != '\\') ++i;
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    return true;
  };
  if (i >= s.size() || s[i++] != '{') return false;
  bool first = true;
  while (i < s.size() && s[i] != '}') {
    if (!first && s[i++] != ',') return false;
    first = false;
    if (!string_lit()) return false;
    if (i >= s.size() || s[i++] != ':') return false;
    if (s.compare(i, 4, "true") == 0) {
      i += 4;
    } else if (s.compare(i, 5, "false") == 0) {
      i += 5;
    } else if (!string_lit() && !number()) {
      return false;
    }
  }
  return i < s.size() && s[i] == '}' && i + 1 == s.size();
}

TEST(BlockageSession, PeriodJsonLinesParseWithStableKeys) {
  auto f = make_fixture(50, 5, 2);
  BlockageSessionConfig cfg = stall_config(6);
  cfg.session_fingerprint = blockage_session_fingerprint(cfg, 5, 99);

  std::vector<std::string> lines;
  BlockageRunControl control;
  control.on_period = [&](const core::StreamCursor& c, int) {
    lines.push_back(period_json_line(c));
    return true;
  };
  common::Rng rng(99);
  (void)run_blockage_session(*f.model, f.params, cfg, make_cg_scheduler({}),
                             rng, nullptr, &control);
  ASSERT_EQ(lines.size(), 6u);
  const char* keys[] = {
      "\"type\":\"gop\"",    "\"gop\"",
      "\"demand_bits\"",     "\"schedule_slots\"",
      "\"budget_slots\"",    "\"on_time\"",
      "\"stall_slots\"",     "\"blocked_links\"",
      "\"buffer_seconds\"",  "\"buffer_min_seconds\"",
      "\"stall_seconds\"",   "\"rebuffer_events\"",
      "\"playing_links\"",   "\"plan_digest\":\"0x"};
  for (const std::string& line : lines) {
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_TRUE(parses_as_flat_json_object(line)) << line;
    std::size_t pos = 0;
    for (const char* key : keys) {
      const std::size_t at = line.find(key, pos);
      ASSERT_NE(at, std::string::npos) << key << " missing in " << line;
      pos = at;
    }
  }
}

TEST(BlockageSession, ToJsonLineCarriesQoeFieldsInStableOrder) {
  auto f = make_fixture(51, 5, 2);
  BlockageSessionConfig cfg = stall_config(4);
  SolverContext ctx;
  common::Rng rng(100);
  const auto metrics = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}, &ctx), rng, &ctx);
  const std::string line = metrics.to_json_line();
  EXPECT_TRUE(parses_as_flat_json_object(line)) << line;
  const char* keys[] = {"\"exec_transmissions_dropped\"",
                        "\"stall_seconds\"",
                        "\"rebuffer_events\"",
                        "\"layer_gops_offered\"",
                        "\"layer_gops_delivered\"",
                        "\"layer_delivery_ratio\"",
                        "\"pool_resolves\""};
  std::size_t pos = 0;
  for (const char* key : keys) {
    const std::size_t at = line.find(key, pos);
    ASSERT_NE(at, std::string::npos) << key << " missing in " << line;
    pos = at;
  }
}

TEST(BlockageSession, ToJsonLineCarriesTheSessionSummary) {
  auto f = make_fixture(44);
  BlockageSessionConfig cfg = small_config(3);
  cfg.blockage.p_block = 0.2;
  SolverContext ctx;
  common::Rng rng(93);
  const auto metrics = run_blockage_session(
      *f.model, f.params, cfg, make_cg_scheduler({}, &ctx), rng, &ctx);
  const std::string line = metrics.to_json_line();
  // One line, stable keys, hex digest.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"type\":\"session\""), std::string::npos);
  EXPECT_NE(line.find("\"gops\":3"), std::string::npos);
  EXPECT_NE(line.find("\"start_gop\":0"), std::string::npos);
  EXPECT_NE(line.find("\"completed\":true"), std::string::npos);
  EXPECT_NE(line.find("\"resume_rejected\":false"), std::string::npos);
  EXPECT_NE(line.find("\"on_time_ratio\":"), std::string::npos);
  EXPECT_NE(line.find("\"mean_psnr_db\":"), std::string::npos);
  EXPECT_NE(line.find("\"pool_hit_rate\":"), std::string::npos);
  EXPECT_NE(line.find("\"plan_digest_chain\":\"0x"), std::string::npos);
}

}  // namespace
}  // namespace mmwave::stream
