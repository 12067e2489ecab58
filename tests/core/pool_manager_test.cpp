// PoolManager invariants (the tentpole properties of the column-pool
// lifecycle layer):
//   * eviction never removes a current-basis column — under any cap and
//     the pool.evict_wrong_column fault;
//   * a capped pool costs speed, never correctness: seeding a perturbed
//     resolve from the manager matches a cold certified solve to 1e-7 for
//     caps {4, 16, unbounded};
//   * eviction order is a pure function of the operation sequence —
//     deterministic for a fixed seed and independent of the thread count
//     the solve inputs were computed under.
#include "core/pool_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/resolve.h"
#include "mmwave/blockage.h"

namespace mmwave::core {
namespace {

constexpr double kRelTol = 1e-7;

net::NetworkParams make_params(int links, int channels, int levels) {
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q) p.sinr_thresholds[q] = 0.1 * (q + 1);
  return p;
}

std::vector<video::LinkDemand> random_demands(int links, std::uint64_t seed) {
  common::Rng rng(seed * 131 + 7);
  std::vector<video::LinkDemand> d(links);
  for (auto& x : d) {
    x.hp_bits = rng.uniform(500.0, 2000.0);
    x.lp_bits = rng.uniform(500.0, 2000.0);
  }
  return d;
}

/// One base instance plus perturbed variants over the same Table-I model.
struct Scenario {
  net::NetworkParams params;
  std::unique_ptr<net::TableIChannelModel> base;
  net::Network net;
  std::vector<video::LinkDemand> demands;

  static Scenario make(std::uint64_t seed, int links, int channels,
                       int levels) {
    net::NetworkParams params = make_params(links, channels, levels);
    common::Rng rng(seed);
    auto base = std::make_unique<net::TableIChannelModel>(
        links, channels, params.noise_watts, rng);
    std::vector<double> ones(links, 1.0);
    net::Network net(params, std::make_unique<net::RxScaledChannelModel>(
                                 base.get(), ones));
    auto demands = random_demands(links, seed);
    return {params, std::move(base), std::move(net), std::move(demands)};
  }

  net::Network scaled(std::vector<double> scales) const {
    return net::Network(params, std::make_unique<net::RxScaledChannelModel>(
                                    base.get(), std::move(scales)));
  }
};

CgOptions exact_options() {
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  return opts;
}

std::set<std::string> basis_keys(const CgResult& result) {
  std::set<std::string> keys;
  for (std::size_t s = 0; s < result.pool.size(); ++s) {
    if (s < result.pool_tau.size() && result.pool_tau[s] > 0.0)
      keys.insert(result.pool[s].key());
  }
  return keys;
}

std::vector<std::string> entry_keys(const PoolManager& manager) {
  std::vector<std::string> keys;
  for (const auto& e : manager.entries()) keys.push_back(e.column.key());
  return keys;
}

TEST(InstanceSignature, DistanceTracksPerturbationSize) {
  const Scenario sc = Scenario::make(11, 5, 2, 3);
  const InstanceSignature self = make_signature(sc.net, sc.demands);
  EXPECT_EQ(signature_distance(self, self), 0.0);

  std::vector<double> mild(5, 1.0), heavy(5, 1.0);
  mild[0] = 0.8;
  heavy[0] = heavy[2] = heavy[4] = 0.01;
  const net::Network mild_net = sc.scaled(mild);
  const net::Network heavy_net = sc.scaled(heavy);
  const InstanceSignature near = make_signature(mild_net, sc.demands);
  const InstanceSignature far = make_signature(heavy_net, sc.demands);
  EXPECT_GT(signature_distance(self, near), 0.0);
  EXPECT_LT(signature_distance(self, near), signature_distance(self, far));
  // Symmetric, and infinite across incompatible dimensions.
  EXPECT_EQ(signature_distance(self, far), signature_distance(far, self));
  const Scenario other = Scenario::make(12, 6, 2, 3);
  const InstanceSignature alien = make_signature(other.net, other.demands);
  EXPECT_TRUE(std::isinf(signature_distance(self, alien)));
}

TEST(PoolManager, EvictionNeverRemovesABasisColumn) {
  const Scenario sc = Scenario::make(13, 6, 2, 3);
  for (const int cap : {1, 2, 4}) {
    PoolManager manager({.cap = cap});

    // A run of perturbed periods so the pool overflows any small cap.
    std::set<std::string> basis;
    for (int period = 0; period < 4; ++period) {
      std::vector<double> scales(6, 1.0);
      if (period > 0) scales[period] = 0.3;
      const net::Network net = sc.scaled(scales);
      const auto demands = random_demands(6, 700 + period);
      const CgResult result =
          solve_column_generation(net, demands, exact_options());
      ASSERT_TRUE(result.converged);
      manager.store(make_signature(net, demands), net, result);
      basis = basis_keys(result);
    }

    // Every column of the LATEST basis must have survived eviction, even
    // when the cap is smaller than the basis itself.
    const std::vector<std::string> kept = entry_keys(manager);
    for (const std::string& key : basis) {
      EXPECT_NE(std::find(kept.begin(), kept.end(), key), kept.end())
          << "cap " << cap << " evicted a basis column";
    }
    EXPECT_GT(manager.metrics().evicted, 0);
    EXPECT_LE(manager.size(), std::max(cap, static_cast<int>(basis.size())));
  }
}

TEST(PoolManager, EvictWrongColumnFaultStillProtectsTheBasis) {
  const Scenario sc = Scenario::make(14, 6, 2, 3);
  PoolManagerOptions opts;
  opts.cap = 2;
  PoolManager manager(opts);

  common::FaultInjector inj(/*seed=*/3);
  inj.arm(common::faults::kPoolEvictWrongColumn,
          {.skip = 0, .times = 1 << 20});
  common::FaultScope scope(inj);

  std::set<std::string> basis;
  for (int period = 0; period < 3; ++period) {
    std::vector<double> scales(6, 1.0);
    if (period > 0) scales[period] = 0.2;
    const net::Network net = sc.scaled(scales);
    const auto demands = random_demands(6, 800 + period);
    const CgResult result =
        solve_column_generation(net, demands, exact_options());
    ASSERT_TRUE(result.converged);
    manager.store(make_signature(net, demands), net, result);
    basis = basis_keys(result);
  }
  ASSERT_GT(inj.fired(common::faults::kPoolEvictWrongColumn), 0);

  const std::vector<std::string> kept = entry_keys(manager);
  for (const std::string& key : basis) {
    EXPECT_NE(std::find(kept.begin(), kept.end(), key), kept.end())
        << "mis-eviction fault removed a basis column";
  }
}

/// The capped-pool correctness property: seed a perturbed resolve from the
/// manager and the certified optimum must match a cold solve to 1e-7 —
/// evicting columns can cost iterations, never bits.
TEST(PoolManager, CappedSeedingMatchesColdSolve) {
  const Scenario sc = Scenario::make(15, 5, 2, 3);
  const CgResult first =
      solve_column_generation(sc.net, sc.demands, exact_options());
  ASSERT_TRUE(first.converged);

  // The perturbed instance the pool will be replayed against.
  std::vector<double> scales(5, 1.0);
  scales[1] = 0.05;
  const net::Network perturbed = sc.scaled(scales);
  const auto next_demands = random_demands(5, 900);
  const CgResult cold =
      solve_column_generation(perturbed, next_demands, exact_options());
  ASSERT_TRUE(cold.converged);

  for (const int cap : {4, 16, 0 /* unbounded */}) {
    PoolManager manager({.cap = cap});
    manager.store(make_signature(sc.net, sc.demands), sc.net, first);

    const std::vector<sched::Schedule> candidates =
        manager.seed(make_signature(perturbed, next_demands));
    CgOptions warm_opts = exact_options();
    warm_opts.verify = true;
    RepairStats stats;
    warm_opts.warm_pool = repair_pool(perturbed, candidates, &stats);
    const CgResult warm =
        solve_column_generation(perturbed, next_demands, warm_opts);
    ASSERT_TRUE(warm.converged) << "cap " << cap;
    EXPECT_NEAR(warm.total_slots, cold.total_slots, kRelTol * cold.total_slots)
        << "cap " << cap;
    EXPECT_TRUE(warm.verification.ok());
    if (cap > 0) {
      // Best-effort cap: the current basis is never evicted, so the pool
      // can exceed a cap smaller than the basis — never by more.
      const int basis_size = static_cast<int>(basis_keys(first).size());
      EXPECT_LE(static_cast<int>(candidates.size()),
                std::max(cap, basis_size));
    }
  }
}

/// Eviction is a pure function of the operation sequence: identical stores
/// produce identical pools (same columns, same order), regardless of the
/// parallel_for thread count the inputs were computed under.
TEST(PoolManager, EvictionOrderIsDeterministicAcrossThreadCounts) {
  const Scenario sc = Scenario::make(16, 6, 2, 3);
  constexpr int kPeriods = 4;

  const auto run = [&sc](int threads) {
    std::vector<CgResult> results(kPeriods);
    std::vector<InstanceSignature> signatures(kPeriods);
    std::vector<net::Network> nets;
    std::vector<std::vector<video::LinkDemand>> demands(kPeriods);
    for (int p = 0; p < kPeriods; ++p) {
      std::vector<double> scales(6, 1.0);
      if (p > 0) scales[p] = 0.25;
      nets.push_back(sc.scaled(scales));
      demands[p] = random_demands(6, 1000 + p);
    }
    // The solves run under `threads` workers (nondeterministic assignment
    // of items to threads); the stores replay serially in period order.
    common::parallel_for(
        kPeriods, static_cast<unsigned>(threads), [&](std::size_t p) {
          results[p] =
              solve_column_generation(nets[p], demands[p], exact_options());
          signatures[p] = make_signature(nets[p], demands[p]);
        });
    PoolManagerOptions opts;
    opts.cap = 3;
    PoolManager manager(opts);
    for (int p = 0; p < kPeriods; ++p)
      manager.store(signatures[p], nets[p], results[p]);
    return entry_keys(manager);
  };

  const std::vector<std::string> serial = run(1);
  const std::vector<std::string> fourway = run(4);
  const std::vector<std::string> again = run(4);
  EXPECT_EQ(serial, fourway);
  EXPECT_EQ(fourway, again);
}

TEST(PoolManager, SeedPrefersTheNearestNeighbourInstance) {
  const Scenario sc = Scenario::make(17, 5, 2, 3);
  std::vector<double> mild(5, 1.0), heavy(5, 1.0);
  mild[0] = 0.7;
  heavy[0] = heavy[2] = heavy[3] = 0.01;
  const net::Network mild_net = sc.scaled(mild);
  const net::Network heavy_net = sc.scaled(heavy);

  PoolManager manager;
  const CgResult r_mild =
      solve_column_generation(mild_net, sc.demands, exact_options());
  const CgResult r_heavy =
      solve_column_generation(heavy_net, sc.demands, exact_options());
  ASSERT_TRUE(r_mild.converged);
  ASSERT_TRUE(r_heavy.converged);
  manager.store(make_signature(heavy_net, sc.demands), heavy_net, r_heavy);
  manager.store(make_signature(mild_net, sc.demands), mild_net, r_mild);

  // Query the clear-air instance (known to neither): the mild perturbation
  // is nearer, so every mild column is seeded before any heavy-only one,
  // although the heavy instance was stored first.
  const std::vector<sched::Schedule> seeded =
      manager.seed(make_signature(sc.net, sc.demands));
  std::set<std::string> mild_keys;
  for (const auto& c : r_mild.pool) mild_keys.insert(c.key());
  ASSERT_EQ(seeded.size(), static_cast<std::size_t>(manager.size()));
  ASSERT_GT(seeded.size(), mild_keys.size());  // heavy-only columns follow
  for (std::size_t i = 0; i < seeded.size(); ++i) {
    EXPECT_EQ(mild_keys.count(seeded[i].key()) == 1, i < mild_keys.size())
        << "seeded column " << i << " out of nearest-neighbour order";
  }
  // All seeded columns came from a non-exact fingerprint: neighbour capital.
  EXPECT_EQ(manager.metrics().neighbour_seeded,
            static_cast<std::int64_t>(seeded.size()));
  EXPECT_EQ(manager.metrics().seeded_columns,
            static_cast<std::int64_t>(seeded.size()));
}

TEST(PoolManager, CheckpointRoundTripPreservesLifecycleState) {
  const Scenario sc = Scenario::make(18, 5, 2, 3);
  const CgResult result =
      solve_column_generation(sc.net, sc.demands, exact_options());
  ASSERT_TRUE(result.converged);

  PoolManager manager;
  manager.store(make_signature(sc.net, sc.demands), sc.net, result);
  const CgCheckpoint base = make_checkpoint(sc.net, sc.demands, result);
  const CgCheckpoint exported = manager.export_checkpoint(base);
  ASSERT_EQ(exported.pool.size(), exported.pool_meta.size());
  ASSERT_EQ(exported.pool.size(),
            static_cast<std::size_t>(manager.size()));

  PoolManager reloaded;
  reloaded.import_checkpoint(exported);
  ASSERT_EQ(reloaded.size(), manager.size());
  for (int i = 0; i < manager.size(); ++i) {
    const auto& a = manager.entries()[i];
    const auto& b = reloaded.entries()[i];
    EXPECT_EQ(a.column.key(), b.column.key());
    EXPECT_EQ(a.meta.fingerprint, b.meta.fingerprint);
    EXPECT_EQ(a.meta.last_used_epoch, b.meta.last_used_epoch);
    EXPECT_EQ(a.meta.in_basis, b.meta.in_basis);
    EXPECT_DOUBLE_EQ(a.meta.last_reduced_cost, b.meta.last_reduced_cost);
  }
}

TEST(PoolManager, TrimCheckpointRespectsCapAndBasis) {
  const Scenario sc = Scenario::make(19, 6, 2, 3);
  const CgResult result =
      solve_column_generation(sc.net, sc.demands, exact_options());
  ASSERT_TRUE(result.converged);
  CgCheckpoint ckpt = make_checkpoint(sc.net, sc.demands, result);
  const std::set<std::string> basis = basis_keys(result);
  ASSERT_GT(ckpt.pool.size(), basis.size());  // something evictable

  PoolManagerOptions opts;
  opts.cap = static_cast<int>(basis.size());
  const PoolManager manager(opts);
  manager.trim_checkpoint(&ckpt);
  EXPECT_EQ(ckpt.pool.size(), basis.size());
  EXPECT_EQ(ckpt.pool.size(), ckpt.pool_tau.size());
  EXPECT_EQ(ckpt.pool.size(), ckpt.pool_meta.size());
  for (const auto& col : ckpt.pool) EXPECT_TRUE(basis.count(col.key()));
}

TEST(PoolManager, MetricsAccumulateAndResetWithoutTouchingThePool) {
  const Scenario sc = Scenario::make(20, 5, 2, 3);
  const CgResult result =
      solve_column_generation(sc.net, sc.demands, exact_options());
  PoolManager manager;
  const InstanceSignature sig = make_signature(sc.net, sc.demands);
  manager.store(sig, sc.net, result);
  (void)manager.seed(sig);
  EXPECT_EQ(manager.metrics().stores, 1);
  EXPECT_EQ(manager.metrics().seed_calls, 1);
  EXPECT_GT(manager.metrics().seeded_columns, 0);

  const int size_before = manager.size();
  manager.reset_metrics();
  EXPECT_EQ(manager.metrics().stores, 0);
  EXPECT_EQ(manager.metrics().seed_calls, 0);
  EXPECT_EQ(manager.metrics().seeded_columns, 0);
  EXPECT_EQ(manager.size(), size_before);  // resetting metrics keeps capital
}

/// The accounting-window contract for the counters the cap drives:
/// reset_metrics() clears evicted and neighbour_seeded (a window that keeps
/// stale evictions breaks the window identities fleet-mode reporting sums
/// over), while the cap is state, not accounting: it survives the reset and
/// still evicts on the next store.
TEST(PoolManager, ResetMetricsClearsCapCountersButKeepsTheCap) {
  const Scenario sc = Scenario::make(22, 5, 2, 3);
  std::vector<double> heavy(5, 1.0);
  heavy[0] = heavy[2] = 0.01;
  const net::Network heavy_net = sc.scaled(heavy);
  const CgResult result =
      solve_column_generation(sc.net, sc.demands, exact_options());
  const CgResult r_heavy =
      solve_column_generation(heavy_net, sc.demands, exact_options());
  PoolManager manager({.cap = 4});
  const InstanceSignature sig = make_signature(sc.net, sc.demands);
  const InstanceSignature heavy_sig = make_signature(heavy_net, sc.demands);
  manager.store(heavy_sig, heavy_net, r_heavy);
  manager.store(sig, sc.net, result);
  (void)manager.seed(heavy_sig);
  ASSERT_GT(manager.metrics().evicted, 0);

  const int size_before = manager.size();
  manager.reset_metrics();
  EXPECT_EQ(manager.metrics().evicted, 0);
  EXPECT_EQ(manager.metrics().neighbour_seeded, 0);
  EXPECT_EQ(manager.size(), size_before);
  EXPECT_EQ(manager.options().cap, 4);

  manager.store(heavy_sig, heavy_net, r_heavy);
  EXPECT_GT(manager.metrics().evicted, 0);  // the kept cap still evicts
}

// ---- Cross-session persistence of the multi-instance index --------------

TEST(PoolManager, ExportCarriesTheInstanceIndexAndEpoch) {
  const Scenario sc = Scenario::make(30, 5, 2, 3);
  // Heavy blockage, so the two instances' optimal pools share little: the
  // first instance keeps live columns under its own fingerprint and its
  // index entry survives the second store.
  std::vector<double> heavy(5, 1.0);
  heavy[0] = heavy[2] = heavy[3] = 0.01;
  const net::Network heavy_net = sc.scaled(heavy);

  PoolManager manager;
  const CgResult r_clear =
      solve_column_generation(sc.net, sc.demands, exact_options());
  const CgResult r_heavy =
      solve_column_generation(heavy_net, sc.demands, exact_options());
  manager.store(make_signature(sc.net, sc.demands), sc.net, r_clear);
  manager.store(make_signature(heavy_net, sc.demands), heavy_net, r_heavy);

  const CgCheckpoint base = make_checkpoint(sc.net, sc.demands, r_clear);
  const CgCheckpoint exported = manager.export_checkpoint(base);
  EXPECT_EQ(exported.pool_epoch, 2);
  ASSERT_EQ(exported.pool_index.size(), 2u);
  EXPECT_FALSE(exported.pool_index_degraded);
  std::set<std::uint64_t> fps;
  for (const PoolIndexEntry& e : exported.pool_index) {
    fps.insert(e.fingerprint);
    EXPECT_EQ(e.links, 5);
    EXPECT_EQ(e.channels, 2);
    // store() learned the full signature, so the persisted entry carries
    // the feature vector neighbour distance is computed over.
    EXPECT_FALSE(e.features.empty());
  }
  EXPECT_TRUE(fps.count(make_signature(sc.net, sc.demands).fingerprint));
  EXPECT_TRUE(fps.count(make_signature(heavy_net, sc.demands).fingerprint));
}

TEST(PoolManager, ImportRestoresNeighbourSeedingAcrossRestart) {
  const Scenario sc = Scenario::make(31, 5, 2, 3);
  std::vector<double> mild(5, 1.0), heavy(5, 1.0);
  mild[0] = 0.7;
  heavy[0] = heavy[2] = heavy[3] = 0.01;
  const net::Network mild_net = sc.scaled(mild);
  const net::Network heavy_net = sc.scaled(heavy);

  PoolManager manager;
  const CgResult r_mild =
      solve_column_generation(mild_net, sc.demands, exact_options());
  const CgResult r_heavy =
      solve_column_generation(heavy_net, sc.demands, exact_options());
  manager.store(make_signature(heavy_net, sc.demands), heavy_net, r_heavy);
  manager.store(make_signature(mild_net, sc.demands), mild_net, r_mild);

  // Restart: serialize through the actual text format, then re-import.
  const CgCheckpoint exported = manager.export_checkpoint(
      make_checkpoint(mild_net, sc.demands, r_mild));
  const auto reparsed = parse_checkpoint(serialize_checkpoint(exported));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  PoolManager reloaded;
  reloaded.import_checkpoint(reparsed.value());

  // The restarted manager makes the same nearest-neighbour calls the
  // original would: clear air seeds the mild instance's columns first.
  const InstanceSignature query = make_signature(sc.net, sc.demands);
  const std::vector<sched::Schedule> before = manager.seed(query);
  const std::vector<sched::Schedule> after = reloaded.seed(query);
  ASSERT_FALSE(after.empty());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i].key(), after[i].key());
  EXPECT_EQ(reloaded.metrics().neighbour_seeded,
            static_cast<std::int64_t>(after.size()));
}

TEST(PoolManager, ImportAdvancesTheEpochClockInsteadOfRestartingIt) {
  const Scenario sc = Scenario::make(32, 5, 2, 3);
  const CgResult result =
      solve_column_generation(sc.net, sc.demands, exact_options());
  PoolManager manager;
  manager.store(make_signature(sc.net, sc.demands), sc.net, result);
  manager.store(make_signature(sc.net, sc.demands), sc.net, result);
  const CgCheckpoint exported = manager.export_checkpoint(
      make_checkpoint(sc.net, sc.demands, result));
  ASSERT_EQ(exported.pool_epoch, 2);

  PoolManager reloaded;
  reloaded.import_checkpoint(exported);
  reloaded.store(make_signature(sc.net, sc.demands), sc.net, result);
  const CgCheckpoint again = reloaded.export_checkpoint(
      make_checkpoint(sc.net, sc.demands, result));
  // Recency scores saved at epochs 1..2 stay meaningful: the restarted
  // clock continues at 3 rather than colliding with them at 1.
  EXPECT_EQ(again.pool_epoch, 3);
  ASSERT_EQ(again.pool_index.size(), 1u);
  EXPECT_EQ(again.pool_index[0].last_epoch, 3);
}

/// An index entry whose instance lost every column to eviction is no seed
/// capital, only a wasted neighbour slot in seed(): eviction on import and
/// on trim_checkpoint must drop it, as store() always has.
TEST(PoolManager, CappedImportAndTrimPruneIndexEntriesLeftWithoutColumns) {
  const Scenario sc = Scenario::make(33, 5, 2, 3);
  std::vector<double> heavy(5, 1.0);
  heavy[0] = heavy[2] = heavy[3] = 0.01;
  const net::Network heavy_net = sc.scaled(heavy);
  const CgResult r_heavy =
      solve_column_generation(heavy_net, sc.demands, exact_options());
  const CgResult r_clear =
      solve_column_generation(sc.net, sc.demands, exact_options());
  ASSERT_TRUE(r_heavy.converged);
  ASSERT_TRUE(r_clear.converged);

  PoolManager unbounded;
  unbounded.store(make_signature(heavy_net, sc.demands), heavy_net, r_heavy);
  unbounded.store(make_signature(sc.net, sc.demands), sc.net, r_clear);
  const CgCheckpoint saved = unbounded.export_checkpoint(
      make_checkpoint(sc.net, sc.demands, r_clear));
  ASSERT_EQ(saved.pool_index.size(), 2u);
  const std::uint64_t clear_fp = make_signature(sc.net, sc.demands).fingerprint;

  // Cap 1 evicts every non-basis column, so only the clear-air basis (all
  // under the clear-air fingerprint) survives.
  PoolManager capped({.cap = 1});
  capped.import_checkpoint(saved);
  ASSERT_GT(capped.metrics().evicted, 0);
  const CgCheckpoint reexported = capped.export_checkpoint(saved);
  for (const PoolColumnMeta& m : reexported.pool_meta)
    ASSERT_EQ(m.fingerprint, clear_fp);
  ASSERT_EQ(reexported.pool_index.size(), 1u);
  EXPECT_EQ(reexported.pool_index[0].fingerprint, clear_fp);

  CgCheckpoint trimmed = saved;
  capped.trim_checkpoint(&trimmed);
  ASSERT_LT(trimmed.pool.size(), saved.pool.size());
  ASSERT_EQ(trimmed.pool_index.size(), 1u);
  EXPECT_EQ(trimmed.pool_index[0].fingerprint, clear_fp);
}

}  // namespace
}  // namespace mmwave::core
