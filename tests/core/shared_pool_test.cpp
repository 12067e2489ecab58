// SharedPoolManager contract tests: the locking facade of
// core/shared_pool.h must add exactly nothing to PoolManager's semantics.
// For any fixed serialization order the pool contents, eviction victims and
// metrics are bit-identical to an unsynchronized PoolManager fed the same
// sequence, and under genuinely concurrent callers (the fleet server's
// workers) every operation is atomic — run under TSan, these tests are the
// data-race gate for the fleet's shared-pool path.
#include "core/shared_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/column_generation.h"
#include "mmwave/network.h"
#include "video/demand.h"

namespace mmwave::core {
namespace {

struct SolvedInstance {
  net::Network net;
  std::vector<video::LinkDemand> demands;
  InstanceSignature signature;
  CgResult result;
};

SolvedInstance solved_instance(std::uint64_t seed, int links = 5,
                               int channels = 2) {
  common::Rng rng(seed);
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(3);
  for (int q = 0; q < 3; ++q) p.sinr_thresholds[q] = 0.1 * (q + 1);
  SolvedInstance inst{net::Network::table_i(p, rng), {}, {}, {}};

  video::DemandConfig dcfg;
  dcfg.demand_scale = 1e-3;
  common::Rng demand_rng = rng.fork(0x5EED);
  inst.demands = video::make_link_demands(links, dcfg, demand_rng);
  inst.signature = make_signature(inst.net, inst.demands);
  CgOptions opts;
  opts.pricing = PricingMode::HeuristicOnly;
  inst.result = solve_column_generation(inst.net, inst.demands, opts);
  return inst;
}

bool same_entries(const std::vector<PoolManager::Entry>& a,
                  const std::vector<PoolManager::Entry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tau != b[i].tau) return false;
    if (a[i].meta.last_used_epoch != b[i].meta.last_used_epoch) return false;
    if (a[i].meta.last_reduced_cost != b[i].meta.last_reduced_cost)
      return false;
    if (a[i].column.transmissions().size() !=
        b[i].column.transmissions().size())
      return false;
  }
  return true;
}

// The lock adds no decision points: a serialized op sequence through the
// facade lands on exactly the state a bare PoolManager reaches.
TEST(SharedPoolManager, SerializedSequenceMatchesBareManager) {
  PoolManagerOptions opts;
  opts.cap = 6;
  SharedPoolManager shared(opts);
  PoolManager bare(opts);

  std::vector<SolvedInstance> instances;
  for (std::uint64_t s = 1; s <= 4; ++s)
    instances.push_back(solved_instance(s));

  for (int round = 0; round < 3; ++round) {
    for (const SolvedInstance& inst : instances) {
      const auto shared_seeded = shared.seed(inst.signature);
      const auto bare_seeded = bare.seed(inst.signature);
      EXPECT_EQ(shared_seeded.size(), bare_seeded.size());
      shared.store(inst.signature, inst.net, inst.result);
      bare.store(inst.signature, inst.net, inst.result);
    }
  }

  EXPECT_EQ(shared.size(), bare.size());
  EXPECT_TRUE(same_entries(shared.entries(), bare.entries()));
  const PoolManagerMetrics sm = shared.metrics();
  const PoolManagerMetrics bm = bare.metrics();
  EXPECT_EQ(sm.stores, bm.stores);
  EXPECT_EQ(sm.seed_calls, bm.seed_calls);
  EXPECT_EQ(sm.seeded_columns, bm.seeded_columns);
  EXPECT_EQ(sm.evicted, bm.evicted);
}

// Two facades fed the same sequence evict the same victims in the same
// order — the serialized determinism the fleet's record-equality rests on.
TEST(SharedPoolManager, EvictionOrderIsDeterministicUnderTheLock) {
  PoolManagerOptions opts;
  opts.cap = 4;
  SharedPoolManager a(opts);
  SharedPoolManager b(opts);
  for (std::uint64_t s = 1; s <= 5; ++s) {
    const SolvedInstance inst = solved_instance(s);
    a.store(inst.signature, inst.net, inst.result);
    b.store(inst.signature, inst.net, inst.result);
  }
  EXPECT_GT(a.metrics().evicted, 0);
  EXPECT_EQ(a.metrics().evicted, b.metrics().evicted);
  EXPECT_TRUE(same_entries(a.entries(), b.entries()));
}

// Concurrent stress: N threads hammer one shared pool with the full op mix
// (seed / store / snapshot reads).  TSan must see no race, every
// op must stay atomic, and the aggregate metrics must account for every
// call — nothing lost, nothing double-counted.
TEST(SharedPoolManager, ConcurrentStressKeepsEveryOperationAtomic) {
  PoolManagerOptions opts;
  opts.cap = 12;
  SharedPoolManager shared(opts);

  // Solve outside the threads (CG itself is not under test here); threads
  // replay stores/seeds of these instances concurrently.
  std::vector<SolvedInstance> instances;
  for (std::uint64_t s = 1; s <= 4; ++s)
    instances.push_back(solved_instance(s));

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &instances, t] {
      for (int r = 0; r < kRounds; ++r) {
        const SolvedInstance& inst =
            instances[static_cast<std::size_t>((t + r) % 4)];
        (void)shared.seed(inst.signature);
        shared.store(inst.signature, inst.net, inst.result);
        // Snapshot readers race the writers above; each must return a
        // stable copy, never a view into storage mid-move.
        const std::vector<PoolManager::Entry> snap = shared.entries();
        EXPECT_LE(static_cast<int>(snap.size()),
                  shared.size() + static_cast<int>(instances.size()) * 8);
        (void)shared.metrics();
        (void)shared.options();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const PoolManagerMetrics m = shared.metrics();
  EXPECT_EQ(m.stores, static_cast<std::int64_t>(kThreads) * kRounds);
  EXPECT_EQ(m.seed_calls, static_cast<std::int64_t>(kThreads) * kRounds);
  // The cap may be exceeded only by basis protection, never by a race.
  EXPECT_LE(shared.size(), opts.cap + static_cast<int>(instances.size()) *
                                          instances[0].net.num_links());
}

// Accounting-window contract: reset_metrics() must clear EVERY counter
// under the lock, while the pool and its cap survive.
TEST(SharedPoolManager, ResetMetricsClearsEveryCounterButKeepsThePool) {
  SharedPoolManager shared({.cap = 4});
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const SolvedInstance inst = solved_instance(s);
    (void)shared.seed(inst.signature);
    shared.store(inst.signature, inst.net, inst.result);
  }
  const PoolManagerMetrics before = shared.metrics();
  ASSERT_GT(before.seeded_columns, 0);
  ASSERT_GT(before.evicted, 0);
  const int size_before = shared.size();

  shared.reset_metrics();
  const PoolManagerMetrics after = shared.metrics();
  EXPECT_EQ(after.stores, 0);
  EXPECT_EQ(after.seed_calls, 0);
  EXPECT_EQ(after.seeded_columns, 0);
  EXPECT_EQ(after.neighbour_seeded, 0);
  EXPECT_EQ(after.evicted, 0);
  EXPECT_EQ(shared.options().cap, 4);
  EXPECT_EQ(shared.size(), size_before);
}

}  // namespace
}  // namespace mmwave::core
