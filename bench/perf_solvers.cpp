// Microbenchmarks (google-benchmark) for the three hot substrates:
// the dense bounded-variable simplex, the branch & bound MILP, and the
// Foschini–Miljanic power-control solve — plus one end-to-end column
// generation solve.  These are wall-clock regression guards, not figures.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "core/column_generation.h"
#include "lp/simplex.h"
#include "milp/milp.h"
#include "mmwave/power_control.h"
#include "video/demand.h"

namespace {

using namespace mmwave;

// Shared random covering LP (the CG master's shape): min c'x, sparse
// A x >= b, 0 <= x <= 100, density 0.3.
lp::LpModel make_covering_lp(int rows, int cols, std::uint64_t seed) {
  common::Rng rng(seed);
  lp::LpModel model;
  for (int j = 0; j < cols; ++j)
    model.add_variable(0.0, 100.0, rng.uniform(0.5, 2.0));
  for (int i = 0; i < rows; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < cols; ++j) {
      if (rng.bernoulli(0.3)) terms.emplace_back(j, rng.uniform(0.1, 1.0));
    }
    if (terms.empty()) terms.emplace_back(i % cols, 1.0);
    model.add_constraint(std::move(terms), lp::Sense::Ge,
                         rng.uniform(1.0, 5.0));
  }
  return model;
}

void BM_SimplexCoveringLp(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const lp::LpModel model = make_covering_lp(rows, 2 * rows, 42);
  for (auto _ : state) {
    auto sol = lp::solve_lp(model);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_SimplexCoveringLp)->Arg(20)->Arg(60)->Arg(120);

// Head-to-head cold solve: sparse LU + eta engine (dense=0) vs the dense
// explicit-inverse reference (dense=1), small and large bases.
void BM_RevisedVsDense(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const bool dense = state.range(1) != 0;
  const lp::LpModel model = make_covering_lp(rows, 2 * rows, 42);
  lp::LpOptions opt;
  opt.dense_basis = dense;
  std::int64_t pivots = 0;
  for (auto _ : state) {
    auto sol = lp::solve_lp(model, opt);
    benchmark::DoNotOptimize(sol.objective);
    pivots += sol.iterations;
  }
  state.counters["pivots"] =
      static_cast<double>(pivots) /
      std::max<std::int64_t>(1, state.iterations());
}
BENCHMARK(BM_RevisedVsDense)
    ->Args({40, 0})
    ->Args({40, 1})
    ->Args({160, 0})
    ->Args({160, 1})
    ->ArgNames({"rows", "dense"});

// CG-style warm resume: solve once, append a handful of columns, then
// benchmark the warm re-solve from the exported basis.
void BM_RevisedVsDenseWarm(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const bool dense = state.range(1) != 0;
  lp::LpModel model = make_covering_lp(rows, 2 * rows, 42);
  lp::LpOptions opt;
  opt.dense_basis = dense;
  lp::WarmStart base_warm;
  auto seed_sol = lp::solve_lp(model, opt, &base_warm);
  // Grow the model the way column generation does: new covering columns.
  common::Rng rng(43);
  for (int a = 0; a < 8; ++a) {
    const int j = model.add_variable(0.0, 100.0, rng.uniform(0.3, 1.5));
    for (int i = 0; i < rows; ++i)
      if (rng.bernoulli(0.3)) model.add_term(i, j, rng.uniform(0.1, 1.0));
  }
  for (auto _ : state) {
    lp::WarmStart warm = base_warm;
    auto sol = lp::solve_lp(model, opt, &warm);
    benchmark::DoNotOptimize(sol.objective);
  }
  benchmark::DoNotOptimize(seed_sol.objective);
}
BENCHMARK(BM_RevisedVsDenseWarm)
    ->Args({40, 0})
    ->Args({40, 1})
    ->Args({160, 0})
    ->Args({160, 1})
    ->ArgNames({"rows", "dense"});

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(7);
  milp::MilpModel model;
  model.set_objective_sense(lp::ObjSense::Maximize);
  std::vector<lp::Term> row;
  for (int i = 0; i < n; ++i) {
    const int v = model.add_variable(0, 1, rng.uniform(1.0, 10.0),
                                     milp::VarType::Binary);
    row.emplace_back(v, rng.uniform(1.0, 5.0));
  }
  model.add_constraint(row, lp::Sense::Le, n * 1.2);
  for (auto _ : state) {
    auto sol = milp::solve_milp(model);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(15)->Arg(25);

void BM_PowerControl(benchmark::State& state) {
  const int active = static_cast<int>(state.range(0));
  common::Rng rng(3);
  net::NetworkParams params;
  params.num_links = active;
  params.num_channels = 1;
  net::Network net = net::Network::table_i(params, rng);
  std::vector<int> links(active);
  std::vector<double> gammas(active, 0.1);
  for (int i = 0; i < active; ++i) links[i] = i;
  for (auto _ : state) {
    auto result = net::min_power_assignment(net, 0, links, gammas);
    benchmark::DoNotOptimize(result.feasible);
  }
}
BENCHMARK(BM_PowerControl)->Arg(5)->Arg(15)->Arg(30);

void BM_ColumnGenerationHeuristic(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  common::Rng rng(11);
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = 5;
  net::Network net = net::Network::table_i(params, rng);
  video::DemandConfig dcfg;
  dcfg.demand_scale = 1e-3;
  common::Rng drng = rng.fork(1);
  const auto demands = video::make_link_demands(links, dcfg, drng);
  core::CgOptions opts;
  opts.pricing = core::PricingMode::HeuristicOnly;
  for (auto _ : state) {
    auto result = core::solve_column_generation(net, demands, opts);
    benchmark::DoNotOptimize(result.total_slots);
  }
}
BENCHMARK(BM_ColumnGenerationHeuristic)->Arg(10)->Arg(30);

// End-to-end CG master-LP comparison: warm-started incremental solves vs
// cold two-phase solves on the paper's L=20, K=5 point.  The counters are
// what BENCH_cg.json is read for: simplex pivots per master solve and the
// warm-start hit rate (0 for the cold variant by construction).
void BM_ColumnGenerationMaster(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const int links = 20;
  common::Rng rng(11);
  net::NetworkParams params;
  params.num_links = links;
  params.num_channels = 5;
  net::Network net = net::Network::table_i(params, rng);
  video::DemandConfig dcfg;
  dcfg.demand_scale = 1e-3;
  common::Rng drng = rng.fork(1);
  const auto demands = video::make_link_demands(links, dcfg, drng);
  core::CgOptions opts;
  opts.pricing = core::PricingMode::HeuristicOnly;
  opts.warm_start_master = warm;

  std::int64_t pivots = 0;
  std::int64_t solves = 0;
  std::int64_t warm_hits = 0;
  std::int64_t cg_iterations = 0;
  double master_seconds = 0.0;
  for (auto _ : state) {
    auto result = core::solve_column_generation(net, demands, opts);
    benchmark::DoNotOptimize(result.total_slots);
    pivots += result.profile.master_pivots;
    solves += result.profile.master_solves;
    warm_hits += result.profile.master_warm_hits;
    cg_iterations += result.iterations;
    master_seconds += result.profile.master_seconds;
  }
  const double n = std::max<std::int64_t>(1, state.iterations());
  state.counters["pivots_per_solve"] =
      solves > 0 ? static_cast<double>(pivots) / solves : 0.0;
  state.counters["warm_hit_rate"] =
      solves > 0 ? static_cast<double>(warm_hits) / solves : 0.0;
  state.counters["cg_iterations"] = static_cast<double>(cg_iterations) / n;
  state.counters["master_seconds"] = master_seconds / n;
}
BENCHMARK(BM_ColumnGenerationMaster)
    ->Arg(0)  // cold: two-phase solve every iteration
    ->Arg(1)  // warm: resume from the previous basis
    ->ArgName("warm");

}  // namespace

BENCHMARK_MAIN();
