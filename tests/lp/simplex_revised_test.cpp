// Revised simplex vs the dense reference engine: on randomized seeded
// sparse LPs (cold and warm-started with appended columns) the sparse
// LU + eta engine must reproduce the dense explicit-inverse engine's
// objective and duals to 1e-9, Dantzig ties must go to the lowest column
// index on both engines, and every solution must stand on its own as a KKT
// certificate.
#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "check/lp_certificate.h"
#include "common/rng.h"
#include "lp/model.h"

namespace mmwave::lp {
namespace {

// Random covering LP with mixed bounds: min c'x, sparse A x >= b (every
// row covered), some variables capped at 50, plus a few loose <= rows.
// Feasible (a single covering variable can satisfy any row within its cap)
// and bounded below (all costs positive), so every solve must end Optimal.
LpModel random_mixed_lp(common::Rng& rng, int rows, int cols) {
  LpModel m;
  for (int j = 0; j < cols; ++j) {
    const double ub = rng.bernoulli(0.3) ? 50.0 : kInfinity;
    m.add_variable(0.0, ub, rng.uniform(0.5, 2.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < cols; ++j)
      if (rng.bernoulli(0.3)) terms.emplace_back(j, rng.uniform(0.1, 1.0));
    if (terms.empty())
      terms.emplace_back(static_cast<int>(rng.uniform_int(0, cols - 1)),
                         rng.uniform(0.1, 1.0));
    m.add_constraint(std::move(terms), Sense::Ge, rng.uniform(1.0, 5.0));
  }
  // Loose capacity rows exercise Le slacks without binding at the optimum.
  const int le_rows = rows / 3;
  for (int i = 0; i < le_rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < cols; ++j)
      if (rng.bernoulli(0.3)) terms.emplace_back(j, rng.uniform(0.1, 1.0));
    if (terms.empty()) continue;
    m.add_constraint(std::move(terms), Sense::Le, 1e3);
  }
  return m;
}

void append_column(LpModel& m, common::Rng& rng) {
  const int j = m.add_variable(0.0, kInfinity, rng.uniform(0.3, 1.5));
  for (int i = 0; i < m.num_constraints(); ++i)
    if (rng.bernoulli(0.5)) m.add_term(i, j, rng.uniform(0.2, 1.2));
}

void expect_certificate_ok(const LpModel& m, const LpSolution& sol) {
  const check::LpCertReport rep = check::check_lp_certificate(m, sol);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

LpOptions make_options(bool dense) {
  LpOptions opt;
  opt.dense_basis = dense;
  return opt;
}

// The core equivalence property: on every random instance the sparse
// engine finds the dense engine's optimal objective to 1e-9 and, running
// the same pivot sequence to the same optimal basis, its duals to 1e-9.
TEST(SimplexRevised, DenseAndSparseEnginesAgreeOnRandomLps) {
  common::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 25; ++trial) {
    const int rows = static_cast<int>(rng.uniform_int(3, 14));
    const int cols = rows + static_cast<int>(rng.uniform_int(1, 12));
    const LpModel m = random_mixed_lp(rng, rows, cols);

    const LpSolution dense = solve_lp(m, make_options(true));
    const LpSolution sparse = solve_lp(m, make_options(false));
    ASSERT_TRUE(dense.optimal()) << "trial " << trial;
    ASSERT_TRUE(sparse.optimal()) << "trial " << trial;
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-9 * (1.0 + std::abs(dense.objective)))
        << "trial " << trial;
    ASSERT_EQ(dense.duals.size(), sparse.duals.size());
    for (std::size_t i = 0; i < dense.duals.size(); ++i) {
      EXPECT_NEAR(dense.duals[i], sparse.duals[i], 1e-9)
          << "trial " << trial << " row " << i;
    }
    expect_certificate_ok(m, dense);
    expect_certificate_ok(m, sparse);
  }
}

// Dantzig ties go to the lowest column index.  In  max x0 + x1  s.t.
// x0 + x1 <= 1  the first phase-1 pass prices x0, x1 and the row slack at
// the same violation; x0 must enter on the first pivot and stay at 1 in
// the (degenerate) optimum, on both engines.
TEST(SimplexRevised, DantzigTieGoesToLowestColumn) {
  LpModel m;
  m.set_objective_sense(ObjSense::Maximize);
  m.add_variable(0.0, kInfinity, 1.0);
  m.add_variable(0.0, kInfinity, 1.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, Sense::Le, 1.0);

  for (const bool dense : {false, true}) {
    LpOptions one_pivot = make_options(dense);
    one_pivot.max_iterations = 1;
    const LpSolution first = solve_lp(m, one_pivot);
    EXPECT_EQ(first.status, SolveStatus::IterationLimit) << "dense " << dense;
    ASSERT_EQ(first.x.size(), 2u);
    EXPECT_EQ(first.x[0], 1.0) << "dense " << dense;
    EXPECT_EQ(first.x[1], 0.0) << "dense " << dense;

    const LpSolution sol = solve_lp(m, make_options(dense));
    ASSERT_TRUE(sol.optimal()) << "dense " << dense;
    EXPECT_EQ(sol.x[0], 1.0) << "dense " << dense;
    EXPECT_EQ(sol.x[1], 0.0) << "dense " << dense;
    expect_certificate_ok(m, sol);
  }
}

// Appended-column warm starts on the sparse engine: the revised warm solve
// must match a dense cold solve to 1e-9 and carry a valid certificate.
TEST(SimplexRevised, WarmAppendMatchesDenseColdSolve) {
  common::Rng rng(0x5EED5);
  for (int trial = 0; trial < 10; ++trial) {
    const int rows = static_cast<int>(rng.uniform_int(4, 11));
    const int cols = rows + static_cast<int>(rng.uniform_int(1, 8));
    LpModel m = random_mixed_lp(rng, rows, cols);

    WarmStart warm;
    LpSolution sol = solve_lp(m, make_options(false), &warm);
    ASSERT_TRUE(sol.optimal()) << "trial " << trial;
    ASSERT_TRUE(warm.valid);

    for (int growth = 0; growth < 4; ++growth) {
      append_column(m, rng);
      const LpSolution cold = solve_lp(m, make_options(true));
      sol = solve_lp(m, make_options(false), &warm);
      ASSERT_TRUE(cold.optimal());
      ASSERT_TRUE(sol.optimal()) << "trial " << trial << " growth " << growth;
      EXPECT_NEAR(sol.objective, cold.objective,
                  1e-9 * (1.0 + std::abs(cold.objective)))
          << "trial " << trial << " growth " << growth;
      expect_certificate_ok(m, sol);
    }
  }
}

// solve_lp_with_bounds (the branch & bound entry point) through the sparse
// engine must match the dense engine under tightened bounds.
TEST(SimplexRevised, BoundsOverrideMatchesDense) {
  common::Rng rng(0xB0B5);
  for (int trial = 0; trial < 10; ++trial) {
    const int rows = static_cast<int>(rng.uniform_int(3, 9));
    const int cols = rows + static_cast<int>(rng.uniform_int(1, 7));
    const LpModel m = random_mixed_lp(rng, rows, cols);
    std::vector<double> lb(cols, 0.0), ub(cols, kInfinity);
    for (int j = 0; j < cols; ++j) {
      if (rng.bernoulli(0.3)) ub[j] = rng.uniform(5.0, 20.0);
      if (rng.bernoulli(0.2)) lb[j] = rng.uniform(0.0, 1.0);
    }
    const LpSolution dense =
        solve_lp_with_bounds(m, lb, ub, make_options(true));
    const LpSolution sparse =
        solve_lp_with_bounds(m, lb, ub, make_options(false));
    ASSERT_EQ(dense.status, sparse.status) << "trial " << trial;
    if (!dense.optimal()) continue;
    EXPECT_NEAR(sparse.objective, dense.objective,
                1e-9 * (1.0 + std::abs(dense.objective)))
        << "trial " << trial;
  }
}

// The work counters must reflect what actually ran: FTRAN at least once per
// pivot, and at most one BTRAN (the duals) per pricing pass — one pass per
// pivot plus the final optimality pass of each phase.
TEST(SimplexRevised, StatsReportEngineWork) {
  common::Rng rng(0x57A7);
  const LpModel m = random_mixed_lp(rng, 10, 18);

  const LpSolution sol = solve_lp(m, make_options(false));
  ASSERT_TRUE(sol.optimal());
  EXPECT_GE(sol.stats.ftran_calls, sol.iterations);
  EXPECT_GT(sol.stats.btran_calls, 0);
  EXPECT_LE(sol.stats.btran_calls, sol.iterations + 2);
}

// An already-expired deadline must preempt the solve at the very first
// strided check (iteration 0), regardless of the stride value.
TEST(SimplexRevised, ExpiredDeadlineFiresDespiteStride) {
  common::Rng rng(0xDEAD);
  const LpModel m = random_mixed_lp(rng, 8, 14);
  LpOptions opt;
  opt.time_limit_sec = 1e-12;
  opt.deadline_check_stride = 64;
  const LpSolution sol = solve_lp(m, opt);
  EXPECT_EQ(sol.status, SolveStatus::IterationLimit);
  EXPECT_EQ(sol.error.code(), common::ErrorCode::kLimitHit);
}

// Tiny refactor intervals force the eta file to be rebuilt constantly;
// the answer must not move and the counter must show the refactorizations.
TEST(SimplexRevised, FrequentRefactorizationIsLossless) {
  common::Rng rng(0xFACF);
  const LpModel m = random_mixed_lp(rng, 10, 16);
  const LpSolution ref = solve_lp(m, make_options(true));
  ASSERT_TRUE(ref.optimal());

  LpOptions opt = make_options(false);
  opt.refactor_interval = 2;
  const LpSolution sol = solve_lp(m, opt);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, ref.objective,
              1e-9 * (1.0 + std::abs(ref.objective)));
  EXPECT_GT(sol.stats.refactorizations, 0);
  expect_certificate_ok(m, sol);
}

}  // namespace
}  // namespace mmwave::lp
