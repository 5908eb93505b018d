// Sweep engine (warm starts, recycling) and the adaptive sweep driver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "em/iterative_solver.hpp"
#include "em/sweep.hpp"
#include "obs/metrics.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

RectMesh plain_mesh(double pitch = 0.001) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.020, 0.016);
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, pitch);
}

PlaneBem make_bem(RectMesh mesh) {
    return PlaneBem(std::move(mesh), Greens::homogeneous(4.2, true), {});
}

double max_rel_diff(const MatrixC& a, const MatrixC& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double scale = 1e-300;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            scale = std::max(scale, std::abs(a(i, j)));
    double m = 0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            m = std::max(m, std::abs(a(i, j) - b(i, j)) / scale);
    return m;
}

SolverOptions iterative_options() {
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    return opt;
}

VectorD linspace(double lo, double hi, std::size_t n) {
    VectorD f(n);
    for (std::size_t i = 0; i < n; ++i)
        f[i] = lo + (hi - lo) * static_cast<double>(i) /
                        static_cast<double>(n - 1);
    return f;
}

} // namespace

TEST(SweepEngine, MatchesLegacyColdSweepAndSavesWork) {
    const PlaneBem bem = make_bem(plain_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0)};
    const VectorD freqs = linspace(4e8, 6e8, 8);

    // Cold reference: independent per-point solves on a fresh solver.
    const IterativeSolver cold(bem, zs, iterative_options());
    std::vector<MatrixC> zc;
    for (const double f : freqs) zc.push_back(cold.port_impedance(f, ports));

    const IterativeSolver engine(bem, zs, iterative_options());
    const auto ze = engine.sweep_impedance(freqs, ports);

    const DirectSolver direct(bem, zs);
    const auto zd = direct.sweep_impedance(freqs, ports);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        EXPECT_LT(max_rel_diff(ze[i], zc[i]), 1e-8) << "f = " << freqs[i];
        EXPECT_LT(max_rel_diff(ze[i], zd[i]), 1e-8) << "f = " << freqs[i];
    }

    const IterativeSolverStats& st = engine.stats();
    EXPECT_EQ(st.sweep_points, freqs.size());
    // Every point after the first seeds from prior work, and the recycled
    // subspace starts paying off once it holds the first point's columns.
    EXPECT_GE(st.warm_starts, freqs.size() - 1);
    EXPECT_GE(st.recycle_hits, 1u);
    EXPECT_GT(st.saved_iterations, 0u);
    // The headline claim: cross-frequency reuse beats cold per-point solves.
    EXPECT_LT(st.matvecs, cold.stats().matvecs);
    EXPECT_GT(st.block_solves, 0u);
}

// Sweeps of fewer than two points bypass the engine: a one-point sweep is
// exactly port_impedance (the bisection order would visit index 0 twice),
// and an empty sweep solves nothing.
TEST(SweepEngine, SinglePointSweepIsPortImpedance) {
    const PlaneBem bem = make_bem(plain_mesh(0.002));
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0)};

    const IterativeSolver swept(bem, zs, iterative_options());
    const auto z1 = swept.sweep_impedance({5e8}, ports);
    ASSERT_EQ(z1.size(), 1u);
    EXPECT_EQ(swept.stats().frequencies, 1u);
    EXPECT_EQ(swept.stats().sweep_points, 0u);
    const MatrixC z = IterativeSolver(bem, zs, iterative_options())
                          .port_impedance(5e8, ports);
    for (std::size_t r = 0; r < z.rows(); ++r)
        for (std::size_t c = 0; c < z.cols(); ++c)
            EXPECT_EQ(z1[0](r, c), z(r, c));

    const IterativeSolver empty(bem, zs, iterative_options());
    EXPECT_TRUE(empty.sweep_impedance({}, ports).empty());
    EXPECT_EQ(empty.stats().frequencies, 0u);
}

TEST(SweepEngine, WarmStartedSweepBitwiseInvariantAcrossThreadCounts) {
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const VectorD freqs = linspace(3e8, 9e8, 5);

    pgsi::test::ScopedThreadCount pin(1);
    std::vector<MatrixC> base;
    {
        const PlaneBem bem = make_bem(plain_mesh());
        const std::vector<std::size_t> ports{
            bem.mesh().nearest_node({0.002, 0.002}, 0),
            bem.mesh().nearest_node({0.018, 0.014}, 0)};
        const IterativeSolver solver(bem, zs, iterative_options());
        base = solver.sweep_impedance(freqs, ports);
        EXPECT_EQ(solver.stats().sweep_points, freqs.size());
    }
    for (const unsigned threads : {2u, 8u}) {
        pin.repin(threads);
        const PlaneBem bem = make_bem(plain_mesh());
        const std::vector<std::size_t> ports{
            bem.mesh().nearest_node({0.002, 0.002}, 0),
            bem.mesh().nearest_node({0.018, 0.014}, 0)};
        const auto got = IterativeSolver(bem, zs, iterative_options())
                             .sweep_impedance(freqs, ports);
        for (std::size_t i = 0; i < freqs.size(); ++i)
            for (std::size_t r = 0; r < got[i].rows(); ++r)
                for (std::size_t c = 0; c < got[i].cols(); ++c)
                    EXPECT_EQ(got[i](r, c), base[i](r, c))
                        << "threads " << threads << " f " << freqs[i];
    }
}

TEST(AdaptiveSweep, RefinesResonanceAndSolvesFewerPointsThanGrid) {
    // 2 mm pitch: resolution is irrelevant here, only the resonant shape of
    // Z(f), and the 64-point reference sweep stays cheap.
    const PlaneBem bem = make_bem(plain_mesh(0.002));
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0)};
    // 64 points across the plane's first cavity resonances: smooth inductive
    // rise, sharp peaks, smooth tails — the shape adaptive refinement is for.
    const VectorD freqs = linspace(2e8, 5e9, 64);

    AdaptiveSweepOptions opt;
    opt.tol = 1e-3;
    const AdaptiveSweepResult res =
        adaptive_sweep_impedance(direct, freqs, ports, opt);

    ASSERT_EQ(res.z.size(), freqs.size());
    ASSERT_EQ(res.solved.size(), freqs.size());
    EXPECT_LT(res.solves, freqs.size()); // interpolation actually saved work
    EXPECT_GT(res.refinements, 0u);      // the resonances forced refinement
    EXPECT_LE(res.worst_validated_error, opt.tol);

    // Solved points are the solver's own results, verbatim.
    std::size_t solved = 0;
    const auto zref = direct.sweep_impedance(freqs, ports);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        if (!res.solved[i]) continue;
        ++solved;
        EXPECT_LT(max_rel_diff(res.z[i], zref[i]), 1e-12);
    }
    EXPECT_EQ(solved, res.solves);
    // Interpolated points track the true sweep under the driver's own error
    // scale: entry magnitude floored at 1e-3 of the band's peak |Z| (near
    // the low-frequency zeros of Z a tiny absolute error is acceptable even
    // when it is large relative to the local entry). The validation bounds
    // midpoints at tol; allow slack elsewhere in the gaps.
    double gmax = 0;
    for (const MatrixC& z : zref)
        for (std::size_t r = 0; r < z.rows(); ++r)
            for (std::size_t c = 0; c < z.cols(); ++c)
                gmax = std::max(gmax, std::abs(z(r, c)));
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        double err = 0;
        for (std::size_t r = 0; r < ports.size(); ++r)
            for (std::size_t c = 0; c < ports.size(); ++c)
                err = std::max(err,
                               std::abs(res.z[i](r, c) - zref[i](r, c)) /
                                   std::max(std::abs(zref[i](r, c)),
                                            1e-3 * gmax));
        EXPECT_LT(err, 0.05) << "f = " << freqs[i];
    }
}

TEST(AdaptiveSweep, SmallGridSolvesEverythingOutright) {
    const PlaneBem bem = make_bem(plain_mesh(0.002));
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    const VectorD freqs = linspace(1e8, 1e9, 6);
    const AdaptiveSweepResult res =
        adaptive_sweep_impedance(direct, freqs, ports);
    EXPECT_EQ(res.solves, freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i)
        EXPECT_TRUE(res.solved[i]);
    EXPECT_EQ(res.refinements, 0u);
}

TEST(AdaptiveSweep, MaxSolvesCapsTheWorkAndStillFillsTheGrid) {
    const PlaneBem bem = make_bem(plain_mesh(0.002));
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    const VectorD freqs = linspace(2e8, 5e9, 64);
    AdaptiveSweepOptions opt;
    opt.max_solves = 12;
    const std::uint64_t fills_before =
        obs::counter("em.sweep.unvalidated_fills").value();
    const AdaptiveSweepResult res =
        adaptive_sweep_impedance(direct, freqs, ports, opt);
    EXPECT_LE(res.solves, opt.max_solves);
    for (std::size_t i = 0; i < freqs.size(); ++i)
        EXPECT_GT(res.z[i].rows(), 0u); // every point filled, solved or not

    // The budget binds on this grid (64 points, 12 solves), so the unchecked
    // model fills must be surfaced, not silent: the result counts them, a
    // "sweep.budget_exhausted" recovery event names the budget, and the
    // "em.sweep.unvalidated_fills" counter carries them into exported
    // metrics.
    ASSERT_GT(res.unvalidated_points, 0u);
    EXPECT_EQ(res.recovery.count("sweep.budget_exhausted"), 1u);
    EXPECT_EQ(obs::counter("em.sweep.unvalidated_fills").value(),
              fills_before + res.unvalidated_points);
}

TEST(AdaptiveSweep, UnboundBudgetReportsNoDegradation) {
    const PlaneBem bem = make_bem(plain_mesh(0.002));
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    const AdaptiveSweepResult res =
        adaptive_sweep_impedance(direct, linspace(1e8, 1e9, 6), ports);
    EXPECT_EQ(res.unvalidated_points, 0u);
    EXPECT_FALSE(res.recovery.any());
}

TEST(AdaptiveSweep, RejectsInvalidArguments) {
    const PlaneBem bem = make_bem(plain_mesh());
    const DirectSolver direct(bem, SurfaceImpedance{});
    const std::vector<std::size_t> ports{0};
    EXPECT_THROW(adaptive_sweep_impedance(direct, {}, ports), InvalidArgument);
    EXPECT_THROW(adaptive_sweep_impedance(direct, {1e8, 1e8}, ports),
                 InvalidArgument);
    EXPECT_THROW(adaptive_sweep_impedance(direct, {2e8, 1e8}, ports),
                 InvalidArgument);
    EXPECT_THROW(adaptive_sweep_impedance(direct, {1e8, 2e8}, {}),
                 InvalidArgument);
}
