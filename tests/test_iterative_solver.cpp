// Matrix-free FFT/GMRES solver path against the dense direct solver.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "em/iterative_solver.hpp"
#include "tests/plane_fixtures.hpp"
#include "tests/test_util.hpp"
#include "em/solver.hpp"

using namespace pgsi;

namespace {

using test::holey_mesh;
using test::max_rel_diff;
using test::plane_bem;

// One power island split in two congruent pieces on a shared lattice plus a
// second layer: multiple connected components and a (z, z') table dimension.
RectMesh split_plane_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.008, 0.008);
    a.z = 0.3e-3;
    a.sheet_resistance = 1e-3;
    ConductorShape b = a;
    b.outline = Polygon::rectangle(0.010, 0, 0.018, 0.008);
    ConductorShape c = a;
    c.outline = Polygon::rectangle(0, 0, 0.018, 0.008);
    c.z = 0.8e-3;
    return RectMesh({a, b, c}, 0.001);
}

// Shapes of incommensurate widths: no common lattice, so the solver
// compresses the operators into H-matrices.
RectMesh nonuniform_mesh() { return test::stretched_pair(10, 8, 8); }

SolverOptions iterative_options() {
    SolverOptions opt;
    opt.backend = SolverBackend::Iterative;
    return opt;
}

} // namespace

TEST(IterativeSolver, MatchesDirectOnHoleyMesh) {
    const PlaneBem bem = plane_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const IterativeSolver iterative(bem, zs, iterative_options());

    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0)};
    const VectorD freqs{1e8, 1e9};
    const auto zd = direct.sweep_impedance(freqs, ports);
    const auto zi = iterative.sweep_impedance(freqs, ports);
    for (std::size_t i = 0; i < freqs.size(); ++i)
        EXPECT_LT(max_rel_diff(zi[i], zd[i]), 1e-8) << "f = " << freqs[i];
    EXPECT_GT(iterative.stats().iterations, 0u);
    EXPECT_LE(iterative.stats().worst_residual,
              iterative.options().fail_tol);
}

TEST(IterativeSolver, MatchesDirectOnSplitPlanes) {
    const PlaneBem bem = plane_bem(split_plane_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const IterativeSolver iterative(bem, zs, iterative_options());

    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.004}, 0),
        bem.mesh().nearest_node({0.016, 0.004}, 1),
        bem.mesh().nearest_node({0.009, 0.004}, 2)};
    const VectorD freqs{3e8};
    const auto zd = direct.sweep_impedance(freqs, ports);
    const auto zi = iterative.sweep_impedance(freqs, ports);
    EXPECT_LT(max_rel_diff(zi[0], zd[0]), 1e-8);
}

TEST(IterativeSolver, CompressesNonUniformMesh) {
    const PlaneBem bem = plane_bem(nonuniform_mesh());
    EXPECT_FALSE(bem.uniform_lattice());
    // No Toeplitz form exists without a lattice.
    EXPECT_THROW(bem.potential_operator(), InvalidArgument);
    EXPECT_THROW(bem.inductance_operator(), InvalidArgument);

    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const DirectSolver direct(bem, zs);
    const IterativeSolver iterative(bem, zs, iterative_options());
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.004}, 0),
        bem.mesh().nearest_node({0.018, 0.004}, 1)};
    const MatrixC zd = direct.port_impedance(5e8, ports);
    const MatrixC zi = iterative.port_impedance(5e8, ports);
    EXPECT_TRUE(iterative.stats().hmatrix);
    EXPECT_LT(max_rel_diff(zi, zd), 1e-8);
}

TEST(IterativeSolver, UniformMeshUsesMatrixFreeOperators) {
    const PlaneBem bem = plane_bem(holey_mesh());
    EXPECT_TRUE(bem.uniform_lattice());
    EXPECT_NO_THROW(bem.potential_operator());
    EXPECT_NO_THROW(bem.inductance_operator());

    // The iterative solver takes the Toeplitz form on a uniform lattice.
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    const IterativeSolver toeplitz(bem, zs, iterative_options());
    toeplitz.port_impedance(1e9, ports);
    EXPECT_FALSE(toeplitz.stats().hmatrix);
}

TEST(IterativeSolver, ResultsInvariantAcrossThreadCounts) {
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const VectorD freqs{1e8, 1e9};

    pgsi::test::ScopedThreadCount pin(1);
    std::vector<MatrixC> base;
    {
        const PlaneBem bem = plane_bem(holey_mesh());
        const std::vector<std::size_t> ports{
            bem.mesh().nearest_node({0.002, 0.002}, 0),
            bem.mesh().nearest_node({0.018, 0.014}, 0)};
        base = IterativeSolver(bem, zs, iterative_options())
                   .sweep_impedance(freqs, ports);
    }
    for (const unsigned threads : {2u, 8u}) {
        pin.repin(threads);
        const PlaneBem bem = plane_bem(holey_mesh());
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

TEST(MakeSolver, AutoSelectsBySizeAndLattice) {
    // The exact crossovers are pinned in test_hmatrix (MakeSolverCrossover).
    const SurfaceImpedance zs;
    {
        // Uniform mesh below 400 nodes -> direct.
        const PlaneBem bem = plane_bem(holey_mesh());
        EXPECT_STREQ(make_solver(bem, zs)->backend_name(), "direct");
    }
    {
        // Non-uniform mesh below 160 nodes -> direct.
        const PlaneBem bem = plane_bem(nonuniform_mesh());
        EXPECT_STREQ(make_solver(bem, zs)->backend_name(), "direct");
    }
    {
        // A 480-node uniform plane -> iterative (Toeplitz), unless the
        // caller asks for the direct backend.
        const PlaneBem bem = plane_bem(test::uniform_plane(24, 20));
        EXPECT_STREQ(make_solver(bem, zs)->backend_name(), "iterative");
        SolverOptions opt;
        opt.backend = SolverBackend::Direct;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "direct");
    }
    {
        // Explicit backend requests are honored regardless of size.
        const PlaneBem bem = plane_bem(holey_mesh());
        SolverOptions opt;
        opt.backend = SolverBackend::Iterative;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "iterative");
    }
}

TEST(IterativeSolver, StalledSolveThrowsInsteadOfReturningGarbage) {
    const PlaneBem bem = plane_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    SolverOptions opt = iterative_options();
    opt.gmres.max_iterations = 1;
    opt.gmres.restart = 1;
    opt.gmres.tol = 1e-14;
    opt.fail_tol = 1e-14;
    opt.recovery.policy = robust::RecoveryPolicy::Strict;
    const IterativeSolver iterative(bem, zs, opt);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    EXPECT_THROW(iterative.port_impedance(1e9, ports), NumericalError);
}

TEST(IterativeSolver, StalledSolveRecoversThroughDenseFallback) {
    const PlaneBem bem = plane_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    SolverOptions opt = iterative_options();
    opt.gmres.max_iterations = 1;
    opt.gmres.restart = 1;
    opt.gmres.tol = 1e-14;
    opt.fail_tol = 1e-14;
    const IterativeSolver iterative(bem, zs, opt);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    const MatrixC z = iterative.port_impedance(1e9, ports);
    EXPECT_GE(iterative.stats().dense_fallbacks, 1u);
    EXPECT_TRUE(iterative.recovery_report().any());

    const DirectSolver direct(bem, zs);
    const MatrixC zd = direct.port_impedance(1e9, ports);
    EXPECT_LT(max_rel_diff(z, zd), 1e-8);
}

// A dense fallback charges the stats with the GMRES work that actually ran
// before the stall. With the stall injected on the frequency's one block
// solve, all three port columns were attempted in that block and the dense
// solver then recomputed the frequency.
TEST(IterativeSolver, DenseFallbackAttributesOnlyAttemptedSolves) {
    const PlaneBem bem = plane_bem(holey_mesh());
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const IterativeSolver iterative(bem, zs, iterative_options());
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0),
        bem.mesh().nearest_node({0.018, 0.014}, 0),
        bem.mesh().nearest_node({0.002, 0.014}, 0)};

    robust::FaultInjector::arm("gmres.stall", 1);
    const MatrixC z = iterative.port_impedance(1e9, ports);
    robust::FaultInjector::disarm_all();

    const IterativeSolverStats& st = iterative.stats();
    EXPECT_EQ(st.solves, 3u);
    EXPECT_EQ(st.block_solves, 1u);
    EXPECT_EQ(st.dense_fallbacks, 1u);
    EXPECT_EQ(st.precond_escalations, 0u);
    EXPECT_EQ(iterative.recovery_report().count("em.dense_fallback"), 1u);

    const DirectSolver direct(bem, zs);
    EXPECT_LT(max_rel_diff(z, direct.port_impedance(1e9, ports)), 1e-8);
}

TEST(IterativeSolver, RejectsInvalidPorts) {
    const PlaneBem bem = plane_bem(holey_mesh());
    const IterativeSolver solver(bem, SurfaceImpedance{}, iterative_options());
    EXPECT_THROW(solver.port_impedance(1e9, {}), InvalidArgument);
    EXPECT_THROW(solver.port_impedance(1e9, {bem.node_count()}),
                 InvalidArgument);
    EXPECT_THROW(solver.port_impedance(-1.0, {0}), InvalidArgument);
}
