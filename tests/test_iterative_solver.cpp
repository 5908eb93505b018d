// Matrix-free FFT/GMRES solver path against the dense direct solver.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/robust.hpp"
#include "em/iterative_solver.hpp"
#include "tests/test_util.hpp"
#include "em/solver.hpp"

using namespace pgsi;

namespace {

// Uniform pitch with an off-center antipad hole (same as test_bem_cache).
RectMesh holey_mesh() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.020, 0.016);
    s.holes.push_back(Polygon::rectangle(0.006, 0.005, 0.010, 0.008));
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, 0.001);
}

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
RectMesh nonuniform_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.010, 0.008);
    a.z = 0.4e-3;
    a.sheet_resistance = 1e-3;
    ConductorShape b = a;
    b.outline = Polygon::rectangle(0.015, 0, 0.015 + 0.0073, 0.0073);
    return RectMesh({a, b}, 0.001);
}

PlaneBem make_bem(RectMesh mesh, AssemblyMode mode = AssemblyMode::Auto) {
    BemOptions opt;
    opt.assembly = mode;
    return PlaneBem(std::move(mesh), Greens::homogeneous(4.2, true), opt);
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

} // namespace

TEST(IterativeSolver, MatchesDirectOnHoleyMesh) {
    const PlaneBem bem = make_bem(holey_mesh());
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
    const PlaneBem bem = make_bem(split_plane_mesh());
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
    const PlaneBem bem = make_bem(nonuniform_mesh());
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
    const PlaneBem bem = make_bem(holey_mesh());
    EXPECT_TRUE(bem.uniform_lattice());
    EXPECT_NO_THROW(bem.potential_operator());
    EXPECT_NO_THROW(bem.inductance_operator());

    // The iterative solver takes the Toeplitz form here, and compresses the
    // same mesh only when its BEM has no displacement table.
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const std::vector<std::size_t> ports{
        bem.mesh().nearest_node({0.002, 0.002}, 0)};
    const IterativeSolver toeplitz(bem, zs, iterative_options());
    toeplitz.port_impedance(1e9, ports);
    EXPECT_FALSE(toeplitz.stats().hmatrix);
    const PlaneBem direct_bem = make_bem(holey_mesh(), AssemblyMode::Direct);
    const IterativeSolver compressed(direct_bem, zs, iterative_options());
    compressed.port_impedance(1e9, ports);
    EXPECT_TRUE(compressed.stats().hmatrix);
}

TEST(IterativeSolver, ResultsInvariantAcrossThreadCounts) {
    const SurfaceImpedance zs = SurfaceImpedance::from_sheet_resistance(1e-3);
    const VectorD freqs{1e8, 1e9};

    pgsi::test::ScopedThreadCount pin(1);
    std::vector<MatrixC> base;
    {
        const PlaneBem bem = make_bem(holey_mesh());
        const std::vector<std::size_t> ports{
            bem.mesh().nearest_node({0.002, 0.002}, 0),
            bem.mesh().nearest_node({0.018, 0.014}, 0)};
        base = IterativeSolver(bem, zs, iterative_options())
                   .sweep_impedance(freqs, ports);
    }
    for (const unsigned threads : {2u, 8u}) {
        pin.repin(threads);
        const PlaneBem bem = make_bem(holey_mesh());
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
    const SurfaceImpedance zs;
    {
        // Small uniform mesh: below the node threshold -> direct.
        const PlaneBem bem = make_bem(holey_mesh());
        SolverOptions opt;
        opt.auto_node_threshold = 100000;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "direct");
    }
    {
        // Threshold of 1: any uniform mesh -> iterative.
        const PlaneBem bem = make_bem(holey_mesh());
        SolverOptions opt;
        opt.auto_node_threshold = 1;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "iterative");
    }
    {
        // Non-uniform mesh below the H-matrix node threshold -> direct.
        const PlaneBem bem = make_bem(nonuniform_mesh());
        SolverOptions opt;
        opt.auto_node_threshold = 1;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "direct");
    }
    {
        // Non-uniform mesh above the H-matrix node threshold -> iterative
        // (the compressed-operator path replaces the old dense fallback).
        const PlaneBem bem = make_bem(nonuniform_mesh());
        SolverOptions opt;
        opt.auto_node_threshold = 1;
        opt.hmatrix.node_threshold = 1;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "iterative");
    }
    {
        // Direct-only assembly disables the operator path.
        const PlaneBem bem = make_bem(holey_mesh(), AssemblyMode::Direct);
        SolverOptions opt;
        opt.auto_node_threshold = 1;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "direct");
    }
    {
        // Explicit backend requests are honored regardless of size.
        const PlaneBem bem = make_bem(holey_mesh());
        SolverOptions opt;
        opt.backend = SolverBackend::Iterative;
        EXPECT_STREQ(make_solver(bem, zs, opt)->backend_name(), "iterative");
    }
}

TEST(IterativeSolver, StalledSolveThrowsInsteadOfReturningGarbage) {
    const PlaneBem bem = make_bem(holey_mesh());
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
    const PlaneBem bem = make_bem(holey_mesh());
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
    const PlaneBem bem = make_bem(holey_mesh());
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
    const PlaneBem bem = make_bem(holey_mesh());
    const IterativeSolver solver(bem, SurfaceImpedance{}, iterative_options());
    EXPECT_THROW(solver.port_impedance(1e9, {}), InvalidArgument);
    EXPECT_THROW(solver.port_impedance(1e9, {bem.node_count()}),
                 InvalidArgument);
    EXPECT_THROW(solver.port_impedance(-1.0, {0}), InvalidArgument);
}
