// BEM fills against the entry-kernel reference: the cached (translation-
// invariant interaction table) fill to rounding, the direct fill bit for bit.
#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "em/bem_plane.hpp"
#include "tests/plane_fixtures.hpp"
#include "tests/test_util.hpp"
#include "verify/invariants.hpp"

using namespace pgsi;

namespace {

using test::holey_mesh;
using test::max_rel_diff;
using test::plane_bem;
using test::stretched_pair;

// Two congruent planes at different heights whose grids share one lattice:
// exercises the (z, z') dimension of the table.
RectMesh stacked_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.010, 0.008);
    a.z = 0.3e-3;
    ConductorShape b = a;
    b.z = 0.8e-3;
    return RectMesh({a, b}, 0.001);
}

// Two stacked shapes of incommensurate widths: no lattice, so the direct
// fill covers the (z, z') pairs entry by entry.
RectMesh stacked_nonuniform_mesh() {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.010, 0.008);
    a.z = 0.3e-3;
    ConductorShape b;
    b.outline = Polygon::rectangle(0.001, 0, 0.001 + 0.0073, 0.0073);
    b.z = 0.8e-3;
    return RectMesh({a, b}, 0.001);
}

// The cached fill reads the displacement table; it must reproduce the
// entry-kernel reference (bit-identical to the direct fill) to rounding.
void expect_cached_matches_reference(const PlaneBem& bem) {
    const verify::ReferenceFill ref = verify::reference_fill(bem);
    EXPECT_LT(max_rel_diff(bem.potential_matrix(), ref.potential), 1e-12);
    EXPECT_LT(max_rel_diff(bem.inductance_matrix(), ref.inductance), 1e-12);
    EXPECT_TRUE(bem.stats().potential_cached);
    EXPECT_TRUE(bem.stats().inductance_cached);
    EXPECT_GT(bem.stats().cache_entries, 0u);
}

} // namespace

TEST(BemCache, CachedMatchesDirectOnHoleyMesh) {
    expect_cached_matches_reference(plane_bem(holey_mesh()));
}

TEST(BemCache, CachedMatchesDirectWithGalerkinTesting) {
    expect_cached_matches_reference(
        plane_bem(holey_mesh(), Testing::Galerkin));
}

TEST(BemCache, CachedMatchesDirectAcrossStackedLayers) {
    expect_cached_matches_reference(plane_bem(stacked_mesh()));
}

// Without a lattice the fill is built from the entry kernels themselves, so
// it equals the reference bit for bit, single-layer and stacked, under
// either testing procedure.
TEST(BemCache, AutoFallsBackOnNonUniformMesh) {
    for (const Testing testing : {Testing::PointMatching, Testing::Galerkin}) {
        for (RectMesh mesh :
             {stretched_pair(10, 8, 8), stacked_nonuniform_mesh()}) {
            const PlaneBem bem = plane_bem(std::move(mesh), testing);
            EXPECT_FALSE(bem.uniform_lattice());
            const verify::ReferenceFill ref = verify::reference_fill(bem);
            EXPECT_EQ(max_rel_diff(bem.potential_matrix(), ref.potential), 0.0);
            EXPECT_EQ(max_rel_diff(bem.inductance_matrix(), ref.inductance),
                      0.0);
            EXPECT_FALSE(bem.stats().potential_cached);
            EXPECT_FALSE(bem.stats().inductance_cached);
            EXPECT_EQ(bem.stats().cache_entries, 0u);
        }
    }
}

TEST(BemCache, AutoUsesCacheOnUniformMesh) {
    const PlaneBem bem = plane_bem(holey_mesh());
    bem.potential_matrix();
    bem.inductance_matrix();
    EXPECT_TRUE(bem.uniform_lattice());
    EXPECT_TRUE(bem.stats().potential_cached);
    EXPECT_TRUE(bem.stats().inductance_cached);
}

// Assembly results must be bit-identical at any thread count: work is
// partitioned over disjoint outputs with a fixed per-entry evaluation order.
TEST(BemCache, ResultsInvariantAcrossThreadCounts) {
    pgsi::test::ScopedThreadCount pin(1);
    // The holey mesh takes the cached fill, the non-uniform one the direct.
    for (const bool uniform : {true, false}) {
        const auto mesh = [&] {
            return uniform ? holey_mesh() : stretched_pair(10, 8, 8);
        };
        pin.repin(1);
        const PlaneBem one = plane_bem(mesh());
        const MatrixD p1 = one.potential_matrix();
        const MatrixD l1 = one.inductance_matrix();
        for (const std::size_t threads : {2u, 8u}) {
            pin.repin(threads);
            const PlaneBem many = plane_bem(mesh());
            EXPECT_EQ(max_rel_diff(p1, many.potential_matrix()), 0.0)
                << "uniform=" << uniform << " threads=" << threads;
            EXPECT_EQ(max_rel_diff(l1, many.inductance_matrix()), 0.0)
                << "uniform=" << uniform << " threads=" << threads;
        }
    }
}
