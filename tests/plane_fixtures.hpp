// Plane meshes and comparisons shared by the BEM and solver tests: meshes on
// each side of the lattice decision that picks the cached or direct fill and
// the Toeplitz or H-matrix operator form.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "em/bem_plane.hpp"

namespace pgsi::test {

// One plane of nx × ny 1 mm cells: a uniform lattice of nx·ny nodes.
inline RectMesh uniform_plane(int nx, int ny) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.001 * nx, 0.001 * ny);
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, 0.001);
}

// 20 x 16 mm plane with an off-center 4 x 3 mm antipad hole: uniform pitch,
// irregular occupancy — the case the displacement table must reproduce.
inline RectMesh holey_mesh() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, 0.020, 0.016);
    s.holes.push_back(Polygon::rectangle(0.006, 0.005, 0.010, 0.008));
    s.z = 0.4e-3;
    s.sheet_resistance = 1e-3;
    return RectMesh({s}, 0.001);
}

// An ax × ay plane of 1 mm cells beside a 7.3 mm wide plane of by rows,
// whose 8 columns and rows stretch off the lattice: ax·ay + 8·by nodes and
// no common lattice.
inline RectMesh stretched_pair(int ax, int ay, int by) {
    ConductorShape a;
    a.outline = Polygon::rectangle(0, 0, 0.001 * ax, 0.001 * ay);
    a.z = 0.4e-3;
    a.sheet_resistance = 1e-3;
    ConductorShape b = a;
    const double x0 = 0.001 * ax + 0.005;
    b.outline = Polygon::rectangle(x0, 0, x0 + 0.0073, 0.001 * by - 0.0007);
    return RectMesh({a, b}, 0.001);
}

inline PlaneBem plane_bem(RectMesh mesh,
                          Testing testing = Testing::PointMatching) {
    BemOptions opt;
    opt.testing = testing;
    return PlaneBem(std::move(mesh), Greens::homogeneous(4.2, true), opt);
}

// Entrywise difference scaled by max |a| (MatrixD or MatrixC).
template <class M>
double max_rel_diff(const M& a, const M& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double scale = 1e-300, m = 0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) {
            scale = std::max(scale, static_cast<double>(std::abs(a(i, j))));
            m = std::max(m, static_cast<double>(std::abs(a(i, j) - b(i, j))));
        }
    return m / scale;
}

} // namespace pgsi::test
