#include "em/bem_plane.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "numeric/cholesky.hpp"
#include "numeric/lu.hpp"
#include "numeric/quadrature.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"

namespace pgsi {

namespace {

// Accumulate elapsed wall time into a stats field on scope exit.
class StageTimer {
public:
    explicit StageTimer(double& acc)
        : acc_(acc), t0_(std::chrono::steady_clock::now()) {}
    ~StageTimer() {
        acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0_)
                    .count();
    }

private:
    double& acc_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace

PlaneBem::PlaneBem(RectMesh mesh, Greens greens, BemOptions options)
    : mesh_(std::move(mesh)), greens_(std::move(greens)), options_(options) {
    PGSI_REQUIRE(options_.galerkin_order >= 1 && options_.galerkin_order <= 8,
                 "BemOptions: galerkin_order out of range");
    PGSI_REQUIRE(options_.l_quad_order >= 1 && options_.l_quad_order <= 8,
                 "BemOptions: l_quad_order out of range");
    grule_ = &gauss_legendre(options_.galerkin_order);
    lrule_ = &gauss_legendre(options_.l_quad_order);
}

namespace {

Rect cell_rect(const MeshNode& n) {
    return Rect{n.center.x - 0.5 * n.dx, n.center.x + 0.5 * n.dx,
                n.center.y - 0.5 * n.dy, n.center.y + 0.5 * n.dy};
}

Rect branch_rect(const MeshBranch& b) { return Rect{b.x0, b.x1, b.y0, b.y1}; }

// Average of f over rect with the given (n-point per axis) Gauss rule. The
// rule is passed in so hot loops look it up once, outside the mutex-guarded
// rule cache.
template <class F>
double cell_average(const Rect& r, const QuadratureRule& rule, F&& f) {
    const std::size_t n = rule.nodes.size();
    const double mx = 0.5 * (r.x0 + r.x1), hx = 0.5 * (r.x1 - r.x0);
    const double my = 0.5 * (r.y0 + r.y1), hy = 0.5 * (r.y1 - r.y0);
    double s = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = mx + hx * rule.nodes[i];
        double row = 0;
        for (std::size_t j = 0; j < n; ++j)
            row += rule.weights[j] * f(Point2{x, my + hy * rule.nodes[j]});
        s += rule.weights[i] * row;
    }
    return 0.25 * s; // Gauss weights sum to 2 per axis; /4 yields the average
}

// The translation-invariant interaction lattice/table machinery lives in
// em/interaction_lattice.hpp, shared with the block-Toeplitz operators.

// Column-parallel walk of the lower triangle of an n-element family:
// put(i, j) for every i >= j. Each worker owns whole columns, so the writes
// of `put` never race.
template <class Put>
void for_lower(std::size_t n, Put&& put) {
    par::parallel_for(n, [&](std::size_t j) {
        for (std::size_t i = j; i < n; ++i) put(i, j);
    });
}

// Copy the lower triangle onto the upper one (P and L are symmetric).
void mirror_lower(MatrixD& m) {
    for (std::size_t j = 0; j < m.cols(); ++j)
        for (std::size_t i = j + 1; i < m.rows(); ++i) m(j, i) = m(i, j);
}

obs::Counter& cached_fill_counter() {
    static obs::Counter& c = obs::counter("bem.assembly.cached_fills");
    return c;
}
obs::Counter& direct_fill_counter() {
    static obs::Counter& c = obs::counter("bem.assembly.direct_fills");
    return c;
}
obs::Counter& cache_entry_counter() {
    static obs::Counter& c = obs::counter("bem.cache.entries");
    return c;
}

} // namespace

void PlaneBem::assemble_potential() const {
    PGSI_TRACE_SCOPE("bem.fill.potential");
    PGSI_ALLOC_SCOPE("em.assembly");
    StageTimer timer(stats_.potential_seconds);
    const std::size_t n = mesh_.node_count();
    MatrixD p(n, n);
    const Lattice& lat = node_lattice();
    const bool cached = cache_profitable(lat, n * (n + 1) / 2);
    if (cached) {
        const std::vector<double>& table = potential_table();
        for_lower(n, [&](std::size_t i, std::size_t j) {
            p(i, j) = table[table_index(lat, i, j)];
        });
    } else {
        for_lower(n, [&](std::size_t i, std::size_t j) {
            p(i, j) = potential_entry(i, j);
        });
    }
    mirror_lower(p);
    stats_.potential_cached = cached;
    ++(cached ? cached_fill_counter() : direct_fill_counter());
    ppot_ = std::move(p);
}

const MatrixD& PlaneBem::potential_matrix() const {
    if (!ppot_) assemble_potential();
    return *ppot_;
}

const MatrixD& PlaneBem::maxwell_capacitance() const {
    if (!cmax_) {
        const MatrixD& p = potential_matrix();
        PGSI_TRACE_SCOPE("bem.invert.potential");
        PGSI_ALLOC_SCOPE("em.assembly");
        StageTimer timer(stats_.capacitance_seconds);
        try {
            cmax_ = Cholesky(p).inverse();
        } catch (const NumericalError&) {
            // Ppot can lose definiteness to quadrature error on extreme
            // aspect-ratio meshes; fall back to a pivoted LU inverse.
            cmax_ = Lu<double>(p).inverse();
        }
    }
    return *cmax_;
}

void PlaneBem::assemble_inductance() const {
    PGSI_TRACE_SCOPE("bem.fill.inductance");
    PGSI_ALLOC_SCOPE("em.assembly");
    StageTimer timer(stats_.inductance_seconds);
    const std::size_t m = mesh_.branch_count();
    MatrixD l(m, m);

    // x- and y-directed current cells are two separate congruent families
    // (and do not couple to each other), each with its own lattice/table.
    const BranchFamilies& bf = branch_families();
    std::size_t entries = 0, direct_evals = 0;
    for (int d = 0; d < 2; ++d) {
        if (!bf.idx[d].empty()) entries += bf.lat[d].table_entries();
        direct_evals += bf.idx[d].size() * (bf.idx[d].size() + 1) / 2;
    }
    const bool cached = bf.uniform && entries < direct_evals;
    // Family entry (ii, jj), ii >= jj, lands at (idx[ii], idx[jj]): in the
    // global lower triangle, because idx ascends.
    for (int d = 0; d < 2; ++d) {
        const auto& idx = bf.idx[d];
        if (idx.empty()) continue;
        if (cached) {
            const Lattice& lg = bf.lat[d];
            const std::vector<double>& table = inductance_table(d);
            for_lower(idx.size(), [&](std::size_t ii, std::size_t jj) {
                l(idx[ii], idx[jj]) = table[table_index(lg, ii, jj)];
            });
        } else {
            for_lower(idx.size(), [&](std::size_t ii, std::size_t jj) {
                l(idx[ii], idx[jj]) = inductance_entry(idx[ii], idx[jj]);
            });
        }
    }
    mirror_lower(l);
    stats_.inductance_cached = cached;
    ++(cached ? cached_fill_counter() : direct_fill_counter());
    l_ = std::move(l);
}

const MatrixD& PlaneBem::inductance_matrix() const {
    if (!l_) assemble_inductance();
    return *l_;
}

const VectorD& PlaneBem::branch_resistance() const {
    if (!rbranch_) {
        const auto& branches = mesh_.branches();
        VectorD r(branches.size());
        for (std::size_t b = 0; b < branches.size(); ++b) {
            const double rs = mesh_.shapes()[branches[b].shape].sheet_resistance;
            r[b] = rs * branches[b].length() / branches[b].width();
        }
        rbranch_ = std::move(r);
    }
    return *rbranch_;
}

MatrixD PlaneBem::incidence_dense() const {
    const auto& branches = mesh_.branches();
    MatrixD a(branches.size(), mesh_.node_count());
    for (std::size_t b = 0; b < branches.size(); ++b) {
        a(b, branches[b].n1) = 1.0;
        a(b, branches[b].n2) = -1.0;
    }
    return a;
}

const MatrixD& PlaneBem::gamma() const {
    if (!gamma_) {
        const MatrixD& l = inductance_matrix();
        PGSI_TRACE_SCOPE("bem.gamma");
        PGSI_ALLOC_SCOPE("em.assembly");
        StageTimer timer(stats_.gamma_seconds);
        const MatrixD a = incidence_dense();
        // X = L⁻¹ P, then Γ = Pᵀ X accumulated through the sparse incidence.
        MatrixD x;
        try {
            x = Cholesky(l).solve(a);
        } catch (const NumericalError&) {
            x = Lu<double>(l).solve(a);
        }
        const std::size_t n = mesh_.node_count();
        MatrixD g(n, n);
        const auto& branches = mesh_.branches();
        for (std::size_t b = 0; b < branches.size(); ++b) {
            const double* xrow = x.row(b);
            double* r1 = g.row(branches[b].n1);
            double* r2 = g.row(branches[b].n2);
            for (std::size_t j = 0; j < n; ++j) {
                r1[j] += xrow[j];
                r2[j] -= xrow[j];
            }
        }
        // Symmetrize away quadrature noise; Γ is analytically symmetric.
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j) {
                const double v = 0.5 * (g(i, j) + g(j, i));
                g(i, j) = v;
                g(j, i) = v;
            }
        gamma_ = std::move(g);
    }
    return *gamma_;
}

const MatrixD& PlaneBem::dc_conductance() const {
    if (!gdc_) {
        const VectorD& r = branch_resistance();
        const auto& branches = mesh_.branches();
        const std::size_t n = mesh_.node_count();
        MatrixD g(n, n);
        for (std::size_t b = 0; b < branches.size(); ++b) {
            PGSI_REQUIRE(r[b] > 0,
                         "dc_conductance requires a lossy sheet (nonzero "
                         "sheet_resistance) on every shape");
            const double gb = 1.0 / r[b];
            const std::size_t i = branches[b].n1, j = branches[b].n2;
            g(i, i) += gb;
            g(j, j) += gb;
            g(i, j) -= gb;
            g(j, i) -= gb;
        }
        gdc_ = std::move(g);
    }
    return *gdc_;
}

const Lattice& PlaneBem::node_lattice() const {
    if (!node_lat_) {
        const auto& nodes = mesh_.nodes();
        node_lat_ = detect_lattice(
            nodes.size(), [&](std::size_t e) { return nodes[e].center; },
            [&](std::size_t e) { return std::pair{nodes[e].dx, nodes[e].dy}; },
            [&](std::size_t e) { return nodes[e].z; });
    }
    return *node_lat_;
}

const PlaneBem::BranchFamilies& PlaneBem::branch_families() const {
    if (!branch_fam_) {
        const auto& branches = mesh_.branches();
        BranchFamilies bf;
        for (std::size_t b = 0; b < branches.size(); ++b)
            bf.idx[branches[b].dir == BranchDir::Y].push_back(b);
        bf.uniform = true;
        for (int d = 0; d < 2; ++d) {
            const auto& idx = bf.idx[d];
            bf.lat[d] = detect_lattice(
                idx.size(),
                [&](std::size_t e) {
                    return branch_rect(branches[idx[e]]).center();
                },
                [&](std::size_t e) {
                    const Rect r = branch_rect(branches[idx[e]]);
                    return std::pair{r.width(), r.height()};
                },
                [&](std::size_t e) { return branches[idx[e]].z; });
            bf.uniform = bf.uniform && bf.lat[d].uniform;
        }
        branch_fam_ = std::move(bf);
    }
    return *branch_fam_;
}

const std::vector<double>& PlaneBem::potential_table() const {
    if (!ptable_) {
        const Lattice& lat = node_lattice();
        PGSI_REQUIRE(lat.uniform,
                     "potential_table requires a uniform-pitch mesh");
        PGSI_TRACE_SCOPE("bem.fill.potential.table");
        const double sx = lat.sx, sy = lat.sy;
        const Rect src{-0.5 * sx, 0.5 * sx, -0.5 * sy, 0.5 * sy};
        std::vector<double> table = build_interaction_table(
            lat, [&](long di, long dj, double zo, double zs) {
                const Point2 oc{static_cast<double>(di) * sx,
                                static_cast<double>(dj) * sy};
                const Rect obs{oc.x - 0.5 * sx, oc.x + 0.5 * sx,
                               oc.y - 0.5 * sy, oc.y + 0.5 * sy};
                return potential_kernel(oc, obs, zo, src, zs);
            });
        stats_.cache_entries += table.size();
        cache_entry_counter().add(table.size());
        ptable_ = std::move(table);
    }
    return *ptable_;
}

const std::vector<double>& PlaneBem::inductance_table(int d) const {
    if (!ltable_[d]) {
        const BranchFamilies& bf = branch_families();
        const Lattice& lg = bf.lat[d];
        PGSI_REQUIRE(lg.uniform,
                     "inductance_table requires a uniform-pitch mesh");
        PGSI_TRACE_SCOPE("bem.fill.inductance.table");
        const double sx = lg.sx, sy = lg.sy;
        const Rect src{-0.5 * sx, 0.5 * sx, -0.5 * sy, 0.5 * sy};
        // All cells in the family share one width (the current-transverse
        // dimension), so the 1/(wa·wb) normalization is constant.
        const double wdir = d == 0 ? sy : sx;
        const double scale = (sx * sy) / (wdir * wdir);
        std::vector<double> table = build_interaction_table(
            lg, [&](long di, long dj, double zo, double zs) {
                const Rect obs{static_cast<double>(di) * sx - 0.5 * sx,
                               static_cast<double>(di) * sx + 0.5 * sx,
                               static_cast<double>(dj) * sy - 0.5 * sy,
                               static_cast<double>(dj) * sy + 0.5 * sy};
                return inductance_average(obs, zo, src, zs) * scale;
            });
        stats_.cache_entries += table.size();
        cache_entry_counter().add(table.size());
        ltable_[d] = std::move(table);
    }
    return *ltable_[d];
}

double PlaneBem::potential_kernel(Point2 oc, const Rect& obs, double zo,
                                  const Rect& src, double zs) const {
    const double inv_area = 1.0 / src.area();
    if (options_.testing == Testing::PointMatching)
        return greens_.phi_integral(oc, zo, src, zs) * inv_area;
    return cell_average(obs, *grule_, [&](Point2 q) {
               return greens_.phi_integral(q, zo, src, zs);
           }) *
           inv_area;
}

double PlaneBem::inductance_average(const Rect& obs, double zo,
                                    const Rect& src, double zs) const {
    // The outer integral is smooth (the inner one is exact), so a small
    // Gauss rule suffices.
    return cell_average(obs, *lrule_, [&](Point2 q) {
        return greens_.a_integral(q, zo, src, zs);
    });
}

double PlaneBem::potential_entry(std::size_t i, std::size_t j) const {
    // The dense fill computes the lower triangle (obs >= src column) and
    // mirrors; folding here keeps on-demand entries symmetric bit for bit.
    if (i < j) std::swap(i, j);
    const auto& nodes = mesh_.nodes();
    return potential_kernel(nodes[i].center, cell_rect(nodes[i]), nodes[i].z,
                            cell_rect(nodes[j]), nodes[j].z);
}

double PlaneBem::inductance_entry(std::size_t a, std::size_t b) const {
    if (a < b) std::swap(a, b);
    const auto& branches = mesh_.branches();
    if (branches[a].dir != branches[b].dir) return 0.0; // orthogonal
    const Rect obs = branch_rect(branches[a]);
    // Lp = (1/(wa·wb)) ∬_a GA-integral-over-src dA.
    const double avg = inductance_average(obs, branches[a].z,
                                          branch_rect(branches[b]),
                                          branches[b].z);
    return avg * obs.area() / (branches[a].width() * branches[b].width());
}

std::vector<std::array<double, 3>> PlaneBem::node_points() const {
    const auto& nodes = mesh_.nodes();
    std::vector<std::array<double, 3>> pts(nodes.size());
    for (std::size_t e = 0; e < nodes.size(); ++e)
        pts[e] = {nodes[e].center.x, nodes[e].center.y, nodes[e].z};
    return pts;
}

std::vector<std::array<double, 3>> PlaneBem::branch_points(
    const std::vector<std::size_t>& branch_ids) const {
    const auto& branches = mesh_.branches();
    std::vector<std::array<double, 3>> pts(branch_ids.size());
    for (std::size_t e = 0; e < branch_ids.size(); ++e) {
        const Point2 c = branch_rect(branches[branch_ids[e]]).center();
        pts[e] = {c.x, c.y, branches[branch_ids[e]].z};
    }
    return pts;
}

std::array<std::vector<std::size_t>, 2> PlaneBem::branch_direction_index()
    const {
    return branch_families().idx;
}

bool PlaneBem::uniform_lattice() const {
    return node_lattice().uniform && branch_families().uniform;
}

const InteractionOperator& PlaneBem::potential_operator() const {
    if (!pop_) {
        PGSI_REQUIRE(uniform_lattice(),
                     "potential_operator requires a uniform-lattice mesh");
        const std::size_t n = mesh_.node_count();
        std::vector<ToeplitzFamily> fams;
        fams.emplace_back(node_lattice(), potential_table());
        std::vector<std::size_t> ident(n);
        for (std::size_t i = 0; i < n; ++i) ident[i] = i;
        pop_ = InteractionOperator::toeplitz(std::move(fams), {std::move(ident)}, n);
    }
    return *pop_;
}

const InteractionOperator& PlaneBem::inductance_operator() const {
    if (!lop_) {
        PGSI_REQUIRE(uniform_lattice(),
                     "inductance_operator requires a uniform-lattice mesh");
        const BranchFamilies& bf = branch_families();
        std::vector<ToeplitzFamily> fams;
        std::vector<std::vector<std::size_t>> idx;
        for (int d = 0; d < 2; ++d) {
            fams.emplace_back(bf.lat[d], bf.idx[d].empty()
                                             ? std::vector<double>{}
                                             : inductance_table(d));
            idx.push_back(bf.idx[d]);
        }
        lop_ = InteractionOperator::toeplitz(std::move(fams), std::move(idx),
                                             mesh_.branch_count());
    }
    return *lop_;
}

} // namespace pgsi
