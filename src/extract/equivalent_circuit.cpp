#include "extract/equivalent_circuit.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "extract/reduction.hpp"
#include "numeric/lu.hpp"
#include "obs/trace.hpp"

namespace pgsi {

MatrixC EquivalentCircuit::admittance(double freq_hz) const {
    PGSI_REQUIRE(freq_hz > 0, "EquivalentCircuit: frequency must be positive");
    const double omega = 2.0 * pi * freq_hz;
    const Complex jw(0.0, omega);
    const std::size_t n = node_count();
    MatrixC y(n, n);
    for (const RlcBranch& b : branches) {
        Complex yb(0.0, 0.0);
        if (b.c != 0) yb += jw * b.c;
        if (b.l != 0 || b.r != 0) yb += 1.0 / (Complex(b.r, 0.0) + jw * b.l);
        y(b.m, b.m) += yb;
        y(b.n, b.n) += yb;
        y(b.m, b.n) -= yb;
        y(b.n, b.m) -= yb;
    }
    for (std::size_t k = 0; k < n; ++k) y(k, k) += jw * node_cap[k];
    return y;
}

MatrixC EquivalentCircuit::impedance(double freq_hz,
                                     const std::vector<std::size_t>& ports) const {
    const MatrixC y = admittance(freq_hz);
    const MatrixC z = Lu<Complex>(y).inverse();
    return z.submatrix(ports, ports);
}

void EquivalentCircuit::stamp(Netlist& nl, const std::vector<NodeId>& node_map,
                              NodeId ref, const std::string& prefix) const {
    PGSI_REQUIRE(node_map.size() == node_count(),
                 "EquivalentCircuit::stamp: node_map size mismatch");
    for (const RlcBranch& b : branches) {
        const std::string tag =
            prefix + "_" + std::to_string(b.m) + "_" + std::to_string(b.n);
        const NodeId nm = node_map[b.m];
        const NodeId nn = node_map[b.n];
        if (b.c != 0) nl.add_capacitor("C" + tag, nm, nn, b.c);
        if (b.l != 0) {
            nl.add_inductor("L" + tag, nm, nn, b.l, b.r);
        } else if (b.r > 0) {
            nl.add_resistor("R" + tag, nm, nn, b.r);
        }
    }
    for (std::size_t k = 0; k < node_count(); ++k)
        if (node_cap[k] > 0)
            nl.add_capacitor("C" + prefix + "_g" + std::to_string(k), node_map[k],
                             ref, node_cap[k]);
}

double EquivalentCircuit::total_reference_capacitance() const {
    double s = 0;
    for (double c : node_cap) s += c;
    return s;
}

CircuitExtractor::CircuitExtractor(const PlaneBem& bem, ExtractionOptions options)
    : bem_(bem), options_(options) {}

EquivalentCircuit CircuitExtractor::extract(
    const std::vector<std::size_t>& keep_nodes) const {
    PGSI_REQUIRE(!keep_nodes.empty(), "CircuitExtractor: keep set is empty");
    const std::size_t n = keep_nodes.size();
    const bool full = (n == bem_.node_count());

    // Γ is reduced by the exact Kron (Laplacian Schur) complement. The
    // capacitance must NOT be reduced with a floating-charge Schur
    // complement: eliminated cells belong to the same conductor, so their
    // charge has to be re-attributed to the retained nodes. The consistent
    // quasi-static projection is the congruence transform C_red = Wᵀ C W
    // with the inductive interpolation W = [I; −Γ_ee⁻¹ Γ_ek] — the voltage
    // distribution the inductive network imposes on the eliminated nodes.
    // W maps constants to constants (Γ is a Laplacian), so the total plane
    // capacitance is preserved exactly. Note Γ_red = Wᵀ Γ W equals the Kron
    // complement, so one projection serves both matrices.
    MatrixD gamma, cmax;
    if (full) {
        gamma = bem_.gamma();
        cmax = bem_.maxwell_capacitance();
    } else {
        const MatrixD& g = bem_.gamma();
        const MatrixD& c = bem_.maxwell_capacitance();
        const std::vector<std::size_t> elim =
            complement_indices(g.rows(), keep_nodes);
        const MatrixD gke = g.submatrix(keep_nodes, elim);
        const MatrixD gek = g.submatrix(elim, keep_nodes);
        const MatrixD gee = g.submatrix(elim, elim);
        const MatrixD x = [&] { // Γ_ee⁻¹ Γ_ek
            PGSI_TRACE_SCOPE("extract.kron");
            return Lu<double>(gee).solve(gek);
        }();

        gamma = g.submatrix(keep_nodes, keep_nodes);
        gamma -= gke * x;

        const MatrixD cke = c.submatrix(keep_nodes, elim);
        const MatrixD cee = c.submatrix(elim, elim);
        cmax = c.submatrix(keep_nodes, keep_nodes);
        cmax -= cke * x;
        cmax -= x.transposed() * c.submatrix(elim, keep_nodes);
        cmax += x.transposed() * cee * x;

        // Restore exact symmetry lost to pivoting.
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j) {
                double v = 0.5 * (gamma(i, j) + gamma(j, i));
                gamma(i, j) = v;
                gamma(j, i) = v;
                v = 0.5 * (cmax(i, j) + cmax(j, i));
                cmax(i, j) = v;
                cmax(j, i) = v;
            }
    }
    MatrixD gdc;
    const bool lossy = options_.include_resistance &&
                       [&] {
                           for (const auto& s : bem_.mesh().shapes())
                               if (s.sheet_resistance <= 0) return false;
                           return true;
                       }();
    if (lossy) {
        if (full) {
            gdc = bem_.dc_conductance();
        } else {
            const MatrixD& g = bem_.dc_conductance();
            PGSI_TRACE_SCOPE("extract.dc_schur");
            gdc = schur_reduce(g, keep_nodes);
        }
    }

    // Pruning thresholds from the largest off-diagonal magnitudes.
    double gmax = 0, cmx = 0, dmax = 0;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            gmax = std::max(gmax, std::abs(gamma(i, j)));
            cmx = std::max(cmx, std::abs(cmax(i, j)));
            if (lossy) dmax = std::max(dmax, std::abs(gdc(i, j)));
        }
    const double gtol = options_.prune_rel_tol * gmax;
    const double ctol = options_.prune_rel_tol * cmx;
    const double dtol = options_.prune_rel_tol * dmax;

    EquivalentCircuit ec;
    ec.has_reference = bem_.greens().has_reference();
    ec.node_position.reserve(n);
    ec.node_z.reserve(n);
    for (std::size_t k : keep_nodes) {
        ec.node_position.push_back(bem_.mesh().nodes()[k].center);
        ec.node_z.push_back(bem_.mesh().nodes()[k].z);
    }

    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            RlcBranch b;
            b.m = i;
            b.n = j;
            if (std::abs(gamma(i, j)) > gtol && gamma(i, j) != 0.0)
                b.l = -1.0 / gamma(i, j);
            if (std::abs(cmax(i, j)) > ctol) b.c = -cmax(i, j);
            if (options_.enforce_passive) {
                if (b.l < 0) b.l = 0;
                if (b.c < 0) b.c = 0;
            }
            if (lossy && b.l != 0 && std::abs(gdc(i, j)) > dtol &&
                gdc(i, j) < 0.0)
                b.r = -1.0 / gdc(i, j);
            if (b.l != 0 || b.c != 0 || b.r != 0) ec.branches.push_back(b);
        }

    ec.node_cap.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double s = 0;
        for (std::size_t j = 0; j < n; ++j) s += cmax(j, i);
        // Row sums are the capacitance to the reference; without a reference
        // plane they vanish to rounding — clamp tiny negatives.
        ec.node_cap[i] = std::max(0.0, s);
    }
    return ec;
}

EquivalentCircuit CircuitExtractor::extract_full() const {
    std::vector<std::size_t> keep(bem_.node_count());
    for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = i;
    return extract(keep);
}

std::vector<std::size_t> CircuitExtractor::select_nodes(
    const std::vector<std::size_t>& ports, std::size_t interior_target) const {
    std::vector<std::size_t> keep = ports;
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    if (interior_target > 0) {
        const std::vector<std::size_t> sorted_ports = keep;
        const std::size_t n = bem_.node_count();
        const std::size_t stride = std::max<std::size_t>(1, n / interior_target);
        for (std::size_t i = 0; i < n; i += stride)
            if (!std::binary_search(sorted_ports.begin(), sorted_ports.end(), i))
                keep.push_back(i);
        std::sort(keep.begin(), keep.end());
        keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    }
    return keep;
}

} // namespace pgsi
