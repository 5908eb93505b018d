// E1 — §6.1 example 1: L-shaped microstrip patch resonances.
//
// The paper extracts an equivalent circuit for the L-shaped patch of Mosig
// [4] and reports the first two resonant modes of the input impedance at
// node A:  f0 = 1.02 GHz, f1 = 1.65 GHz from the equivalent circuit, versus
// f0 = 0.98 GHz, f1 = 1.56 GHz from the reference full-wave solution — i.e.
// the quasi-static circuit runs a few percent high but tracks the modes.
//
// Mosig's exact geometry is not given in the DAC paper, so an L-patch is
// chosen whose first two modes land in the published band: 120 × 120 mm
// outer, 60 × 60 mm cut, εr = 2.33, h = 0.787 mm. The experiment checks that
// the extraction pipeline (full mesh AND a compact 4-node circuit, as in the
// paper) reproduces the modal structure, and that the first mode sits a few
// percent above the half-wave estimate — the paper's signature quasi-static
// behaviour.
#include <cmath>
#include <cstdio>

#include "common/constants.hpp"
#include "em/bem_plane.hpp"
#include "extract/equivalent_circuit.hpp"

using namespace pgsi;

namespace {

PlaneBem make_patch(double pitch) {
    ConductorShape patch;
    patch.outline = Polygon::lshape(0.120, 0.120, 0.060, 0.060);
    patch.z = 0.787e-3; // on top of the slab
    patch.name = "patch";
    return PlaneBem(RectMesh({patch}, pitch),
                    Greens::grounded_slab(2.33, 0.787e-3), BemOptions{});
}

// First `count` local maxima of |Z11(f)| on a uniform grid.
std::vector<double> impedance_peaks(const EquivalentCircuit& ec,
                                    std::size_t port, double f_lo, double f_hi,
                                    double df, int count) {
    std::vector<double> fs, zs;
    for (double f = f_lo; f <= f_hi; f += df) {
        fs.push_back(f);
        zs.push_back(std::abs(ec.impedance(f, {port})(0, 0)));
    }
    std::vector<double> peaks;
    for (std::size_t i = 1; i + 1 < zs.size(); ++i)
        if (zs[i] > zs[i - 1] && zs[i] > zs[i + 1]) {
            peaks.push_back(fs[i]);
            if (static_cast<int>(peaks.size()) == count) break;
        }
    return peaks;
}

void print_experiment() {
    std::printf("=== E1: L-shaped microstrip patch — input-impedance "
                "resonances (paper §6.1 ex. 1) ===\n");
    std::printf("patch: 120x120 mm L (60x60 cut), er = 2.33, h = 0.787 mm; "
                "node A at the lower-left corner\n\n");

    const PlaneBem bem = make_patch(120e-3 / 16);
    const std::size_t node_a = bem.mesh().nearest_node({0.005, 0.005}, 0);
    const CircuitExtractor ex(bem);

    const EquivalentCircuit full = ex.extract_full();
    const auto full_peaks =
        impedance_peaks(full, node_a, 0.5e9, 2.2e9, 5e6, 2);

    // The paper's compact "4-node equivalent circuit": node A plus three
    // nodes spread over the patch arms.
    const std::vector<std::size_t> keep4 = ex.select_nodes(
        {node_a, bem.mesh().nearest_node({0.105, 0.030}, 0),
         bem.mesh().nearest_node({0.030, 0.105}, 0),
         bem.mesh().nearest_node({0.030, 0.030}, 0)},
        0);
    const EquivalentCircuit four = ex.extract(keep4);
    std::size_t port4 = 0;
    for (std::size_t i = 0; i < keep4.size(); ++i)
        if (keep4[i] == node_a) port4 = i;
    const auto four_peaks =
        impedance_peaks(four, port4, 0.5e9, 2.6e9, 5e6, 2);

    std::printf("%-34s %-10s %-10s\n", "model", "f0 [GHz]", "f1 [GHz]");
    std::printf("%-34s %-10s %-10s\n", "paper: full-wave reference [4]",
                "0.98", "1.56");
    std::printf("%-34s %-10s %-10s\n", "paper: equivalent circuit", "1.02",
                "1.65");
    std::printf("%-34s %-10.2f %-10.2f\n",
                "pgsi: full-mesh equivalent circuit",
                full_peaks.size() > 0 ? full_peaks[0] / 1e9 : 0.0,
                full_peaks.size() > 1 ? full_peaks[1] / 1e9 : 0.0);
    if (four_peaks.size() > 1)
        std::printf("%-34s %-10.2f %-10.2f\n",
                    "pgsi: 4-node equivalent circuit", four_peaks[0] / 1e9,
                    four_peaks[1] / 1e9);
    else
        std::printf("%-34s %-10.2f %-10s\n", "pgsi: 4-node equivalent circuit",
                    four_peaks.empty() ? 0.0 : four_peaks[0] / 1e9, "n/a");
    const double analytic = c0 / (2 * 0.120 * std::sqrt(2.33));
    std::printf("%-34s %-10.2f %-10s\n", "analytic half-wave estimate",
                analytic / 1e9, "-");
    std::printf("\nExpected shape: circuit modes a few %% above the full-wave "
                "values, first mode near 1 GHz, second within the paper's "
                "1.5-1.7 GHz band.\n\n");
}

} // namespace

int main() {
    print_experiment();
    return 0;
}
