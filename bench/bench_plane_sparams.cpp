// E3 — §6.1 example 3 / Figs. 6–7: test plane S-parameters.
//
// The paper models the HP Labs test structure: a plane pair on 280 µm
// alumina (εr = 9.6) with 6 mΩ/sq tungsten metallization and five probing
// pads (Fig. 6, 8 mm square), extracts a 42-node equivalent circuit, and
// compares simulated S21 with the measurement up to ~10 GHz: "the agreement
// is quite good up to about 10 GHz ... towards higher frequency the
// simulated result shifted away from the measurement in a systematic
// fashion" — the quasi-static limit.
//
// The measurement is not available; its role as an independent check is
// played by the direct MPIE sweep on a finer mesh with the exact frequency-
// dependent surface impedance (the only shared approximation is the
// quasi-static Green's function). The experiment reports |S21| from the
// 42-node circuit vs the reference, and the systematic divergence of a
// deliberately *retardation-blind* coarse model at high frequency.
#include <cmath>
#include <cstdio>

#include "circuit/sparams.hpp"
#include "common/constants.hpp"
#include "em/solver.hpp"
#include "extract/equivalent_circuit.hpp"
#include "io/touchstone.hpp"

using namespace pgsi;

namespace {

constexpr double kSide = 8e-3;     // plane edge
constexpr double kSep = 280e-6;    // alumina thickness
constexpr double kEr = 9.6;
constexpr double kRs = 6e-3;       // tungsten sheet resistance

PlaneBem make_plane(double pitch) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, kSide, kSide);
    s.z = kSep;
    s.sheet_resistance = kRs;
    s.name = "plane";
    return PlaneBem(RectMesh({s}, pitch), Greens::homogeneous(kEr, true),
                    BemOptions{});
}

// The five probing pads of Fig. 6: corners and center.
std::vector<Point2> pads() {
    return {{1e-3, 1e-3}, {7e-3, 7e-3}, {4e-3, 4e-3}, {1e-3, 7e-3},
            {7e-3, 1e-3}};
}

double db(double x) { return 20.0 * std::log10(std::max(x, 1e-12)); }

void print_experiment() {
    std::printf("=== E3: test-plane S-parameters (paper §6.1 ex. 3, Figs. "
                "6-7) ===\n");
    std::printf("8x8 mm plane pair, 280 um alumina (er = 9.6), 6 mOhm/sq "
                "tungsten, 5 probing pads, 50-ohm ports\n\n");

    // 42-node equivalent circuit: 5 pads + 37 interior nodes.
    const PlaneBem bem(make_plane(kSide / 14));
    std::vector<std::size_t> ports;
    for (const Point2& p : pads())
        ports.push_back(bem.mesh().nearest_node(p, 0));
    // Frequency-domain use keeps the exact element-wise map (the paper uses
    // the admittance matrix directly in frequency domain); passivity
    // enforcement is for time-domain realizations.
    const CircuitExtractor ex(bem, ExtractionOptions{0.0, true, false});
    const auto keep = ex.select_nodes(ports, 37);
    const EquivalentCircuit ec = ex.extract(keep);
    std::vector<std::size_t> port_idx;
    for (std::size_t p : ports)
        for (std::size_t i = 0; i < keep.size(); ++i)
            if (keep[i] == p) {
                port_idx.push_back(i);
                break;
            }
    std::printf("equivalent circuit: %zu nodes (paper: 42)\n\n",
                ec.node_count());

    // Reference: direct MPIE sweep on a finer mesh with exact Zs(ω).
    const PlaneBem fine(make_plane(kSide / 20));
    std::vector<std::size_t> fine_ports;
    for (const Point2& p : pads())
        fine_ports.push_back(fine.mesh().nearest_node(p, 0));
    // Tungsten: σ ≈ 1.8e7 S/m; thickness from the 6 mΩ/sq sheet value.
    const DirectSolver ref(fine,
                           SurfaceImpedance::from_conductor(1.8e7, 1.0 / (1.8e7 * kRs)));

    std::printf("%-10s %-16s %-16s %-10s\n", "f [GHz]", "|S21| circuit [dB]",
                "|S21| direct [dB]", "delta [dB]");
    VectorD freqs;
    std::vector<MatrixC> s_circuit;
    double max_dev_lo = 0, max_dev_hi = 0;
    for (double f = 1e9; f <= 16e9; f += 1e9) {
        const MatrixC z_ec = ec.impedance(f, port_idx);
        const MatrixC s_ec = z_to_s(z_ec, 50.0);
        const MatrixC z_ref = ref.port_impedance(f, fine_ports);
        const MatrixC s_ref = z_to_s(z_ref, 50.0);
        const double a = db(std::abs(s_ec(1, 0)));
        const double b = db(std::abs(s_ref(1, 0)));
        std::printf("%-10.1f %-16.2f %-16.2f %-10.2f\n", f / 1e9, a, b, a - b);
        freqs.push_back(f);
        s_circuit.push_back(s_ec);
        if (f <= 10e9)
            max_dev_lo = std::max(max_dev_lo, std::abs(a - b));
        else
            max_dev_hi = std::max(max_dev_hi, std::abs(a - b));
    }
    write_touchstone_file("bench_plane_sparams.s5p", freqs, s_circuit, 50.0);
    std::printf("\nmax |S21| deviation up to 10 GHz : %.2f dB\n", max_dev_lo);
    std::printf("max |S21| deviation above 10 GHz : %.2f dB\n", max_dev_hi);
    std::printf("(paper: good agreement to ~10 GHz, systematic shift "
                "beyond — the quasi-static limit)\n");
    std::printf("full 5-port sweep written to bench_plane_sparams.s5p\n\n");
}

} // namespace

int main() {
    print_experiment();
    return 0;
}
