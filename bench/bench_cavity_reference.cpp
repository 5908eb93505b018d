// V1 — supplementary validation: three independent engines on one plane
// pair.
//
// The paper validates its extraction against measurement, a full-wave
// reference, and FDTD. With the measurement unavailable, this bench lines up
// the three *mutually independent* engines built in this repository on the
// alumina test-plane geometry:
//
//   1. the analytic cavity-resonator double series (em/cavity_model),
//   2. the BEM extraction + equivalent circuit (the paper's method),
//   3. the 2-D FDTD solver (the paper's transient reference).
//
// Agreement across all three pins down the common quasi-TEM physics and
// bounds the numerical error of each implementation.
#include <cmath>
#include <cstdio>

#include "common/constants.hpp"
#include "em/cavity_model.hpp"
#include "extract/equivalent_circuit.hpp"
#include "fdtd/plane_fdtd.hpp"

using namespace pgsi;

namespace {

constexpr double kSide = 8e-3, kSep = 280e-6, kEr = 9.6, kRs = 6e-3;

CavityModel cavity() {
    CavityModel c;
    c.a = kSide;
    c.b = kSide;
    c.d = kSep;
    c.eps_r = kEr;
    c.rs_total = 2 * kRs;
    c.max_modes = 60;
    c.port_w = kSide / 14;
    c.port_h = kSide / 14;
    return c;
}

void print_experiment() {
    std::printf("=== V1: three-way engine validation on the test plane ===\n");
    std::printf("8x8 mm alumina plane pair; |Z11| at a corner pad\n\n");

    const CavityModel cav = cavity();

    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, kSide, kSide);
    s.z = kSep;
    s.sheet_resistance = kRs;
    const PlaneBem bem(RectMesh({s}, kSide / 14), Greens::homogeneous(kEr, true),
                       BemOptions{});
    const EquivalentCircuit ec =
        CircuitExtractor(bem, ExtractionOptions{0.0, true, false}).extract_full();
    const std::size_t port = bem.mesh().nearest_node({1e-3, 1e-3}, 0);
    const Point2 pad = bem.mesh().nodes()[port].center;

    std::printf("%-10s %-14s %-14s\n", "f [GHz]", "cavity [ohm]",
                "BEM circuit [ohm]");
    for (double f : {0.5e9, 1e9, 2e9, 3e9, 4e9, 5e9}) {
        const double za = std::abs(cav.impedance(pad, pad, f));
        const double zb = std::abs(ec.impedance(f, {port})(0, 0));
        std::printf("%-10.1f %-14.3f %-14.3f\n", f / 1e9, za, zb);
    }

    // First-mode frequencies from all three engines.
    const double f10 = cav.mode_frequency(1, 0);
    double best_f = 0, best = 0;
    for (double f = 0.6 * f10; f <= 1.4 * f10; f += f10 / 200) {
        const double z = std::abs(ec.impedance(f, {port})(0, 0));
        if (z > best) {
            best = z;
            best_f = f;
        }
    }

    PlaneFdtdOptions fo;
    fo.lx = kSide;
    fo.ly = kSide;
    fo.separation = kSep;
    fo.eps_r = kEr;
    fo.sheet_resistance = kRs;
    fo.nx = 48;
    fo.ny = 48;
    PlaneFdtd sim(fo);
    // Source/probe on the y mid-line: kills the degenerate (0,1) and the
    // (1,1) modes so the DFT peak isolates (1,0).
    sim.add_port({1e-3, 4e-3}, 50.0,
                 Source::pulse(0, 1, 0, 0.03e-9, 0.03e-9, 0.06e-9));
    const std::size_t probe = sim.add_port({7e-3, 4e-3}, 1e6, Source::dc(0.0));
    const PlaneFdtdResult r = sim.run(4e-9);
    // DFT of the mean-removed tail (the decaying (0,0) charge otherwise
    // leaks into the lowest scanned bin).
    double mean = 0;
    std::size_t nwin = 0;
    for (std::size_t i = 0; i < r.time.size(); ++i)
        if (r.time[i] >= 0.5e-9) {
            mean += r.port_voltage[probe][i];
            ++nwin;
        }
    mean /= static_cast<double>(nwin);
    double fd_best = 0, fd_mag = -1;
    for (double f = 0.6 * f10; f <= 1.4 * f10; f += f10 / 100) {
        double re = 0, im = 0;
        for (std::size_t i = 0; i < r.time.size(); ++i) {
            if (r.time[i] < 0.5e-9) continue;
            const double ph = 2 * pi * f * r.time[i];
            re += (r.port_voltage[probe][i] - mean) * std::cos(ph);
            im -= (r.port_voltage[probe][i] - mean) * std::sin(ph);
        }
        if (re * re + im * im > fd_mag) {
            fd_mag = re * re + im * im;
            fd_best = f;
        }
    }

    std::printf("\nfirst (1,0) plane mode:\n");
    std::printf("  analytic cavity : %.3f GHz\n", f10 / 1e9);
    std::printf("  BEM circuit     : %.3f GHz  (%+.1f%%)\n", best_f / 1e9,
                100 * (best_f - f10) / f10);
    std::printf("  2-D FDTD        : %.3f GHz  (%+.1f%%)\n", fd_best / 1e9,
                100 * (fd_best - f10) / f10);
    std::printf("\nexpected shape: all three engines agree on the capacitive "
                "slope and the first mode within a few percent.\n\n");
}

} // namespace

int main() {
    print_experiment();
    return 0;
}
