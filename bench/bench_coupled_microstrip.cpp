// E2 — §6.1 example 2 / Figs. 4–5: coupled microstrip transient and
// crosstalk.
//
// The paper's structure (Fig. 4): two 6 mm traces with a 6 mm gap on an
// εr = 4.5, 5 mm substrate. A 5 V pulse with 0.3 ns rise/fall and 1.0 ns
// width drives the active line from a 50 Ω source; all other ends carry
// 50 Ω loads. Fig. 5(a) shows the near/far-end waveforms on the active line,
// Fig. 5(b) the near/far-end crosstalk on the passive line. The paper
// compared its 16-node BEM equivalent circuit against a commercial
// transmission-line simulator and reported good agreement.
//
// Here both of the paper's methods are rebuilt and compared against each
// other:
//   (1) the analytic modal multiconductor line (2-D extraction + method of
//       characteristics) — standing in for the commercial MTL simulator,
//   (2) the full 3-D BEM of the two traces realized as a passive PEEC
//       circuit — the field-solver path.
// The line length is not stated in the paper; 0.30 m gives the ~2 ns flight
// time consistent with Fig. 5's axes.
#include <cmath>
#include <cstdio>
#include <memory>

#include "circuit/transient.hpp"
#include "extract/peec_stamp.hpp"
#include "tline2d/mtl_extract.hpp"

using namespace pgsi;

namespace {

constexpr double kW = 6e-3, kGap = 6e-3, kH = 5e-3, kEr = 4.5, kLen = 0.30;

Source drive_pulse() {
    return Source::pulse(0, 5, 0.2e-9, 0.3e-9, 0.3e-9, 1.0e-9);
}

struct Waves {
    VectorD time, near_active, far_active, near_quiet, far_quiet;
};

// Method (1): modal MTL from the 2-D field solver.
Waves run_mtl(double dt, double tstop) {
    const MtlParameters p = extract_microstrip(
        {{-0.5 * (kW + kGap), kW}, {0.5 * (kW + kGap), kW}}, kEr, kH);
    auto model = std::make_shared<ModalTline>(p, kLen);

    Netlist nl;
    const NodeId src = nl.node("src");
    const NodeId a_in = nl.node("a_in");
    const NodeId a_out = nl.node("a_out");
    const NodeId b_in = nl.node("b_in");
    const NodeId b_out = nl.node("b_out");
    nl.add_vsource("V1", src, nl.ground(), drive_pulse());
    nl.add_resistor("Rs", src, a_in, 50.0);
    nl.add_resistor("Rbn", b_in, nl.ground(), 50.0);
    nl.add_tline("T1", {a_in, b_in}, {a_out, b_out}, model);
    nl.add_resistor("Ral", a_out, nl.ground(), 50.0);
    nl.add_resistor("Rbl", b_out, nl.ground(), 50.0);

    TransientOptions opt;
    opt.dt = dt;
    opt.tstop = tstop;
    opt.probes = {a_in, a_out, b_in, b_out};
    const TransientResult r = transient_analyze(nl, opt);
    return {r.time, r.waveform(a_in), r.waveform(a_out), r.waveform(b_in),
            r.waveform(b_out)};
}

// Method (2): 3-D BEM of the traces, PEEC realization.
Waves run_bem(double dt, double tstop, double pitch) {
    ConductorShape a, b;
    a.outline = Polygon::rectangle(0, 0, kLen, kW);
    a.z = kH;
    a.name = "active";
    b = a;
    b.outline = Polygon::rectangle(0, kW + kGap, kLen, 2 * kW + kGap);
    b.name = "quiet";
    const PlaneBem bem(RectMesh({a, b}, pitch), Greens::grounded_slab(kEr, kH),
                       BemOptions{});

    Netlist nl;
    std::vector<NodeId> map;
    for (std::size_t k = 0; k < bem.node_count(); ++k)
        map.push_back(nl.add_node("m" + std::to_string(k)));
    stamp_peec(nl, bem, map, nl.ground(), "ms", PeecOptions{2e-3, 2e-3});

    const RectMesh& mesh = bem.mesh();
    const NodeId a_in = map[mesh.nearest_node({0.0, 0.5 * kW}, 0)];
    const NodeId a_out = map[mesh.nearest_node({kLen, 0.5 * kW}, 0)];
    const NodeId b_in = map[mesh.nearest_node({0.0, 1.5 * kW + kGap}, 1)];
    const NodeId b_out = map[mesh.nearest_node({kLen, 1.5 * kW + kGap}, 1)];

    const NodeId src = nl.add_node("src");
    nl.add_vsource("V1", src, nl.ground(), drive_pulse());
    nl.add_resistor("Rs", src, a_in, 50.0);
    nl.add_resistor("Rbn", b_in, nl.ground(), 50.0);
    nl.add_resistor("Ral", a_out, nl.ground(), 50.0);
    nl.add_resistor("Rbl", b_out, nl.ground(), 50.0);

    TransientOptions opt;
    opt.dt = dt;
    opt.tstop = tstop;
    opt.probes = {a_in, a_out, b_in, b_out};
    const TransientResult r = transient_analyze(nl, opt);
    return {r.time, r.waveform(a_in), r.waveform(a_out), r.waveform(b_in),
            r.waveform(b_out)};
}

double value_at(const Waves& w, const VectorD& series, double t) {
    for (std::size_t i = 0; i < w.time.size(); ++i)
        if (w.time[i] >= t) return series[i];
    return series.back();
}

void print_experiment() {
    std::printf("=== E2: coupled microstrip transient (paper §6.1 ex. 2, "
                "Figs. 4-5) ===\n");
    std::printf("w = 6 mm, gap = 6 mm, h = 5 mm, er = 4.5, len = 0.30 m; "
                "5 V / 0.3 ns / 1 ns pulse, 50-ohm everywhere\n\n");

    const double dt = 25e-12, tstop = 8e-9;
    const Waves mtl = run_mtl(dt, tstop);
    const Waves bem = run_bem(dt, tstop, kLen / 40);

    // Fig. 5 series (subsampled).
    std::printf("Fig. 5(a)/(b) series — modal MTL (the reference method):\n");
    std::printf("%-8s %-10s %-10s %-10s %-10s\n", "t [ns]", "near(act)",
                "far(act)", "near(xt)", "far(xt)");
    for (double t = 0; t <= tstop; t += 0.5e-9)
        std::printf("%-8.1f %-10.3f %-10.3f %-10.3f %-10.3f\n", t * 1e9,
                    value_at(mtl, mtl.near_active, t),
                    value_at(mtl, mtl.far_active, t),
                    value_at(mtl, mtl.near_quiet, t),
                    value_at(mtl, mtl.far_quiet, t));

    // Headline comparisons between the two independent engines.
    auto arrival = [&](const Waves& w) {
        for (std::size_t i = 0; i < w.time.size(); ++i)
            if (w.far_active[i] > 1.25) return w.time[i]; // half the 2.5 V step
        return 0.0;
    };
    std::printf("\n%-34s %-14s %-14s\n", "metric", "modal MTL", "3-D BEM/PEEC");
    std::printf("%-34s %-14.2f %-14.2f\n", "flight time [ns]",
                (arrival(mtl) - 0.35e-9) * 1e9, (arrival(bem) - 0.35e-9) * 1e9);
    std::printf("%-34s %-14.2f %-14.2f\n", "incident step at near end [V]",
                value_at(mtl, mtl.near_active, 1.0e-9),
                value_at(bem, bem.near_active, 1.0e-9));
    std::printf("%-34s %-14.3f %-14.3f\n", "peak near-end crosstalk [V]",
                max_abs(mtl.near_quiet), max_abs(bem.near_quiet));
    std::printf("%-34s %-14.3f %-14.3f\n", "peak far-end crosstalk [V]",
                max_abs(mtl.far_quiet), max_abs(bem.far_quiet));
    std::printf("\nExpected shape: matched line -> clean 2.5 V incident step "
                "delayed by the flight time; near-end crosstalk is a long low "
                "shelf, far-end crosstalk a sharp spike at arrival — the two "
                "independent methods agreeing is the paper's Fig. 5 "
                "check.\n\n");
}

} // namespace

int main() {
    print_experiment();
    return 0;
}
