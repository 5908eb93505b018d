// E4 — §6.1 example 3 / Fig. 8: test-plane transient, equivalent RLC
// circuit vs 2-D FDTD.
//
// The paper applies a 5 V pulse (0.2 ns rise/fall, 1.0 ns width) at Port 1
// of the alumina test plane with all five ports terminated in 50 Ω, and
// overlays the Port-2 waveform computed from the extracted RLC circuit with
// a 2-D FDTD solution (1 mm grid, 10 ps steps in the paper): "good agreement
// again is evident".
//
// Both engines are rebuilt here and the Port-2 waveforms compared sample by
// sample, plus summary metrics (peak value, arrival time, RMS difference).
#include <cmath>
#include <cstdio>

#include "circuit/transient.hpp"
#include "extract/equivalent_circuit.hpp"
#include "fdtd/plane_fdtd.hpp"
#include "io/csv.hpp"

using namespace pgsi;

namespace {

constexpr double kSide = 8e-3, kSep = 280e-6, kEr = 9.6, kRs = 6e-3;
constexpr double kTstop = 4e-9;

std::vector<Point2> pads() {
    return {{1e-3, 1e-3}, {7e-3, 7e-3}, {4e-3, 4e-3}, {1e-3, 7e-3},
            {7e-3, 1e-3}};
}

Source fig8_pulse() {
    return Source::pulse(0, 5, 0.1e-9, 0.2e-9, 0.2e-9, 1.0e-9);
}

// Engine 1: extracted equivalent RLC circuit, all ports 50 ohm.
VectorD run_circuit(double dt, VectorD& time) {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, kSide, kSide);
    s.z = kSep;
    s.sheet_resistance = kRs;
    const PlaneBem bem(RectMesh({s}, kSide / 14), Greens::homogeneous(kEr, true),
                       BemOptions{});
    std::vector<std::size_t> ports;
    for (const Point2& p : pads()) ports.push_back(bem.mesh().nearest_node(p, 0));
    const CircuitExtractor ex(bem);
    const auto keep = ex.select_nodes(ports, 37);
    const EquivalentCircuit ec = ex.extract(keep);

    Netlist nl;
    std::vector<NodeId> map;
    for (std::size_t k = 0; k < ec.node_count(); ++k)
        map.push_back(nl.add_node("n" + std::to_string(k)));
    ec.stamp(nl, map, nl.ground(), "pg");

    std::vector<NodeId> port_nodes;
    for (std::size_t p : ports)
        for (std::size_t i = 0; i < keep.size(); ++i)
            if (keep[i] == p) port_nodes.push_back(map[i]);
    // Port 1: 5 V source behind 50 ohm; ports 2..5: 50 ohm loads.
    const NodeId src = nl.add_node("src");
    nl.add_vsource("V1", src, nl.ground(), fig8_pulse());
    nl.add_resistor("Rs", src, port_nodes[0], 50.0);
    for (std::size_t p = 1; p < port_nodes.size(); ++p)
        nl.add_resistor("Rl" + std::to_string(p), port_nodes[p], nl.ground(),
                        50.0);

    TransientOptions opt;
    opt.dt = dt;
    opt.tstop = kTstop;
    opt.probes = {port_nodes[1]};
    const TransientResult r = transient_analyze(nl, opt);
    time = r.time;
    return r.waveform(port_nodes[1]);
}

// Engine 2: 2-D FDTD on the same structure.
PlaneFdtdResult run_fdtd() {
    PlaneFdtdOptions o;
    o.lx = kSide;
    o.ly = kSide;
    o.separation = kSep;
    o.eps_r = kEr;
    o.sheet_resistance = kRs;
    o.nx = 32;
    o.ny = 32; // 0.25 mm grid
    PlaneFdtd sim(o);
    sim.add_port(pads()[0], 50.0, fig8_pulse());
    for (std::size_t p = 1; p < pads().size(); ++p)
        sim.add_port(pads()[p], 50.0, Source::dc(0.0));
    return sim.run(kTstop);
}

double sample(const VectorD& t, const VectorD& v, double when) {
    for (std::size_t i = 0; i < t.size(); ++i)
        if (t[i] >= when) return v[i];
    return v.back();
}

void print_experiment() {
    std::printf("=== E4: test-plane transient at Port 2 — RLC circuit vs "
                "2-D FDTD (paper Fig. 8) ===\n");
    std::printf("5 V / 0.2 ns / 1 ns pulse at Port 1, all ports 50 ohm\n\n");

    VectorD t_c;
    const VectorD v_c = run_circuit(5e-12, t_c);
    const PlaneFdtdResult fd = run_fdtd();
    const VectorD& v_f = fd.port_voltage[1];

    std::printf("%-8s %-14s %-14s\n", "t [ns]", "RLC circuit [V]",
                "FDTD [V]");
    double rms = 0, rms_ref = 0;
    int n = 0;
    for (double t = 0.1e-9; t <= kTstop; t += 0.1e-9) {
        const double a = sample(t_c, v_c, t);
        const double b = sample(fd.time, v_f, t);
        if (std::fmod(std::round(t * 1e10), 2.0) == 0.0)
            std::printf("%-8.1f %-14.3f %-14.3f\n", t * 1e9, a, b);
        rms += (a - b) * (a - b);
        rms_ref += b * b;
        ++n;
    }
    write_csv_file("bench_plane_transient.csv",
                   {"t_s", "v_circuit", "v_fdtd"},
                   {t_c, v_c,
                    [&] {
                        VectorD out(t_c.size());
                        for (std::size_t i = 0; i < t_c.size(); ++i)
                            out[i] = sample(fd.time, v_f, t_c[i]);
                        return out;
                    }()});

    auto arrival = [](const VectorD& t, const VectorD& v) {
        const double thresh = 0.2 * max_abs(v);
        for (std::size_t i = 0; i < v.size(); ++i)
            if (std::abs(v[i]) > thresh) return t[i];
        return 0.0;
    };
    std::printf("\n%-30s %-12s %-12s\n", "metric", "RLC", "FDTD");
    std::printf("%-30s %-12.3f %-12.3f\n", "peak at Port 2 [V]", max_abs(v_c),
                max_abs(v_f));
    std::printf("%-30s %-12.3f %-12.3f\n", "arrival (20%% of peak) [ns]",
                arrival(t_c, v_c) * 1e9, arrival(fd.time, v_f) * 1e9);
    std::printf("%-30s %.1f %%\n", "relative RMS difference",
                100.0 * std::sqrt(rms / std::max(rms_ref, 1e-30)));
    std::printf("(paper: 'good agreement again is evident'; waveforms in "
                "bench_plane_transient.csv)\n\n");
}

} // namespace

int main() {
    print_experiment();
    return 0;
}
