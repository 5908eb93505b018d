// A4 — ablation: monolithic MNA vs partitioned Gauss–Seidel co-simulation
// (§5.2).
//
// The paper couples its four subsystems "dynamically ... at every time step"
// — a partitioned relaxation scheme. This ablation compares that scheme
// against solving everything in one MNA system: waveform agreement (the
// relaxation lags the coupling by one step) and the runtime trade.
#include <cmath>
#include <cstdio>
#include <memory>

#include "si/cosim.hpp"

using namespace pgsi;

namespace {

Board small_board() {
    BoardStackup st;
    st.plane_separation = 0.5e-3;
    st.eps_r = 4.5;
    st.sheet_resistance = 0.6e-3;
    Board b(0.10, 0.08, st, 5.0);
    b.set_vrm_location({0.01, 0.01});
    for (int d = 0; d < 4; ++d) {
        DriverSite s;
        s.name = "d" + std::to_string(d);
        s.vcc_pin = {0.06 + 0.006 * d, 0.05};
        s.gnd_pin = {0.06 + 0.006 * d, 0.04};
        s.load_c = 25e-12;
        s.driver.input = Source::pulse(0, 1, 0.5e-9, 0.8e-9, 0.8e-9, 4e-9);
        b.add_driver_site(s);
    }
    return b;
}

SsnModelOptions options() {
    SsnModelOptions o;
    o.mesh_pitch = 10e-3;
    o.interior_nodes = 8;
    o.prune_rel_tol = 0.03;
    return o;
}

void print_experiment() {
    std::printf("=== A4: monolithic vs partitioned co-simulation (paper "
                "§5.2) ===\n");
    std::printf("four switching drivers on a 100x80 mm board\n\n");

    auto plane = std::make_shared<PlaneModel>(small_board(), options());
    const double tstop = 6e-9;

    std::printf("%-10s %-16s %-16s %-12s\n", "dt [ps]", "mono peak [mV]",
                "part peak [mV]", "delta [%]");
    for (double dt : {50e-12, 25e-12, 10e-12}) {
        const SsnModel mono(plane);
        const TransientResult rm = mono.simulate(dt, tstop);
        double mono_peak = 0;
        for (std::size_t s = 0; s < 4; ++s)
            mono_peak = std::max(mono_peak, rm.peak_excursion(mono.die_gnd(s)));

        PartitionedCosim part(plane, dt);
        const PartitionedCosim::Result rp = part.run(tstop);
        double part_peak = 0;
        for (std::size_t s = 0; s < 4; ++s)
            for (double v : rp.die_gnd[s])
                part_peak =
                    std::max(part_peak, std::abs(v - rp.die_gnd[s].front()));

        std::printf("%-10.0f %-16.1f %-16.1f %-12.1f\n", dt * 1e12,
                    mono_peak * 1e3, part_peak * 1e3,
                    100.0 * std::abs(part_peak - mono_peak) / mono_peak);
    }
    std::printf("\nexpected shape: the partitioned scheme converges on the "
                "monolithic answer as dt shrinks (its coupling error is "
                "O(dt)).\n\n");
}

} // namespace

int main() {
    print_experiment();
    return 0;
}
