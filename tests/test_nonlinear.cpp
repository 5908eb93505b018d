// Tests for the nonlinear table-conductance element and the Newton solvers
// (DC, transient, AC linearization).
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/ac.hpp"
#include "circuit/transient.hpp"
#include "common/constants.hpp"

using namespace pgsi;

namespace {

// Piecewise "diode": off below 0.6 V, then 0.1 S slope.
void add_diode(Netlist& nl, const std::string& name, NodeId a, NodeId b) {
    VectorD v, i;
    for (double x = -5.0; x <= 0.6; x += 0.2) {
        v.push_back(x);
        i.push_back(0.0);
    }
    for (double x = 0.8; x <= 6.0; x += 0.2) {
        v.push_back(x);
        i.push_back((x - 0.6) * 0.1);
    }
    nl.add_table_conductance(name, a, b, std::move(v), std::move(i));
}

} // namespace

TEST(Nonlinear, DcDiodeResistorDivider) {
    // 5 V source, 100 ohm, diode to ground: i = (v-0.6)*0.1 above 0.6 V.
    // KCL: (5 - v)/100 = 0.1 (v - 0.6)  ->  v = (0.05 + 0.06) / 0.11 = 1.0 V.
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId d = nl.node("d");
    nl.add_vsource("V1", in, nl.ground(), Source::dc(5.0));
    nl.add_resistor("R1", in, d, 100.0);
    add_diode(nl, "D1", d, nl.ground());
    const DcSolution s = dc_operating_point(nl);
    EXPECT_NEAR(s.v(d), 1.0, 1e-6);
}

TEST(Nonlinear, DcDiodeOffRegion) {
    // 0.3 V drive: diode off, node floats to the source value through R.
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId d = nl.node("d");
    nl.add_vsource("V1", in, nl.ground(), Source::dc(0.3));
    nl.add_resistor("R1", in, d, 100.0);
    add_diode(nl, "D1", d, nl.ground());
    nl.add_resistor("Rleak", d, nl.ground(), 1e7);
    const DcSolution s = dc_operating_point(nl);
    EXPECT_NEAR(s.v(d), 0.3, 1e-3);
}

TEST(Nonlinear, TransientClampLimitsOvershoot) {
    // Unterminated 50-ohm line doubles the incident wave to ~4 V; a clamp
    // diode to a 3.3 V rail holds the receiver near rail + 0.6 V.
    auto make = [&](bool clamped) {
        Netlist nl;
        const NodeId src = nl.node("src");
        const NodeId in = nl.node("in");
        const NodeId out = nl.node("out");
        nl.add_vsource("V1", src, nl.ground(),
                       Source::pulse(0, 4, 0, 0.2e-9, 0.2e-9, 6e-9));
        nl.add_resistor("Rs", src, in, 50.0);
        MtlParameters p;
        p.l = MatrixD{{250e-9}};
        p.c = MatrixD{{100e-12}};
        nl.add_tline("T1", {in}, {out},
                     std::make_shared<ModalTline>(p, 0.2));
        nl.add_resistor("Rl", out, nl.ground(), 1e6);
        if (clamped) {
            const NodeId rail = nl.node("rail");
            nl.add_vsource("Vrail", rail, nl.ground(), Source::dc(3.3));
            add_diode(nl, "Dclamp", out, rail);
        }
        TransientOptions opt;
        opt.dt = 20e-12;
        opt.tstop = 5e-9;
        opt.probes = {out};
        const TransientResult res = transient_analyze(nl, opt);
        // One factor per integrator: the clamp's Newton updates are
        // low-rank corrections of it.
        EXPECT_LE(res.stats.lu_factorizations, 2u);
        return res.peak_abs(out);
    };
    const double open_peak = make(false);
    const double clamped_peak = make(true);
    EXPECT_GT(open_peak, 3.8);       // full doubling
    EXPECT_LT(clamped_peak, 3.95);   // clamp absorbs the overshoot
    EXPECT_GT(open_peak, clamped_peak + 0.05);
}

TEST(Nonlinear, AcLinearizesAtOperatingPoint) {
    // Bias the diode at 1.0 V (from the DC test): small-signal conductance
    // is the 0.1 S table slope, so a 1 mA AC probe sees R1 || 10 ohm.
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId d = nl.node("d");
    nl.add_vsource("V1", in, nl.ground(), Source::dc(5.0));
    nl.add_resistor("R1", in, d, 100.0);
    add_diode(nl, "D1", d, nl.ground());
    nl.add_isource("Iprobe", nl.ground(), d, Source::dc(0.0).set_ac(1e-3));
    const AcSolution s = ac_analyze(nl, 1e6);
    const double r_expected = 1.0 / (1.0 / 100.0 + 0.1);
    EXPECT_NEAR(std::abs(s.v(d)), 1e-3 * r_expected, 1e-6);
}

TEST(Nonlinear, StepperHandlesTables) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId d = nl.node("d");
    nl.add_vsource("V1", in, nl.ground(),
                   Source::pulse(0, 5, 0, 0.5e-9, 0.5e-9, 4e-9));
    nl.add_resistor("R1", in, d, 100.0);
    add_diode(nl, "D1", d, nl.ground());
    nl.add_capacitor("C1", d, nl.ground(), 5e-12);
    TransientStepper st(nl, 20e-12);
    double peak = 0;
    for (int k = 0; k < 200; ++k) {
        st.step();
        peak = std::max(peak, st.node_voltage(d));
    }
    // Clamped near the 1.0 V operating point (plus dynamics).
    EXPECT_GT(peak, 0.8);
    EXPECT_LT(peak, 1.5);
    // Every Newton pass is a low-rank correction of the one factor per
    // integrator, plus one factor per step-size change (a cut and its undo).
    EXPECT_LE(st.stats().lu_factorizations, 2u + 2 * st.stats().timestep_cuts);
}

TEST(Nonlinear, TableValidation) {
    Netlist nl;
    const NodeId a = nl.node("a");
    EXPECT_THROW(
        nl.add_table_conductance("bad", a, nl.ground(), {1.0, 0.5}, {0.0, 1.0}),
        InvalidArgument); // non-monotone abscissae
}
