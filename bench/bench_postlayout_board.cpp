// E6 — §6.2 example 2: post-layout system SSN evaluation.
//
// The paper's customer design: a four-layer board, twenty-six chips, two
// power/ground planes separated by 10 mil, 55 Vcc and 80 Gnd pins, evaluated
// with the integrated co-simulation. The real layout is proprietary; a
// seeded synthetic board with the same quoted parameters stands in (see
// DESIGN.md substitutions). The experiment runs the full flow — plane
// extraction with every pin a circuit node, package models, 55 drivers —
// and reports the worst-case supply noise over the board plus its spatial
// distribution.
#include <algorithm>
#include <cstdio>

#include "si/ssn.hpp"

using namespace pgsi;

namespace {

SsnModelOptions board_options() {
    SsnModelOptions o;
    o.mesh_pitch = 8e-3;
    o.interior_nodes = 8;
    o.prune_rel_tol = 0.08;
    return o;
}

void print_experiment() {
    std::printf("=== E6: post-layout SSN of a 26-chip board (paper §6.2 ex. "
                "2) ===\n");
    const Board board = make_postlayout_board(1998);
    std::printf("four-layer board, 10 mil plane pair, %zu chips' worth of "
                "driver sites (55 Vcc pins), %zu extra Gnd stitches "
                "(80 Gnd pins total), %zu decaps\n\n",
                std::size_t{26}, board.gnd_stitches().size(),
                board.decaps().size());

    auto plane = std::make_shared<PlaneModel>(board, board_options());
    std::printf("plane model: %zu mesh cells -> %zu circuit nodes, %zu "
                "branches\n(pins closer than the mesh pitch share a plane "
                "node, as they share the local plane potential)\n",
                plane->bem().node_count(), plane->circuit().node_count(),
                plane->circuit().branches.size());

    const SsnModel model(plane);
    const double dt = 50e-12, tstop = 8e-9;
    const TransientResult r = model.simulate(dt, tstop);

    // Worst and per-quadrant supply noise.
    const std::size_t nsites = board.driver_sites().size();
    double worst_gnd = 0, worst_vcc = 0, worst_plane = 0;
    std::size_t worst_site = 0;
    VectorD quadrant_noise(4, 0.0);
    for (std::size_t s = 0; s < nsites; ++s) {
        const double g = r.peak_excursion(model.die_gnd(s));
        const double v = r.peak_excursion(model.die_vcc(s));
        const double p = r.peak_excursion(model.board_vcc(s));
        if (p > worst_plane) {
            worst_plane = p;
            worst_site = s;
        }
        worst_gnd = std::max(worst_gnd, g);
        worst_vcc = std::max(worst_vcc, v);
        const Point2 pin = board.driver_sites()[s].vcc_pin;
        const int q = (pin.x > 0.5 * board.width() ? 1 : 0) +
                      (pin.y > 0.5 * board.height() ? 2 : 0);
        quadrant_noise[q] = std::max(quadrant_noise[q], p);
    }

    std::printf("\n%-36s %-12s\n", "metric", "value");
    std::printf("%-36s %-12.0f\n", "worst die ground bounce [mV]",
                worst_gnd * 1e3);
    std::printf("%-36s %-12.0f\n", "worst die Vcc droop [mV]", worst_vcc * 1e3);
    std::printf("%-36s %-12.0f\n", "worst plane noise at a pin [mV]",
                worst_plane * 1e3);
    std::printf("%-36s %s\n", "worst-noise site",
                board.driver_sites()[worst_site].name.c_str());
    std::printf("\nplane-noise map by board quadrant [mV]:\n");
    std::printf("  upper-left %6.0f   upper-right %6.0f\n",
                quadrant_noise[2] * 1e3, quadrant_noise[3] * 1e3);
    std::printf("  lower-left %6.0f   lower-right %6.0f\n",
                quadrant_noise[0] * 1e3, quadrant_noise[1] * 1e3);
    std::printf("\n(the paper omits its customer numbers; the deliverable is "
                "the capability: a full-board post-layout SSN sweep in one "
                "run on a workstation.)\n\n");
}

} // namespace

int main() {
    print_experiment();
    return 0;
}
