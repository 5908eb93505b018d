// E5 — §6.2 example 1: pre-layout SSN and decoupling study.
//
// The paper's board: 7 × 10 inch, six layers, FR4, power and ground planes
// separated by 30 mil, one chip with sixteen CMOS drivers. "The ground
// noises were simulated with different combination of drivers switching, and
// the effectiveness of decoupling capacitance were observed."
//
// Two tables are produced:
//   (a) peak noise vs how many of the sixteen drivers switch together,
//   (b) peak noise vs populated decap count (100 nF parts ringed around the
//       chip, populated nearest-first) with all sixteen switching.
#include <cstdio>

#include "si/ssn.hpp"

using namespace pgsi;

namespace {

SsnModelOptions board_options() {
    SsnModelOptions o;
    o.mesh_pitch = 14e-3;
    o.interior_nodes = 12;
    o.prune_rel_tol = 0.05;
    return o;
}

constexpr double kDt = 25e-12;
constexpr double kTstop = 8e-9;

void print_experiment() {
    std::printf("=== E5: pre-layout SSN + decoupling study (paper §6.2 ex. 1) "
                "===\n");
    std::printf("7x10 inch FR4 board, 30 mil plane separation, one chip with "
                "16 CMOS drivers (1 ns edges)\n\n");

    std::printf("(a) noise vs number of switching drivers\n");
    std::printf("%-12s %-18s %-18s %-18s\n", "switching", "gnd bounce [mV]",
                "Vcc droop [mV]", "plane noise [mV]");
    const auto rows = sweep_switching_drivers({1, 2, 4, 8, 16},
                                              board_options(), kDt, kTstop);
    for (const SwitchingSweepRow& r : rows)
        std::printf("%-12d %-18.1f %-18.1f %-18.1f\n", r.n_switching,
                    r.peak_gnd_bounce * 1e3, r.peak_vcc_droop * 1e3,
                    r.peak_plane_noise * 1e3);
    std::printf("expected shape: plane noise grows with the switching count "
                "(the SSN mechanism); per-die ground bounce is pin-limited "
                "and saturates.\n\n");

    std::printf("(b) noise vs populated 100 nF decaps (16 drivers "
                "switching)\n");
    std::printf("%-12s %-14s %-18s %-18s\n", "decaps", "total [uF]",
                "Vcc droop [mV]", "plane noise [mV]");
    Decap proto;
    proto.c = 100e-9;
    proto.esr = 30e-3;
    proto.esl = 1e-9;
    const auto drows =
        sweep_decap_count(16, proto, board_options(), kDt, kTstop);
    for (const DecapSweepRow& r : drows)
        std::printf("%-12zu %-14.2f %-18.1f %-18.1f\n", r.n_decaps,
                    r.total_capacitance * 1e6, r.peak_vcc_droop * 1e3,
                    r.peak_plane_noise * 1e3);
    std::printf("expected shape: the first few well-placed decaps cut the "
                "plane noise hard; returns diminish as ESL dominates — the "
                "paper's argument for simulated (not 'play it safe') "
                "decoupling.\n\n");

    std::printf("(c) worst-case switching pattern (greedy search over "
                "'different combinations of drivers switching')\n");
    auto plane =
        std::make_shared<PlaneModel>(make_ssn_eval_board(0), board_options());
    const Source input = Source::pulse(0, 1, 1e-9, 1e-9, 1e-9, 6e-9);
    const SwitchingPatternResult pat =
        find_worst_switching_pattern(plane, 4, input, kDt, 6e-9);
    std::printf("%-8s %-10s %-20s\n", "pick", "driver", "worst noise [mV]");
    for (std::size_t k = 0; k < pat.pattern.size(); ++k)
        std::printf("%-8zu drv%-7zu %-20.1f\n", k + 1, pat.pattern[k],
                    pat.noise_after[k] * 1e3);
    std::printf("expected shape: the search clusters adjacent drivers (their "
                "pin currents share plane inductance), and noise grows with "
                "every added aggressor.\n\n");
}

} // namespace

int main() {
    print_experiment();
    return 0;
}
