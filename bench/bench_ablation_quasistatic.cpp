// A2 — ablation: validity limit of the quasi-static equivalent circuit
// (§4.1).
//
// The paper argues the frequency-independent RLC circuit "gives accurate
// high frequency characteristics up to a certain frequency limit well above
// most digital signal bandwidth" and demonstrates (Fig. 7) a systematic
// departure past ~10 GHz on the alumina test plane. This ablation measures
// that limit directly: transfer impedance error of the *reduced* 42-node
// circuit against the full (unreduced) quasi-static solution across
// frequency, for two reduction levels.
#include <cmath>
#include <cstdio>

#include "em/solver.hpp"
#include "extract/equivalent_circuit.hpp"

using namespace pgsi;

namespace {

constexpr double kSide = 8e-3, kSep = 280e-6, kEr = 9.6, kRs = 6e-3;

PlaneBem make_plane() {
    ConductorShape s;
    s.outline = Polygon::rectangle(0, 0, kSide, kSide);
    s.z = kSep;
    s.sheet_resistance = kRs;
    return PlaneBem(RectMesh({s}, kSide / 16), Greens::homogeneous(kEr, true),
                    BemOptions{});
}

void print_experiment() {
    std::printf("=== A2: quasi-static equivalent-circuit validity vs node "
                "count (paper §4.1, Fig. 7 discussion) ===\n");
    std::printf("alumina test plane; |Z21| between opposite corner pads; "
                "reference = direct MPIE solve on the full mesh\n\n");

    const PlaneBem bem = make_plane();
    const std::size_t p1 = bem.mesh().nearest_node({1e-3, 1e-3}, 0);
    const std::size_t p2 = bem.mesh().nearest_node({7e-3, 7e-3}, 0);
    const DirectSolver ref(bem, SurfaceImpedance::from_sheet_resistance(kRs));

    const CircuitExtractor ex(bem, ExtractionOptions{0.0, true, false});
    struct Model {
        const char* name;
        EquivalentCircuit ec;
        std::vector<std::size_t> ports;
    };
    std::vector<Model> models;
    for (const std::size_t interior : {2, 16, 40}) {
        const auto keep = ex.select_nodes({p1, p2}, interior);
        Model m;
        m.name = interior == 2 ? "tiny" : (interior == 16 ? "small" : "42-node");
        m.ec = ex.extract(keep);
        for (std::size_t p : {p1, p2})
            for (std::size_t i = 0; i < keep.size(); ++i)
                if (keep[i] == p) m.ports.push_back(i);
        models.push_back(std::move(m));
    }

    std::printf("%-10s", "f [GHz]");
    for (const Model& m : models)
        std::printf(" %6s(%2zu) [dB]", m.name, m.ec.node_count());
    std::printf("\n");
    for (double f : {1e9, 2e9, 4e9, 6e9, 8e9, 10e9, 14e9, 18e9}) {
        const double zr = std::abs(ref.port_impedance(f, {p1, p2})(0, 1));
        std::printf("%-10.0f", f / 1e9);
        for (const Model& m : models) {
            const double ze = std::abs(m.ec.impedance(f, m.ports)(0, 1));
            std::printf(" %14.1f", std::abs(20.0 * std::log10(ze / zr)));
        }
        std::printf("\n");
    }
    std::printf("\nexpected shape: more retained nodes push the validity "
                "limit up in frequency; every model eventually departs as "
                "the retained-node spacing approaches the wavelength — the "
                "paper's quasi-static limit.\n\n");
}

} // namespace

int main() {
    print_experiment();
    return 0;
}
