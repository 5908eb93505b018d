// Seeded scenario generators for the verification harness: plane geometries
// with port placements, and small RLC/source netlists.
//
// A scenario is a *description*, not a solver object: a handful of integers
// and doubles from which the mesh, the BEM operator and the solvers can be
// rebuilt deterministically. That makes scenarios cheap to copy, easy to
// mutate (the shrinker edits cell counts and drops features), and trivially
// serializable into a repro snippet.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "em/bem_plane.hpp"
#include "em/surface_impedance.hpp"
#include "verify/rng.hpp"

namespace pgsi::verify {

/// Axis-aligned rectangle in integer cell coordinates of the owning shape
/// (cell (0,0) is the shape's lower-left corner; x1/y1 are exclusive).
struct CellRect {
    int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

/// One conductor shape of a plane scenario, described on the cell lattice.
struct ShapeSpec {
    int nx = 8, ny = 8;  ///< extent in cells
    int ox = 0, oy = 0;  ///< lattice offset of the lower-left corner, in cells
    double z = 0.4e-3;   ///< height above the reference plane [m]
    std::optional<CellRect> hole; ///< interior antipad cutout
    std::optional<CellRect> lcut; ///< upper-right corner cut -> L-shape
    /// Cell-size multiplier. 1.0 keeps the shape on the shared lattice; any
    /// other value makes its cells incommensurate with the base pitch, which
    /// defeats the displacement table and forces the dense assembly path.
    double stretch = 1.0;
};

/// A port: observation node nearest to a fractional position in the bounding
/// box of one shape.
struct PortSpec {
    std::size_t shape = 0;
    double fx = 0.5, fy = 0.5;
};

/// A generated (or shrunk) plane scenario.
struct PlaneScenario {
    std::uint64_t seed = 0;  ///< generator stream that produced it
    std::string kind = "rectangle";
    double pitch = 1e-3;             ///< base lattice pitch [m]
    double sheet_resistance = 2e-3;  ///< per-plane DC sheet resistance [ohm/sq]
    double eps_r = 4.2;
    Testing testing = Testing::PointMatching;
    std::vector<ShapeSpec> shapes;
    std::vector<PortSpec> ports;

    /// Throws InvalidArgument when the description is not meshable (empty,
    /// degenerate holes, overlapping same-height shapes, dangling ports).
    void validate() const;

    RectMesh make_mesh() const;
    PlaneBem make_bem() const;
    SurfaceImpedance surface_impedance() const;

    /// Port mesh nodes in port order (may repeat if two ports snap to the
    /// same cell; the generator avoids that, the shrinker may not).
    std::vector<std::size_t> port_nodes(const RectMesh& mesh) const;

    /// Number of meshed charge cells.
    std::size_t cell_count() const;
    /// Number of distinct conductor heights.
    std::size_t layer_count() const;
    /// True when the scenario is a single full on-lattice rectangle — the
    /// geometry the analytic cavity model can cross-check.
    bool separable() const;
    /// Estimated first cavity resonance of the overall extent [Hz]; the
    /// quasi-static invariant checks pick their frequencies relative to it.
    double est_first_resonance() const;

    std::string describe() const;
    /// Self-contained gtest snippet reproducing one invariant failure.
    std::string to_cpp(const std::string& test_name,
                       const std::string& invariant) const;
    /// Board-file rendering of the scenario footprint (parses with
    /// parse_board_file; multi-layer detail is carried in comments).
    std::string to_board() const;
};

/// Draw a random plane scenario from `rng`.
PlaneScenario generate_plane(Rng& rng);

/// A generated transient-circuit scenario: a small random RLC network with a
/// guaranteed DC path from every node to ground, plus pulse/sine sources.
struct NetlistScenario {
    std::uint64_t seed = 0;
    double dt = 0;
    double tstop = 0;
    std::string summary;
    Netlist netlist;
};

/// Draw a random netlist scenario from `rng`.
NetlistScenario generate_netlist(Rng& rng);

/// Copy of `base` with a DC supply and 1–3 behavioral drivers switching
/// against the network, every driver parameter drawn from `rng`. The
/// campaign feeds it a stream family of its own, so no draw of `base`
/// shifts.
NetlistScenario add_drivers(const NetlistScenario& base, Rng& rng);

} // namespace pgsi::verify
