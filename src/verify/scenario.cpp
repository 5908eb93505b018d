#include "verify/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "circuit/sources.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "em/greens.hpp"

namespace pgsi::verify {

namespace {

double shape_cell(const PlaneScenario& s, const ShapeSpec& sh) {
    return s.pitch * sh.stretch;
}

Bbox shape_bbox(const PlaneScenario& s, const ShapeSpec& sh) {
    const double cell = shape_cell(s, sh);
    const double x0 = sh.ox * s.pitch;
    const double y0 = sh.oy * s.pitch;
    return Bbox{x0, y0, x0 + sh.nx * cell, y0 + sh.ny * cell};
}

bool overlap(const Bbox& a, const Bbox& b, double margin) {
    return a.x0 < b.x1 + margin && b.x0 < a.x1 + margin &&
           a.y0 < b.y1 + margin && b.y0 < a.y1 + margin;
}

} // namespace

void PlaneScenario::validate() const {
    PGSI_REQUIRE(pitch > 0, "scenario: pitch must be positive");
    PGSI_REQUIRE(sheet_resistance > 0, "scenario: sheet resistance must be > 0");
    PGSI_REQUIRE(eps_r >= 1, "scenario: eps_r must be >= 1");
    PGSI_REQUIRE(!shapes.empty(), "scenario: no shapes");
    for (const ShapeSpec& sh : shapes) {
        PGSI_REQUIRE(sh.nx >= 2 && sh.ny >= 2, "scenario: shape below 2x2 cells");
        PGSI_REQUIRE(sh.stretch > 0, "scenario: non-positive stretch");
        PGSI_REQUIRE(sh.z > 0, "scenario: shape height must be > 0");
        if (sh.hole) {
            const CellRect& h = *sh.hole;
            PGSI_REQUIRE(h.x0 >= 1 && h.y0 >= 1 && h.x1 <= sh.nx - 1 &&
                             h.y1 <= sh.ny - 1 && h.x1 > h.x0 && h.y1 > h.y0,
                         "scenario: hole not strictly interior");
        }
        if (sh.lcut) {
            const CellRect& c = *sh.lcut;
            PGSI_REQUIRE(c.x0 >= 1 && c.x0 <= sh.nx - 1 && c.y0 >= 1 &&
                             c.y0 <= sh.ny - 1,
                         "scenario: L-cut corner outside the shape");
        }
        PGSI_REQUIRE(!(sh.hole && sh.lcut),
                     "scenario: hole and L-cut on one shape are unsupported");
    }
    // Same-height shapes must not overlap (coincident cells would alias).
    for (std::size_t i = 0; i < shapes.size(); ++i)
        for (std::size_t j = i + 1; j < shapes.size(); ++j)
            if (shapes[i].z == shapes[j].z)
                PGSI_REQUIRE(!overlap(shape_bbox(*this, shapes[i]),
                                      shape_bbox(*this, shapes[j]), 0.0),
                             "scenario: overlapping shapes at one height");
    for (const PortSpec& p : ports)
        PGSI_REQUIRE(p.shape < shapes.size(), "scenario: port on missing shape");
}

RectMesh PlaneScenario::make_mesh() const {
    validate();
    std::vector<ConductorShape> cs;
    cs.reserve(shapes.size());
    for (std::size_t k = 0; k < shapes.size(); ++k) {
        const ShapeSpec& sh = shapes[k];
        const double cell = shape_cell(*this, sh);
        const Bbox bb = shape_bbox(*this, sh);
        ConductorShape c;
        c.z = sh.z;
        c.sheet_resistance = sheet_resistance;
        c.name = "s" + std::to_string(k);
        if (sh.lcut) {
            const double cx = bb.x0 + sh.lcut->x0 * cell;
            const double cy = bb.y0 + sh.lcut->y0 * cell;
            c.outline = Polygon({{bb.x0, bb.y0},
                                 {bb.x1, bb.y0},
                                 {bb.x1, cy},
                                 {cx, cy},
                                 {cx, bb.y1},
                                 {bb.x0, bb.y1}});
        } else {
            c.outline = Polygon::rectangle(bb.x0, bb.y0, bb.x1, bb.y1);
        }
        if (sh.hole)
            c.holes.push_back(Polygon::rectangle(
                bb.x0 + sh.hole->x0 * cell, bb.y0 + sh.hole->y0 * cell,
                bb.x0 + sh.hole->x1 * cell, bb.y0 + sh.hole->y1 * cell));
        cs.push_back(std::move(c));
    }
    return RectMesh(std::move(cs), pitch);
}

PlaneBem PlaneScenario::make_bem() const {
    BemOptions opt;
    opt.testing = testing;
    return PlaneBem(make_mesh(), Greens::homogeneous(eps_r, true), opt);
}

SurfaceImpedance PlaneScenario::surface_impedance() const {
    return SurfaceImpedance::from_sheet_resistance(sheet_resistance);
}

std::vector<std::size_t> PlaneScenario::port_nodes(const RectMesh& mesh) const {
    std::vector<std::size_t> nodes;
    nodes.reserve(ports.size());
    for (const PortSpec& p : ports) {
        const Bbox bb = shape_bbox(*this, shapes[p.shape]);
        const Point2 pos{bb.x0 + p.fx * bb.width(), bb.y0 + p.fy * bb.height()};
        nodes.push_back(mesh.nearest_node(pos, p.shape));
    }
    return nodes;
}

std::size_t PlaneScenario::cell_count() const {
    return make_mesh().node_count();
}

std::size_t PlaneScenario::layer_count() const {
    std::set<double> zs;
    for (const ShapeSpec& sh : shapes) zs.insert(sh.z);
    return zs.size();
}

bool PlaneScenario::separable() const {
    return shapes.size() == 1 && !shapes[0].hole && !shapes[0].lcut &&
           shapes[0].stretch == 1.0;
}

double PlaneScenario::est_first_resonance() const {
    double x0 = 1e300, y0 = 1e300, x1 = -1e300, y1 = -1e300;
    for (const ShapeSpec& sh : shapes) {
        const Bbox bb = shape_bbox(*this, sh);
        x0 = std::min(x0, bb.x0);
        y0 = std::min(y0, bb.y0);
        x1 = std::max(x1, bb.x1);
        y1 = std::max(y1, bb.y1);
    }
    const double extent = std::max(x1 - x0, y1 - y0);
    return c0 / (std::sqrt(eps_r) * 2.0 * extent);
}

std::string PlaneScenario::describe() const {
    std::ostringstream os;
    os.precision(6);
    os << kind << " seed=" << seed << " pitch=" << pitch
       << " rs=" << sheet_resistance << " eps=" << eps_r
       << " testing=" << (testing == Testing::Galerkin ? "galerkin" : "pm");
    for (const ShapeSpec& sh : shapes) {
        os << " | shape " << sh.nx << "x" << sh.ny << "+" << sh.ox << "+"
           << sh.oy << " z=" << sh.z;
        if (sh.stretch != 1.0) os << " stretch=" << sh.stretch;
        if (sh.hole)
            os << " hole=[" << sh.hole->x0 << "," << sh.hole->y0 << ","
               << sh.hole->x1 << "," << sh.hole->y1 << "]";
        if (sh.lcut) os << " lcut=(" << sh.lcut->x0 << "," << sh.lcut->y0 << ")";
    }
    for (const PortSpec& p : ports)
        os << " | port s" << p.shape << " (" << p.fx << "," << p.fy << ")";
    return os.str();
}

std::string PlaneScenario::to_cpp(const std::string& test_name,
                                  const std::string& invariant) const {
    std::ostringstream os;
    os.precision(17);
    os << "// Auto-generated repro emitted by pgsi::verify.\n"
       << "//   invariant: " << invariant << "\n"
       << "//   scenario:  " << describe() << "\n"
       << "// Promote to a permanent regression test by copying this file\n"
       << "// into tests/ and adding it to PGSI_TEST_SOURCES.\n"
       << "#include <gtest/gtest.h>\n\n"
       << "#include \"verify/invariants.hpp\"\n"
       << "#include \"verify/scenario.hpp\"\n\n"
       << "TEST(VerifyRepro, " << test_name << ") {\n"
       << "    using namespace pgsi;\n"
       << "    verify::PlaneScenario s;\n"
       << "    s.seed = " << seed << "ull;\n"
       << "    s.kind = \"" << kind << "\";\n"
       << "    s.pitch = " << pitch << ";\n"
       << "    s.sheet_resistance = " << sheet_resistance << ";\n"
       << "    s.eps_r = " << eps_r << ";\n"
       << "    s.testing = Testing::"
       << (testing == Testing::Galerkin ? "Galerkin" : "PointMatching")
       << ";\n";
    for (const ShapeSpec& sh : shapes) {
        os << "    {\n        verify::ShapeSpec sh;\n"
           << "        sh.nx = " << sh.nx << "; sh.ny = " << sh.ny
           << "; sh.ox = " << sh.ox << "; sh.oy = " << sh.oy << ";\n"
           << "        sh.z = " << sh.z << "; sh.stretch = " << sh.stretch
           << ";\n";
        if (sh.hole)
            os << "        sh.hole = verify::CellRect{" << sh.hole->x0 << ", "
               << sh.hole->y0 << ", " << sh.hole->x1 << ", " << sh.hole->y1
               << "};\n";
        if (sh.lcut)
            os << "        sh.lcut = verify::CellRect{" << sh.lcut->x0 << ", "
               << sh.lcut->y0 << ", " << sh.lcut->x1 << ", " << sh.lcut->y1
               << "};\n";
        os << "        s.shapes.push_back(sh);\n    }\n";
    }
    for (const PortSpec& p : ports)
        os << "    s.ports.push_back(verify::PortSpec{" << p.shape << ", "
           << p.fx << ", " << p.fy << "});\n";
    os << "    const verify::CheckResult r = verify::run_plane_invariant(\n"
       << "        s, \"" << invariant << "\", verify::ToleranceLadder{});\n"
       << "    EXPECT_TRUE(r.pass) << r.invariant << \": \" << r.detail;\n"
       << "}\n";
    return os.str();
}

std::string PlaneScenario::to_board() const {
    double x1 = 0, y1 = 0;
    for (const ShapeSpec& sh : shapes) {
        const Bbox bb = shape_bbox(*this, sh);
        x1 = std::max(x1, bb.x1);
        y1 = std::max(y1, bb.y1);
    }
    std::ostringstream os;
    os.precision(9);
    os << "# pgsi::verify scenario footprint\n";
    os << "# " << describe() << "\n";
    os << "board " << x1 << " " << y1 << "\n";
    os << "stackup sep " << shapes[0].z << " eps " << eps_r << " sheet "
       << sheet_resistance << "\n";
    for (const ShapeSpec& sh : shapes) {
        const Bbox bb = shape_bbox(*this, sh);
        os << "# shape z=" << sh.z << " bbox " << bb.x0 << " " << bb.y0 << " "
           << bb.x1 << " " << bb.y1 << "\n";
        if (sh.hole) {
            const double cell = shape_cell(*this, sh);
            os << "cutout " << bb.x0 + sh.hole->x0 * cell << " "
               << bb.y0 + sh.hole->y0 * cell << " "
               << bb.x0 + sh.hole->x1 * cell << " "
               << bb.y0 + sh.hole->y1 * cell << "\n";
        }
    }
    for (const PortSpec& p : ports) {
        const Bbox bb = shape_bbox(*this, shapes[p.shape]);
        os << "stitch " << bb.x0 + p.fx * bb.width() << " "
           << bb.y0 + p.fy * bb.height() << "\n";
    }
    return os.str();
}

namespace {

// Place `count` ports on the given shapes, retrying until all snap to
// distinct mesh nodes (gives up after a bounded number of attempts and
// returns whatever it has — duplicates are benign, just less informative).
void place_ports(PlaneScenario& s, Rng& rng, int count,
                 const std::vector<std::size_t>& on_shapes) {
    const RectMesh mesh = s.make_mesh();
    std::set<std::size_t> used;
    for (int k = 0; k < count; ++k) {
        const std::size_t shape = on_shapes[k % on_shapes.size()];
        PortSpec best{shape, 0.5, 0.5};
        for (int attempt = 0; attempt < 24; ++attempt) {
            PortSpec p{shape, rng.uniform(0.08, 0.92), rng.uniform(0.08, 0.92)};
            const Bbox bb = shape_bbox(s, s.shapes[shape]);
            const std::size_t node = mesh.nearest_node(
                {bb.x0 + p.fx * bb.width(), bb.y0 + p.fy * bb.height()}, shape);
            best = p;
            if (!used.count(node)) {
                used.insert(node);
                break;
            }
        }
        s.ports.push_back(best);
    }
}

ShapeSpec random_shape(Rng& rng, int min_n, int max_n) {
    ShapeSpec sh;
    sh.nx = rng.uniform_int(min_n, max_n);
    sh.ny = rng.uniform_int(min_n, max_n);
    sh.z = rng.uniform(0.2e-3, 0.9e-3);
    return sh;
}

} // namespace

PlaneScenario generate_plane(Rng& rng) {
    PlaneScenario s;
    s.pitch = rng.uniform(0.8e-3, 1.6e-3);
    s.sheet_resistance = rng.log_uniform(5e-4, 5e-3);
    s.eps_r = rng.uniform(2.2, 6.0);
    s.testing = rng.chance(0.15) ? Testing::Galerkin : Testing::PointMatching;

    // Multi-layer stacks get extra weight: they exercise the cross-layer
    // (z != z') interaction kernels that single-plane cases never touch.
    const double roll = rng.uniform();
    int n_ports = rng.uniform_int(2, 3);
    std::vector<std::size_t> port_shapes;

    if (roll < 0.17) {
        s.kind = "rectangle";
        ShapeSpec sh = random_shape(rng, 8, 14);
        // Keep the dielectric thin relative to the plate extent so the
        // analytic parallel-plate cavity comparison stays meaningful: the
        // BEM resolves fringing fields the cavity formula has no notion of,
        // and those grow with d/extent.
        const double min_ext = std::min(sh.nx, sh.ny) * s.pitch;
        sh.z = min_ext * rng.uniform(0.015, 0.04);
        s.shapes.push_back(sh);
        port_shapes = {0};
    } else if (roll < 0.31) {
        s.kind = "lshape";
        ShapeSpec sh = random_shape(rng, 8, 14);
        sh.lcut = CellRect{rng.uniform_int(sh.nx / 3, 2 * sh.nx / 3),
                           rng.uniform_int(sh.ny / 3, 2 * sh.ny / 3), sh.nx,
                           sh.ny};
        s.shapes.push_back(sh);
        port_shapes = {0};
    } else if (roll < 0.46) {
        s.kind = "holey";
        ShapeSpec sh = random_shape(rng, 8, 14);
        const int hx0 = rng.uniform_int(2, sh.nx - 4);
        const int hy0 = rng.uniform_int(2, sh.ny - 4);
        sh.hole = CellRect{hx0, hy0,
                           rng.uniform_int(hx0 + 1, std::min(hx0 + 4, sh.nx - 2)),
                           rng.uniform_int(hy0 + 1, std::min(hy0 + 4, sh.ny - 2))};
        s.shapes.push_back(sh);
        port_shapes = {0};
    } else if (roll < 0.60) {
        s.kind = "split";
        ShapeSpec a = random_shape(rng, 5, 10);
        ShapeSpec b = random_shape(rng, 5, 10);
        b.z = a.z; // complementary split planes share one height
        b.ox = a.nx + rng.uniform_int(1, 3);
        b.oy = rng.uniform_int(0, 2);
        s.shapes = {a, b};
        port_shapes = {0, 1};
        n_ports = std::max(n_ports, 2);
    } else if (roll < 0.85) {
        s.kind = "multilayer";
        const int layers = rng.uniform_int(2, 3);
        double z = rng.uniform(0.2e-3, 0.4e-3);
        for (int l = 0; l < layers; ++l) {
            ShapeSpec sh = random_shape(rng, 5, 9);
            sh.z = z;
            sh.ox = rng.uniform_int(0, 2);
            sh.oy = rng.uniform_int(0, 2);
            if (rng.chance(0.25) && sh.nx >= 7 && sh.ny >= 7)
                sh.hole = CellRect{2, 2, 3, 3};
            s.shapes.push_back(sh);
            z += rng.uniform(0.3e-3, 0.7e-3);
            port_shapes.push_back(static_cast<std::size_t>(l));
        }
        n_ports = std::max(n_ports, layers); // every layer gets a port
    } else {
        s.kind = "nonuniform";
        ShapeSpec a = random_shape(rng, 6, 10);
        ShapeSpec b = random_shape(rng, 5, 8);
        b.z = a.z;
        b.ox = a.nx + rng.uniform_int(2, 4);
        b.stretch = rng.uniform(0.82, 0.95); // incommensurate lattice
        // Half of them stack b above a, overlapping it, so the H-matrix
        // also compresses cross-layer (z != z') blocks of a stretched mesh.
        if (rng.chance(0.5)) {
            b.z = a.z + rng.uniform(0.3e-3, 0.7e-3);
            b.ox = rng.uniform_int(0, 2);
        }
        s.shapes = {a, b};
        port_shapes = {0, 1};
        n_ports = std::max(n_ports, 2);
    }

    place_ports(s, rng, n_ports, port_shapes);
    return s;
}

NetlistScenario generate_netlist(Rng& rng) {
    NetlistScenario ns;
    const double t0 = 1e-9; // characteristic time scale
    ns.dt = t0 / 80;
    ns.tstop = 10 * t0;

    Netlist& nl = ns.netlist;
    const int n = rng.uniform_int(3, 6);
    std::vector<NodeId> nodes{nl.ground()};
    for (int k = 1; k <= n; ++k)
        nodes.push_back(nl.node("n" + std::to_string(k)));

    int nr = 0, nc = 0, nli = 0;
    std::vector<std::size_t> inductors;
    // Spanning tree of R/L edges: every node keeps a DC path to ground, so
    // the operating point is well posed without gmin leakage (which would
    // silently unbalance the energy bookkeeping).
    for (int k = 1; k <= n; ++k) {
        const NodeId parent = nodes[static_cast<std::size_t>(
            rng.uniform_int(0, k - 1))];
        if (rng.chance(0.55)) {
            nl.add_resistor("rt" + std::to_string(++nr), nodes[k], parent,
                            rng.log_uniform(1.0, 50.0));
        } else {
            inductors.push_back(nl.add_inductor(
                "lt" + std::to_string(++nli), nodes[k], parent,
                rng.log_uniform(0.5e-9, 20e-9)));
        }
    }
    // Cross edges add loops and reactive storage.
    const int extra = rng.uniform_int(2, 5);
    for (int e = 0; e < extra; ++e) {
        const NodeId a = rng.pick(nodes);
        NodeId b = rng.pick(nodes);
        if (a == b) b = nl.ground();
        if (a == b) continue;
        const double kind = rng.uniform();
        if (kind < 0.55)
            nl.add_capacitor("cx" + std::to_string(++nc), a, b,
                             rng.log_uniform(1e-12, 200e-12));
        else if (kind < 0.8)
            nl.add_resistor("rx" + std::to_string(++nr), a, b,
                            rng.log_uniform(2.0, 100.0));
        else
            inductors.push_back(nl.add_inductor("lx" + std::to_string(++nli), a,
                                                b,
                                                rng.log_uniform(0.5e-9, 20e-9)));
    }
    if (inductors.size() >= 2 && rng.chance(0.4)) {
        const std::size_t i1 = inductors[0];
        const std::size_t i2 = inductors[1];
        nl.add_mutual("kx1", nl.inductors()[i1].name, nl.inductors()[i2].name,
                      rng.uniform(0.1, 0.7));
    }

    // One excitation, zero at t = 0 so the run starts from a quiescent DC
    // point and all stored energies integrate up from zero.
    const NodeId drive = nodes[static_cast<std::size_t>(rng.uniform_int(1, n))];
    const double amp = rng.uniform(0.5, 2.0);
    Source src = rng.chance(0.5)
                     ? Source::pulse(0, amp, 0.5 * t0, t0 / 4, t0 / 4, 3 * t0,
                                     20 * t0)
                     : Source::sine(0, amp, rng.uniform(0.05, 0.4) / t0);
    if (rng.chance(0.5))
        nl.add_vsource("vdrv", drive, nl.ground(), src);
    else
        nl.add_isource("idrv", drive, nl.ground(), src);

    std::ostringstream os;
    os << "rlc n=" << n << " R=" << nr << " L=" << nli << " C=" << nc
       << " drive=" << nl.node_name(drive);
    ns.summary = os.str();
    return ns;
}

NetlistScenario add_drivers(const NetlistScenario& base, Rng& rng) {
    NetlistScenario ns = base;
    Netlist& nl = ns.netlist;
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < nl.node_count(); ++n) nodes.push_back(n);
    const NodeId vdd = nl.node("vdd");
    const double vsupply = rng.uniform(1.0, 3.3);
    nl.add_vsource("vdd", vdd, nl.ground(), Source::dc(vsupply));

    const double t0 = 1e-9; // generate_netlist's time scale
    const int count = rng.uniform_int(1, 3);
    std::ostringstream os;
    os << base.summary << " vdd=" << vsupply << " drivers=" << count;
    for (int k = 0; k < count; ++k) {
        // The pull-up switches against the supply or a network node, the
        // pull-down against a network node or ground, so both ends inject
        // switching current into the RLC network.
        const NodeId vcc = rng.chance(0.5) ? vdd : rng.pick(nodes);
        NodeId gnd = rng.pick(nodes);
        if (gnd == vcc) gnd = nl.ground();
        DriverParams p;
        p.ron_up = rng.log_uniform(5.0, 50.0);
        p.ron_dn = rng.log_uniform(5.0, 50.0);
        p.roff = rng.log_uniform(1e5, 1e9);
        // No output capacitance leaves the output node tied to the network
        // by the device conductances alone: the hardest case for a solve
        // that corrects a factor for conductance changes.
        p.c_out = rng.chance(0.25) ? 0.0 : rng.log_uniform(0.5e-12, 5e-12);
        p.input = Source::pulse(0, 1, rng.uniform(0.3, 4.0) * t0,
                                rng.uniform(0.1, 0.6) * t0,
                                rng.uniform(0.1, 0.6) * t0,
                                rng.uniform(0.5, 3.0) * t0);
        const std::string name = "d" + std::to_string(k + 1);
        nl.add_driver(name, nl.node(name + "_out"), vcc, gnd, p);
        os << " " << name << "=" << nl.node_name(vcc) << "/"
           << nl.node_name(gnd) << (p.c_out > 0 ? "" : "/nocap");
    }
    ns.summary = os.str();
    return ns;
}

} // namespace pgsi::verify
