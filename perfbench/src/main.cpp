// perfbench — end-to-end benchmark of the pgsi flow.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --refs <dir> --out <dir> [--commit <id>]
//   perfbench --workload <name> --make-refs <first> <last> --refs <dir>
//
// Workloads (see README.md for why each exists and which layer it isolates):
//   ssn_extract    board text -> PlaneModel -> SsnModel transient, 4 mm
//   ssn_transient  transients over seeded decap subsets on one 5 mm model
//   zsweep         Z(f) at the driver pins through the iterative backend
//                  (not in BENCHMARK.json; measured standalone in the
//                  traced runs of the others)
//   batch          serve::JobQueue transient campaign over 3 board variants
//
// The untraced run (--trace 0) repeats requests for --seconds and prints the
// end-to-end metrics. The traced run (--trace 1) repeats span-wrapped
// requests for --seconds at the fixed pool size, then one at
// kParallelThreads, one standalone zsweep request and one untraced, plus
// standalone kernels, and prints the per-layer metrics.
// The last stdout line is the result object.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

#include "circuit/mna.hpp"
#include "common/parallel.hpp"
#include "em/iterative_solver.hpp"
#include "em/solver.hpp"
#include "extract/equivalent_circuit.hpp"
#include "io/json.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "obs/resource.hpp"
#include "serve/engine.hpp"
#include "si/board_file.hpp"
#include "si/cosim.hpp"

#include "inputs.hpp"
#include "trace.hpp"

using namespace pgsi;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// Fixed pool size of every measured request; records carry it and
/// compare.py refuses to diff records whose counts differ. One thread: on a
/// shared host every parallel region waits for its slowest core, so a
/// multi-threaded time measures the neighbours' load as much as the program.
constexpr std::size_t kThreads = 1;
/// Pool size of the traced run's one parallel request (par.speedup) and of
/// the standalone kernels' `_nt` figures.
constexpr std::size_t kParallelThreads = 4;
/// Answers must match their reference to this normwise relative error, the
/// tolerance pgsi::verify holds the dense references to.
constexpr double kTol = 1e-8;

// Workload shapes.
constexpr double kDt = 25e-12, kTstop = 8e-9;
constexpr double kExtractPitch = 4e-3;     // 30 x 20 = 600 cells
constexpr std::size_t kExtractInterior = 16;
constexpr double kTransientPitch = 5e-3;   // 24 x 16 = 384 cells
constexpr std::size_t kTransientInterior = 96;
// One board for every seed (its pruned circuit size, and so the transient's
// cost, would move with seeded positions); the seed picks the decap subsets.
constexpr std::uint64_t kTransientBoard = 0;
constexpr std::size_t kTransientDecaps = 6, kTransientActive = 3,
                      kTransientSubsets = 2;
constexpr std::size_t kModelBuilds = 5;    // ssn_transient set-ups per run
constexpr std::size_t kBatchSetupRounds = 4; // batch builds each variant 4 times
constexpr std::size_t kOperatorBlocks = 9, kBlockBuilds = 20; // zsweep set-up
constexpr double kSweepPitch = 4e-3;       // 30 x 20 = 600 cells
constexpr std::size_t kSweepPoints = 4;
constexpr double kBatchPitch = 5e-3;
// 108 jobs = 6 of each of the 18 distinct specs, so the job mix, and with it
// jobs_per_s and the latency percentiles, does not move with the seed.
constexpr std::size_t kBatchVariants = 3, kBatchJobs = 108;
// Standalone kernel sizes: LU at the ssn_transient MNA order, GEMM square.
constexpr std::size_t kLuN = 515, kGemmN = 1024;

using Clock = std::chrono::steady_clock;
double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size()) return v.back();
    return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double rel_diff(const std::vector<double>& a, const std::vector<double>& r) {
    if (a.size() != r.size()) return INFINITY;
    double num = 0, den = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        num += (a[i] - r[i]) * (a[i] - r[i]);
        den += r[i] * r[i];
    }
    return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---------------------------------------------------------------------------
// Options, references, results

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string refs_dir, out_dir, commit = "unknown";
    long refs_first = -1, refs_last = -1;
};

using Answer = std::vector<double>;

/// Stored answers for the shipped seeds: refs/<workload>.json maps a seed to
/// the answers of each of its inputs, in input order.
class References {
public:
    References(const std::string& dir, const std::string& workload) {
        const std::string path = dir + "/" + workload + ".json";
        if (!fs::exists(path)) return;
        const JsonValue doc = parse_json_file(path);
        for (const auto& [seed, answers] : doc.at("seeds").object) {
            std::vector<Answer> list;
            for (const JsonValue& a : answers.array) {
                Answer v;
                for (const JsonValue& x : a.array) v.push_back(x.number);
                list.push_back(std::move(v));
            }
            seeds_[std::stoull(seed)] = std::move(list);
        }
    }
    const std::vector<Answer>* find(std::uint64_t seed) const {
        const auto it = seeds_.find(seed);
        return it == seeds_.end() ? nullptr : &it->second;
    }

private:
    std::map<std::uint64_t, std::vector<Answer>> seeds_;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct Result {
    std::vector<Metric> metrics;
    std::size_t attempted = 0, failed = 0;
    double worst_err = 0; ///< largest answer error seen against a reference
    std::vector<std::string> failures;
    std::vector<std::pair<std::string, std::string>> notes;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    void fail(const std::string& why) {
        ++failed;
        if (failures.size() < 20) failures.push_back(why);
    }
    void note(const std::string& key, const std::string& text) {
        notes.emplace_back(key, text);
    }
};

/// Check one answer against its reference.
void check_answer(Result& res, const Answer& got, const Answer& ref,
                  const std::string& what) {
    const double err = rel_diff(got, ref);
    res.worst_err = std::max(res.worst_err, err);
    if (!(err <= kTol)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, " off by %.3g (tol %.0e)", err, kTol);
        res.fail(what + buf);
    }
}

// ---------------------------------------------------------------------------
// Shared pieces of the SSN flow

/// The power-plane shape PlaneModel meshes (ground plane as the reference).
ConductorShape plane_shape(const Board& board) {
    ConductorShape vcc;
    vcc.outline = Polygon::rectangle(0, 0, board.width(), board.height());
    vcc.holes = board.power_plane_cutouts();
    vcc.z = board.stackup().plane_separation;
    vcc.sheet_resistance = board.stackup().sheet_resistance;
    vcc.name = "vcc";
    return vcc;
}

SsnModelOptions model_options(double pitch, std::size_t interior) {
    SsnModelOptions opt;
    opt.mesh_pitch = pitch;
    opt.interior_nodes = interior;
    return opt;
}

/// Worst gnd bounce, Vcc droop and plane noise per driver site.
struct Noise {
    Answer peaks;
    TransientStats stats;
};
Noise simulate_noise(const SsnModel& model) {
    const std::size_t sites = model.netlist().drivers().size();
    std::vector<NodeId> probes;
    for (std::size_t s = 0; s < sites; ++s) {
        probes.push_back(model.die_gnd(s));
        probes.push_back(model.die_vcc(s));
        probes.push_back(model.board_vcc(s));
    }
    const TransientResult r = model.simulate(kDt, kTstop, probes);
    Noise n;
    for (NodeId p : probes) n.peaks.push_back(r.peak_excursion(p));
    n.stats = r.stats;
    return n;
}

/// PlaneModel rebuilt stage by stage through the public PlaneBem and
/// CircuitExtractor calls, one span per stage. Its circuit must equal
/// PlaneModel's bit for bit, so the stage times describe the product path;
/// its dense matrices are also the reference that later matrix-free
/// extraction is held to.
struct Replica {
    std::unique_ptr<PlaneBem> bem;
    EquivalentCircuit circuit;
};
Replica replica_extract(const Board& board, const SsnModelOptions& opt,
                        Tracer& tr) {
    Span all(tr, "si.plane_model");
    Replica rep;
    {
        Span s(tr, "geometry.mesh");
        RectMesh mesh({plane_shape(board)}, opt.mesh_pitch);
        rep.bem = std::make_unique<PlaneBem>(
            std::move(mesh), Greens::homogeneous(board.stackup().eps_r, true),
            BemOptions{opt.testing, 2, 4});
    }
    const PlaneBem& bem = *rep.bem;
    const CircuitExtractor extractor(bem,
                                     ExtractionOptions{opt.prune_rel_tol, true});
    std::vector<std::size_t> keep;
    {
        Span s(tr, "extract.select_nodes");
        std::vector<std::size_t> ports;
        for (const DriverSite& site : board.driver_sites())
            ports.push_back(bem.mesh().nearest_node(site.vcc_pin, 0));
        for (const Decap& d : board.decaps())
            ports.push_back(bem.mesh().nearest_node(d.pos, 0));
        ports.push_back(bem.mesh().nearest_node(board.vrm_location(), 0));
        keep = extractor.select_nodes(ports, opt.interior_nodes);
    }
    { Span s(tr, "em.fill_potential"); bem.potential_matrix(); }
    { Span s(tr, "em.fill_inductance"); bem.inductance_matrix(); }
    { Span s(tr, "em.invert_potential"); bem.maxwell_capacitance(); }
    { Span s(tr, "em.gamma"); bem.gamma(); }
    { Span s(tr, "em.dc_conductance"); bem.dc_conductance(); }
    { Span s(tr, "extract.kron"); rep.circuit = extractor.extract(keep); }
    return rep;
}

Board parse_traced(const std::string& text, Tracer& tr) {
    Span s(tr, "input.parse");
    return parse_board_file(text);
}

/// Bit-for-bit equality of two extracted circuits.
bool same_circuit(const EquivalentCircuit& a, const EquivalentCircuit& b) {
    if (a.has_reference != b.has_reference || a.node_count() != b.node_count() ||
        a.branches.size() != b.branches.size())
        return false;
    for (std::size_t k = 0; k < a.node_count(); ++k)
        if (!same_bits(a.node_cap[k], b.node_cap[k]) ||
            !same_bits(a.node_z[k], b.node_z[k]) ||
            !same_bits(a.node_position[k].x, b.node_position[k].x) ||
            !same_bits(a.node_position[k].y, b.node_position[k].y))
            return false;
    for (std::size_t i = 0; i < a.branches.size(); ++i) {
        const RlcBranch &p = a.branches[i], &q = b.branches[i];
        if (p.m != q.m || p.n != q.n || !same_bits(p.r, q.r) ||
            !same_bits(p.l, q.l) || !same_bits(p.c, q.c))
            return false;
    }
    return true;
}

/// Element values of a circuit as one vector (for the 1e-8 comparison of a
/// product circuit against the dense replica).
Answer circuit_values(const EquivalentCircuit& ec) {
    Answer v(ec.node_cap.begin(), ec.node_cap.end());
    for (const RlcBranch& b : ec.branches) {
        v.push_back(b.r);
        v.push_back(b.l * 1e9);
        v.push_back(b.c * 1e12);
    }
    return v;
}

// ---------------------------------------------------------------------------
// Per-layer bookkeeping of a traced run

struct LayerSamples {
    std::map<std::string, std::vector<double>> values;
    void add(const std::string& name, double v) { values[name].push_back(v); }
    double med(const std::string& name) const {
        const auto it = values.find(name);
        return it == values.end() ? 0.0 : median(it->second);
    }
};

/// Process CPU seconds (user + system, every thread).
double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// One traced request at the current pool size: run `body` under run id
/// `run` and fold its spans' self times and pool counters into `layers`.
/// Pool busy time is process CPU time over wall x threads: the library's
/// own per-slot accounting (obs resources) would slow small parallel_for
/// calls and distort the spans.
double traced_request(Tracer& tr, int run, LayerSamples& layers,
                      const std::function<void()>& body) {
    tr.set_run(run);
    par::reset_pool_stats();
    const double cpu0 = cpu_seconds();
    {
        Span root(tr, "request");
        body();
    }
    const double cpu = cpu_seconds() - cpu0;
    const double wall = tr.root_seconds(run);
    layers.add("par.busy_frac",
               wall > 0 ? cpu / (wall * static_cast<double>(par::thread_count()))
                        : 0.0);
    layers.add("par.jobs", static_cast<double>(par::pool_stats().jobs));
    const std::map<std::string, double> self = tr.self_seconds(run);
    for (const auto& [name, secs] : self) layers.add(name + "_s", secs);
    layers.add("trace.unattributed_frac",
               wall > 0 ? self.at("request") / wall : 0.0);
    layers.add("trace.request_s", wall);
    return wall;
}

double gemm_gflops(std::size_t threads) {
    par::set_thread_count(threads);
    Rng rng(42);
    MatrixD a(kGemmN, kGemmN), b(kGemmN, kGemmN);
    for (std::size_t i = 0; i < kGemmN; ++i)
        for (std::size_t j = 0; j < kGemmN; ++j) {
            a(i, j) = rng.uniform(-1, 1);
            b(i, j) = rng.uniform(-1, 1);
        }
    std::vector<double> t;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        const MatrixD c = a * b;
        t.push_back(since(t0));
        if (!std::isfinite(c(0, 0))) throw std::runtime_error("gemm: non-finite");
    }
    par::set_thread_count(kThreads);
    const double n = static_cast<double>(kGemmN);
    return 2.0 * n * n * n / median(t) * 1e-9;
}

double lu_gflops(std::size_t threads) {
    par::set_thread_count(threads);
    Rng rng(43);
    MatrixD a(kLuN, kLuN);
    for (std::size_t i = 0; i < kLuN; ++i) {
        for (std::size_t j = 0; j < kLuN; ++j) a(i, j) = rng.uniform(-1, 1);
        a(i, i) += static_cast<double>(kLuN);
    }
    std::vector<double> t;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        const Lu<double> lu(a);
        t.push_back(since(t0));
    }
    par::set_thread_count(kThreads);
    const double n = static_cast<double>(kLuN);
    return 2.0 / 3.0 * n * n * n / median(t) * 1e-9;
}

/// Median wall of one L apply plus one Ppot apply on the zsweep plane.
double matvec_us(std::uint64_t seed) {
    const Board board = parse_board_file(demo_board_text(seed, 3));
    const PlaneBem bem(RectMesh({plane_shape(board)}, kSweepPitch),
                       Greens::homogeneous(board.stackup().eps_r, true));
    const InteractionOperator& lop = bem.inductance_operator();
    const InteractionOperator& pop = bem.potential_operator();
    VectorC xl(lop.size(), Complex(1.0, 0.5)), xp(pop.size(), Complex(1.0, -0.5));
    VectorC yl, yp;
    lop.apply(xl, yl);
    pop.apply(xp, yp);
    std::vector<double> t;
    for (int rep = 0; rep < 25; ++rep) {
        const auto t0 = Clock::now();
        lop.apply(xl, yl);
        pop.apply(xp, yp);
        t.push_back(since(t0) * 1e6);
    }
    return median(t);
}

/// The metric names every traced run prints, with units, in BENCHMARK.json
/// order. Layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"input.parse_s", "s"},
        {"geometry.mesh_s", "s"},
        {"em.fill_potential_s", "s"},
        {"em.fill_inductance_s", "s"},
        {"em.invert_potential_s", "s"},
        {"em.gamma_s", "s"},
        {"em.dc_conductance_s", "s"},
        {"em.bem_cache_entries", "count"},
        {"extract.select_nodes_s", "s"},
        {"extract.kron_s", "s"},
        {"extract.branches", "count"},
        {"si.plane_model_s", "s"},
        {"si.ssn_model_s", "s"},
        {"circuit.transient_s", "s"},
        {"circuit.mna_n", "count"},
        {"circuit.steps", "count"},
        {"circuit.lu_factorizations", "count"},
        {"circuit.lu_solves", "count"},
        {"circuit.step_rejections", "count"},
        {"em.operator_build_s", "s"},
        {"em.solver_setup_s", "s"},
        {"em.sweep_s", "s"},
        {"em.gmres_iterations", "count"},
        {"em.matvecs", "count"},
        {"em.restarts", "count"},
        {"em.warm_starts", "count"},
        {"em.recycle_hits", "count"},
        {"em.dense_fallbacks", "count"},
        {"em.precond_escalations", "count"},
        {"em.matvec_us", "us"},
        {"numeric.gemm_gflops_1t", "GFLOP/s"},
        {"numeric.gemm_gflops_nt", "GFLOP/s"},
        {"numeric.lu_gflops_1t", "GFLOP/s"},
        {"numeric.lu_gflops_nt", "GFLOP/s"},
        {"serve.specs_s", "s"},
        {"serve.campaign_s", "s"},
        {"serve.cache_hit_rate", "frac"},
        {"serve.hit_job_s", "s"},
        {"serve.miss_job_s", "s"},
        {"serve.critical_path_s", "s"},
        {"serve.retries", "count"},
        {"bench.check_s", "s"},
        {"par.busy_frac", "frac"},
        {"par.jobs", "count"},
        {"par.speedup", "ratio"},
        {"trace.overhead_frac", "frac"},
        {"trace.unattributed_frac", "frac"},
        {"trace.request_s", "s"},
        {"trace.setup_s", "s"},
    };
    return names;
}

// ---------------------------------------------------------------------------
// Workload drivers. Each supplies its inputs, an untraced request, a traced
// request, and the reference path for seeds without stored answers.

struct Workload {
    virtual ~Workload() = default;
    /// Build the model the measured loop uses. `traced` runs also build
    /// what the traced request compares against.
    virtual void setup(bool traced) = 0;
    /// Whether attempts count the jobs inside a request (batch) rather than
    /// the requests themselves.
    virtual bool counts_jobs() const { return false; }
    /// Number of distinct inputs (answers per seed in the refs file).
    virtual std::size_t inputs() const = 0;
    /// One untraced request on input `k`: checks its answer and returns the
    /// number of jobs it completed. Latencies of sub-jobs, when the request
    /// has them, go to `job_latencies`.
    virtual std::size_t request(std::size_t k, Result& res,
                                std::vector<double>& job_latencies) = 0;
    /// One span-wrapped request (same work as request()), adding per-layer
    /// counts to `layers`.
    virtual void traced(std::size_t k, Tracer& tr, Result& res,
                        LayerSamples& layers) = 0;
    /// Answers of every input computed through the reference path.
    virtual std::vector<Answer> reference() = 0;
    /// Checks of the reference path that need no stored answers; called
    /// after the measured loop when the seed has no stored answers.
    virtual void check_without_refs(Result& res) = 0;

    /// Stored answers for this seed, or null (answers then collect in
    /// `pending` and are compared against reference() after the loop).
    const std::vector<Answer>* refs = nullptr;
    std::vector<std::pair<std::size_t, Answer>> pending;
    /// Seconds of every model build, from setup() and from requests that
    /// build their own.
    std::vector<double> setups;

    void verify(std::size_t k, const Answer& got, Result& res,
                const std::string& what) {
        if (refs != nullptr)
            check_answer(res, got, refs->at(k), what);
        else
            pending.emplace_back(k, got);
    }
};

/// The traced ssn_* request on input k: parse, replica extraction, SsnModel
/// on the product model (whose circuit the replica must reproduce) with an
/// optional decap subset, transient, check.
void traced_ssn_flow(const std::string& text, Workload& w,
                     const std::shared_ptr<const PlaneModel>& plane,
                     const std::vector<std::size_t>* subset, std::size_t k,
                     Tracer& tr, Result& res, LayerSamples& layers) {
    const Board board = parse_traced(text, tr);
    const Replica rep = replica_extract(board, plane->options(), tr);
    std::unique_ptr<SsnModel> model;
    {
        Span s(tr, "si.ssn_model");
        model = subset ? std::make_unique<SsnModel>(plane, *subset)
                       : std::make_unique<SsnModel>(plane);
    }
    Noise n;
    {
        Span s(tr, "circuit.transient");
        n = simulate_noise(*model);
    }
    {
        Span s(tr, "bench.check");
        if (!same_circuit(rep.circuit, plane->circuit()))
            res.fail("stage replica circuit differs from PlaneModel's");
        w.verify(k, n.peaks, res, "traced noise");
    }
    layers.add("em.bem_cache_entries",
               static_cast<double>(rep.bem->stats().cache_entries));
    layers.add("extract.branches",
               static_cast<double>(rep.circuit.branches.size()));
    layers.add("circuit.mna_n",
               static_cast<double>(MnaLayout(model->netlist()).dim()));
    layers.add("circuit.steps", static_cast<double>(n.stats.steps));
    layers.add("circuit.lu_factorizations",
               static_cast<double>(n.stats.lu_factorizations));
    layers.add("circuit.lu_solves", static_cast<double>(n.stats.lu_solves));
    layers.add("circuit.step_rejections",
               static_cast<double>(n.stats.step_rejections));
}

/// Without stored answers the product circuit is held to the dense
/// stage-by-stage reference.
void check_replica(const std::string& text, const SsnModelOptions& opt,
                   const PlaneModel& plane, Result& res) {
    Tracer off;
    const Replica rep = replica_extract(parse_board_file(text), opt, off);
    const double err =
        rel_diff(circuit_values(plane.circuit()), circuit_values(rep.circuit));
    if (!(err <= kTol)) res.fail("product circuit differs from dense replica");
}

// ssn_extract: the §4 dense extraction path, one full flow per request.
struct SsnExtract : Workload {
    std::string text;
    SsnModelOptions opt = model_options(kExtractPitch, kExtractInterior);
    std::shared_ptr<const PlaneModel> plane; // product model of the last request

    explicit SsnExtract(std::uint64_t seed) : text(demo_board_text(seed, 3)) {}

    void setup(bool traced) override {
        if (traced) plane = std::make_shared<PlaneModel>(parse_board_file(text), opt);
    }
    std::size_t inputs() const override { return 1; }

    std::size_t request(std::size_t, Result& res,
                        std::vector<double>&) override {
        const Board board = parse_board_file(text);
        plane.reset(); // peak RSS should hold one model, not two
        const auto t0 = Clock::now();
        plane = std::make_shared<PlaneModel>(board, opt);
        setups.push_back(since(t0));
        const SsnModel model(plane);
        verify(0, simulate_noise(model).peaks, res, "ssn_extract noise");
        return 1;
    }

    void traced(std::size_t, Tracer& tr, Result& res,
                LayerSamples& layers) override {
        traced_ssn_flow(text, *this, plane, nullptr, 0, tr, res, layers);
    }

    std::vector<Answer> reference() override {
        if (!plane) plane = std::make_shared<PlaneModel>(parse_board_file(text), opt);
        return {simulate_noise(SsnModel(plane)).peaks};
    }

    void check_without_refs(Result& res) override {
        check_replica(text, opt, *plane, res);
    }

};

// ssn_transient: the §5 circuit layer on one extracted 200-node model.
struct SsnTransient : Workload {
    std::string text;
    SsnModelOptions opt = model_options(kTransientPitch, kTransientInterior);
    std::vector<std::vector<std::size_t>> subsets;
    std::shared_ptr<const PlaneModel> plane;

    explicit SsnTransient(std::uint64_t seed)
        : text(demo_board_text(kTransientBoard, kTransientDecaps)),
          subsets(decap_subsets(seed, kTransientDecaps, kTransientActive,
                                kTransientSubsets)) {}

    void setup(bool) override {
        for (std::size_t i = 0; i < kModelBuilds; ++i) {
            plane.reset();
            const auto t0 = Clock::now();
            plane = std::make_shared<PlaneModel>(parse_board_file(text), opt);
            setups.push_back(since(t0));
        }
    }
    std::size_t inputs() const override { return subsets.size(); }

    std::size_t request(std::size_t k, Result& res,
                        std::vector<double>&) override {
        const SsnModel model(plane, subsets[k]);
        verify(k, simulate_noise(model).peaks, res, "ssn_transient noise");
        return 1;
    }

    void traced(std::size_t k, Tracer& tr, Result& res,
                LayerSamples& layers) override {
        traced_ssn_flow(text, *this, plane, &subsets[k], k, tr, res, layers);
    }

    std::vector<Answer> reference() override {
        if (!plane) setup(false);
        std::vector<Answer> out;
        for (const auto& s : subsets)
            out.push_back(simulate_noise(SsnModel(plane, s)).peaks);
        return out;
    }

    void check_without_refs(Result& res) override {
        check_replica(text, opt, *plane, res);
    }
};

// zsweep: Toeplitz operators + block GMRES + near-field tiles, no extraction.
struct ZSweep : Workload {
    std::string text;
    VectorD freqs;
    std::unique_ptr<PlaneBem> bem; // of the last request
    std::vector<std::size_t> ports;

    explicit ZSweep(std::uint64_t seed)
        : text(demo_board_text(seed, 3)),
          freqs(log_grid(seed, 10e6, 3e9, kSweepPoints)) {}

    /// One build takes 2-3 ms, where single timings are dominated by pool
    /// wake-up latency, so each set-up sample is the mean over a block of
    /// back-to-back builds. Requests build too but are not counted.
    void setup(bool) override {
        Tracer off;
        for (std::size_t b = 0; b < kOperatorBlocks; ++b) {
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < kBlockBuilds; ++i) build(off);
            setups.push_back(since(t0) / static_cast<double>(kBlockBuilds));
        }
    }
    std::size_t inputs() const override { return 1; }

    static Answer flatten(const std::vector<MatrixC>& z) {
        Answer v;
        for (const MatrixC& m : z)
            for (std::size_t r = 0; r < m.rows(); ++r)
                for (std::size_t c = 0; c < m.cols(); ++c) {
                    v.push_back(m(r, c).real());
                    v.push_back(m(r, c).imag());
                }
        return v;
    }

    /// Parse, mesh, and build the matrix-free operators: everything a
    /// request does before the solver.
    SurfaceImpedance build(Tracer& tr) {
        const Board board = parse_traced(text, tr);
        {
            Span s(tr, "geometry.mesh");
            bem = std::make_unique<PlaneBem>(
                RectMesh({plane_shape(board)}, kSweepPitch),
                Greens::homogeneous(board.stackup().eps_r, true));
        }
        ports.clear();
        for (const DriverSite& site : board.driver_sites())
            ports.push_back(bem->mesh().nearest_node_any(site.vcc_pin));
        {
            Span s(tr, "em.operator_build");
            bem->potential_operator();
            bem->inductance_operator();
        }
        return SurfaceImpedance::from_sheet_resistance(
            board.stackup().sheet_resistance);
    }

    std::size_t request(std::size_t, Result& res,
                        std::vector<double>&) override {
        Tracer off;
        const SurfaceImpedance zs = build(off);
        const auto solver = make_solver(*bem, zs);
        verify(0, flatten(solver->sweep_impedance(freqs, ports)), res,
               "zsweep Z(f)");
        return 1;
    }

    void traced(std::size_t, Tracer& tr, Result& res,
                LayerSamples& layers) override {
        const SurfaceImpedance zs = build(tr);
        std::unique_ptr<PlaneSolver> solver;
        {
            Span s(tr, "em.solver_setup");
            solver = make_solver(*bem, zs);
        }
        std::vector<MatrixC> z;
        {
            Span s(tr, "em.sweep");
            z = solver->sweep_impedance(freqs, ports);
        }
        {
            Span s(tr, "bench.check");
            verify(0, flatten(z), res, "traced Z(f)");
        }
        layers.add("em.bem_cache_entries",
                   static_cast<double>(bem->stats().cache_entries));
        if (const auto* it = dynamic_cast<const IterativeSolver*>(solver.get())) {
            const IterativeSolverStats& st = it->stats();
            layers.add("em.gmres_iterations", static_cast<double>(st.iterations));
            layers.add("em.matvecs", static_cast<double>(st.matvecs));
            layers.add("em.restarts", static_cast<double>(st.restarts));
            layers.add("em.warm_starts", static_cast<double>(st.warm_starts));
            layers.add("em.recycle_hits", static_cast<double>(st.recycle_hits));
            layers.add("em.dense_fallbacks",
                       static_cast<double>(st.dense_fallbacks));
            layers.add("em.precond_escalations",
                       static_cast<double>(st.precond_escalations));
        }
    }

    std::vector<Answer> reference() override {
        Tracer off;
        const SurfaceImpedance zs = build(off);
        const DirectSolver direct(*bem, zs);
        return {flatten(direct.sweep_impedance(freqs, ports))};
    }

    void check_without_refs(Result&) override {}
};

/// Peak excursion from DC at every probe of a transient job (its default
/// probes: each die and board supply node and each driver output).
Answer excursions(const TransientResult& tr) {
    Answer v;
    for (NodeId node : tr.probes) v.push_back(tr.peak_excursion(node));
    return v;
}

// batch: the serve layer — cache hits beside misses, single-flight builds
// and the fsync'd journal.
struct Batch : Workload {
    BatchInputs in;
    std::string tmp_root;
    std::vector<std::shared_ptr<const PlaneModel>> models; // direct builds
    std::vector<std::optional<std::uint64_t>> digests;     // per spec
    int campaigns = 0;

    Batch(std::uint64_t seed, const std::string& out_dir)
        : in(batch_inputs(seed, kBatchVariants, kBatchJobs, kBatchPitch)),
          tmp_root(out_dir + "/tmp"),
          digests(in.specs.size()) {}

    void setup(bool) override {
        for (std::size_t round = 0; round < kBatchSetupRounds; ++round) {
            models.clear();
            for (const std::string& b : in.boards) {
                const auto t0 = Clock::now();
                models.push_back(std::make_shared<PlaneModel>(
                    parse_board_file(b), in.specs.front().model));
                setups.push_back(since(t0));
            }
        }
    }
    std::size_t inputs() const override { return in.specs.size(); }
    bool counts_jobs() const override { return true; }

    std::vector<serve::JobSpec> jobs() const {
        std::vector<serve::JobSpec> jobs;
        for (std::size_t j = 0; j < in.job_spec.size(); ++j) {
            serve::JobSpec s = in.specs[in.job_spec[j]];
            char id[32];
            std::snprintf(id, sizeof id, "j%03zu", j);
            s.id = id;
            jobs.push_back(std::move(s));
        }
        return jobs;
    }

    serve::BatchResult campaign(const std::vector<serve::JobSpec>& specs) {
        const fs::path dir =
            fs::path(tmp_root) / ("campaign-" + std::to_string(getpid()) + "-" +
                                  std::to_string(campaigns++));
        fs::create_directories(dir);
        serve::ModelCache cache;
        serve::BatchOptions bo;
        bo.cache = &cache;
        bo.journal_path = (dir / "journal.jsonl").string();
        serve::JobQueue queue(bo);
        serve::BatchResult r = queue.run(specs);
        fs::remove_all(dir);
        return r;
    }

    /// Every job completed, matches its reference, and is bit-identical to
    /// every other job of the same spec (cache hit or miss alike).
    void check(const serve::BatchResult& r, Result& res) {
        for (std::size_t j = 0; j < r.reports.size(); ++j) {
            const serve::JobReport& rep = r.reports[j];
            ++res.attempted;
            const std::size_t k = in.job_spec[j];
            if (rep.state != serve::JobState::Completed) {
                res.fail("job " + rep.id + " ended " + serve::to_string(rep.state) +
                         ": " + rep.error);
                continue;
            }
            if (!digests[k]) digests[k] = rep.digest;
            if (rep.digest != digests[k]) {
                res.fail("job " + rep.id + " digest differs from its spec's");
                continue;
            }
            verify(k, excursions(rep.transient), res, "job " + rep.id);
        }
    }

    std::size_t request(std::size_t, Result& res,
                        std::vector<double>& job_latencies) override {
        const serve::BatchResult r = campaign(jobs());
        for (const serve::JobReport& rep : r.reports)
            job_latencies.push_back(rep.wall_seconds);
        check(r, res);
        return r.reports.size();
    }

    void traced(std::size_t, Tracer& tr, Result& res,
                LayerSamples& layers) override {
        std::vector<serve::JobSpec> specs;
        {
            Span s(tr, "serve.specs");
            specs = jobs();
        }
        serve::BatchResult r;
        {
            Span s(tr, "serve.campaign");
            r = campaign(specs);
        }
        {
            Span s(tr, "bench.check");
            check(r, res);
        }
        std::vector<double> hit, miss;
        double worst = 0;
        TransientStats sum;
        for (const serve::JobReport& rep : r.reports) {
            (rep.cache_hit ? hit : miss).push_back(rep.wall_seconds);
            worst = std::max(worst, rep.wall_seconds);
            sum.steps += rep.transient.stats.steps;
            sum.lu_factorizations += rep.transient.stats.lu_factorizations;
            sum.lu_solves += rep.transient.stats.lu_solves;
            sum.step_rejections += rep.transient.stats.step_rejections;
        }
        const double total =
            static_cast<double>(r.stats.cache_hits + r.stats.cache_misses);
        layers.add("serve.cache_hit_rate",
                   total > 0 ? static_cast<double>(r.stats.cache_hits) / total : 0);
        layers.add("serve.hit_job_s", median(hit));
        layers.add("serve.miss_job_s", median(miss));
        layers.add("serve.critical_path_s", worst);
        layers.add("serve.retries", static_cast<double>(r.stats.retries));
        layers.add("circuit.steps", static_cast<double>(sum.steps));
        layers.add("circuit.lu_factorizations",
                   static_cast<double>(sum.lu_factorizations));
        layers.add("circuit.lu_solves", static_cast<double>(sum.lu_solves));
        layers.add("circuit.step_rejections",
                   static_cast<double>(sum.step_rejections));
    }

    /// The same transients solved directly (PlaneModel + SsnModel, no
    /// serve layer): the campaign may not change any answer.
    std::vector<Answer> reference() override {
        if (models.empty()) setup(false);
        std::vector<Answer> out;
        for (std::size_t k = 0; k < in.specs.size(); ++k) {
            const serve::JobSpec& s = in.specs[k];
            const SsnModel model(models[k / (in.specs.size() / in.boards.size())]);
            out.push_back(excursions(model.simulate(s.dt, s.tstop)));
        }
        return out;
    }

    void check_without_refs(Result&) override {}
};

std::unique_ptr<Workload> make_workload(const Options& o) {
    if (o.workload == "ssn_extract") return std::make_unique<SsnExtract>(o.seed);
    if (o.workload == "ssn_transient") return std::make_unique<SsnTransient>(o.seed);
    if (o.workload == "zsweep") return std::make_unique<ZSweep>(o.seed);
    if (o.workload == "batch") return std::make_unique<Batch>(o.seed, o.out_dir);
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

/// Run one request, counting it as an attempt (batch counts its jobs
/// instead) and anything it throws as a failure.
template <class F>
void attempt(Workload& w, Result& res, const char* what, F&& request) {
    if (!w.counts_jobs()) ++res.attempted;
    try {
        request();
    } catch (const std::exception& e) {
        if (w.counts_jobs()) ++res.attempted;
        res.fail(std::string(what) + " threw: " + e.what());
    }
}

/// Compare the answers collected during the loop with the reference path,
/// and run the checks that need no stored answers. Untimed, so it runs at
/// kParallelThreads to keep the run short.
void settle_pending(Workload& w, Result& res) {
    if (w.refs != nullptr) return;
    par::set_thread_count(kParallelThreads);
    const std::vector<Answer> ref = w.reference();
    w.check_without_refs(res);
    for (const auto& [k, got] : w.pending)
        check_answer(res, got, ref.at(k), "answer vs untimed reference");
    w.pending.clear();
    par::set_thread_count(kThreads);
}

// ---------------------------------------------------------------------------
// Runs

void run_untraced(const Options& o, Workload& w, Result& res) {
    w.setup(false);
    std::vector<double> latencies, job_latencies;
    std::size_t jobs = 0;
    double busy = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i == 0 || since(start) < o.seconds; ++i) {
        std::size_t done = 0;
        std::vector<double> sub;
        const auto t0 = Clock::now();
        attempt(w, res, "request",
                [&] { done = w.request(i % w.inputs(), res, sub); });
        if (done == 0) continue;
        const double t = since(t0);
        latencies.push_back(t);
        busy += t;
        jobs += done;
        if (sub.empty())
            job_latencies.push_back(t);
        else
            job_latencies.insert(job_latencies.end(), sub.begin(), sub.end());
    }
    const double rss_mb = static_cast<double>(obs::peak_rss_bytes()) / 1048576.0;
    const double setup = median(w.setups); // before reference builds add to it
    settle_pending(w, res);

    res.add("time_to_answer_s", median(latencies), "s");
    res.add("setup_s", setup, "s");
    res.add("jobs_per_s", busy > 0 ? static_cast<double>(jobs) / busy : 0, "1/s");
    res.add("job_p50_s", quantile(job_latencies, 0.5), "s");
    res.add("job_p90_s", quantile(job_latencies, 0.9), "s");
    res.add("peak_rss_mb", rss_mb, "MB");
    std::string lat;
    for (double t : latencies) lat += (lat.empty() ? "" : " ") + num(t);
    res.note("request_latencies_s", lat);
    res.note("jobs", std::to_string(jobs));
    std::string su;
    for (double t : w.setups) su += (su.empty() ? "" : " ") + num(t);
    res.note("setup_samples_s", su);
}

/// zsweep is not among the workloads BENCHMARK.json runs (see README.md,
/// "Steadiness"), so every other traced run measures one zsweep request
/// standalone, checked like the workload's own, to keep the iterative em
/// layers measured.
void standalone_sweep(const Options& o, Tracer& tr, Result& res,
                      LayerSamples& layers) {
    ZSweep z(o.seed);
    const References refs(o.refs_dir, "zsweep");
    z.refs = refs.find(o.seed);
    LayerSamples sweep;
    attempt(z, res, "standalone Z(f) sweep", [&] {
        traced_request(tr, 2000, sweep, [&] { z.traced(0, tr, res, sweep); });
    });
    settle_pending(z, res);
    for (const char* name :
         {"em.operator_build_s", "em.solver_setup_s", "em.sweep_s",
          "em.gmres_iterations", "em.matvecs", "em.restarts", "em.warm_starts",
          "em.recycle_hits", "em.dense_fallbacks", "em.precond_escalations"})
        layers.add(name, sweep.med(name));
}

void run_traced(const Options& o, Workload& w, Result& res) {
    Tracer tr;
    LayerSamples layers;
    w.setup(true);

    tr.set_enabled(true);
    std::vector<double> walls;
    int run = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i == 0 || since(start) < o.seconds; ++i) {
        attempt(w, res, "traced request", [&] {
            walls.push_back(traced_request(tr, ++run, layers, [&] {
                w.traced(i % w.inputs(), tr, res, layers);
            }));
        });
    }

    // One traced request at kParallelThreads, for the speedup.
    LayerSamples parallel;
    par::set_thread_count(kParallelThreads);
    double wall_p = 0;
    attempt(w, res, "parallel traced request", [&] {
        wall_p = traced_request(tr, 1000, parallel,
                                [&] { w.traced(0, tr, res, parallel); });
    });
    par::set_thread_count(kThreads);

    if (o.workload != "zsweep") standalone_sweep(o, tr, res, layers);

    // The same request untraced, for the tracing overhead.
    tr.set_enabled(false);
    Tracer off;
    LayerSamples scratch;
    double untraced = 0;
    attempt(w, res, "untraced request", [&] {
        const auto t0 = Clock::now();
        w.traced(0, off, res, scratch);
        untraced = since(t0);
    });
    settle_pending(w, res);

    layers.add("numeric.gemm_gflops_1t", gemm_gflops(1));
    layers.add("numeric.gemm_gflops_nt", gemm_gflops(kParallelThreads));
    layers.add("numeric.lu_gflops_1t", lu_gflops(1));
    layers.add("numeric.lu_gflops_nt", lu_gflops(kParallelThreads));
    layers.add("em.matvec_us", matvec_us(o.seed));
    const double wall = median(walls);
    layers.add("par.speedup", wall_p > 0 ? wall / wall_p : 0);
    layers.add("trace.overhead_frac",
               untraced > 0 ? wall / untraced - 1.0 : 0);
    // Inclusive set-up span: the model build (ssn_*) or operator build.
    std::vector<double> setup_incl;
    for (int r = 1; r <= run; ++r) {
        double s = 0;
        for (const SpanRecord& sp : tr.spans())
            if (sp.run == r &&
                (sp.name == "si.plane_model" || sp.name == "em.operator_build"))
                s += sp.end_s - sp.start_s;
        setup_incl.push_back(s);
    }
    layers.add("trace.setup_s", median(setup_incl));

    for (const auto& [name, unit] : per_layer_names())
        res.add(name, layers.med(name), unit);

    char buf[160];
    std::snprintf(buf, sizeof buf, "%.4f", parallel.med("trace.request_s"));
    res.note("parallel_request_s", buf);
    std::string lat;
    for (double t : walls) lat += (lat.empty() ? "" : " ") + num(t);
    res.note("traced_request_s", lat);
    res.note("flops",
             "computed, not counted: GEMM 2n^3 at n=" + std::to_string(kGemmN) +
                 ", LU 2n^3/3 at n=" + std::to_string(kLuN) +
                 "; median of 3 timed calls");
    const double setup = layers.med("trace.setup_s");
    if (setup > 0) {
        std::snprintf(buf, sizeof buf, "%.4f",
                      (layers.med("em.gamma_s") + layers.med("em.invert_potential_s")) /
                          setup);
        res.note("isolation.gamma_invert_share_of_setup", buf);
    }
    std::snprintf(buf, sizeof buf, "%.4f",
                  wall > 0 ? layers.med("circuit.transient_s") / wall : 0);
    res.note("isolation.transient_share_of_request", buf);

    fs::create_directories(o.out_dir + "/traces");
    const std::string path = o.out_dir + "/traces/" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".trace.json";
    tr.write_chrome_trace(path);
    res.note("chrome_trace", path);
}

// ---------------------------------------------------------------------------
// Records and output

std::string cpu_field(const char* key) {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0) {
            const auto c = line.find(':');
            return c == std::string::npos ? "" : line.substr(c + 2);
        }
    return "unknown";
}

std::string json_str(const std::string& s) {
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            o += ' ';
            continue;
        }
        o += c;
    }
    return o + "\"";
}

std::string metrics_json(const Result& res) {
    std::string s = "{";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric& m = res.metrics[i];
        s += (i ? ", " : "") + json_str(m.name) + ": {\"value\": " + num(m.value) +
             ", \"unit\": " + json_str(m.unit) + "}";
    }
    return s + "}";
}

void write_record(const Options& o, const Result& res, bool correct) {
    fs::create_directories(o.out_dir + "/records");
    const std::string path = o.out_dir + "/records/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
    std::ofstream f(path);
    f << "{\"schema\": \"perfbench.record/1\",\n"
      << " \"workload\": " << json_str(o.workload) << ", \"seed\": " << o.seed
      << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"seconds\": " << num(o.seconds)
      << ",\n \"threads\": " << kThreads
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\n \"cpu_model\": " << json_str(cpu_field("model name"))
      << ",\n \"cpu_flags\": " << json_str(cpu_field("flags"))
      << ",\n \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_str(PERFBENCH_COMPILER " " __VERSION__)
      << ", \"commit\": " << json_str(o.commit)
      << ",\n \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
      << ",\n \"failures\": [";
    for (std::size_t i = 0; i < res.failures.size(); ++i)
        f << (i ? ", " : "") << json_str(res.failures[i]);
    f << "],\n \"notes\": {";
    for (std::size_t i = 0; i < res.notes.size(); ++i)
        f << (i ? ", " : "") << json_str(res.notes[i].first) << ": "
          << json_str(res.notes[i].second);
    f << "},\n \"metrics\": " << metrics_json(res) << "}\n";
}

void make_refs(const Options& o) {
    std::ostringstream out;
    out << "{\"workload\": " << json_str(o.workload) << ", \"tolerance\": " << kTol
        << ",\n \"source\": \"reference path of perfbench (make-refs)\",\n"
        << " \"seeds\": {";
    par::set_thread_count(kParallelThreads); // untimed; answers do not depend on it
    for (long s = o.refs_first; s <= o.refs_last; ++s) {
        Options os = o;
        os.seed = static_cast<std::uint64_t>(s);
        const std::unique_ptr<Workload> w = make_workload(os);
        const std::vector<Answer> ans = w->reference();
        out << (s == o.refs_first ? "\n  " : ",\n  ") << json_str(std::to_string(s))
            << ": [";
        for (std::size_t k = 0; k < ans.size(); ++k) {
            out << (k ? ", " : "") << "[";
            for (std::size_t i = 0; i < ans[k].size(); ++i)
                out << (i ? ", " : "") << num(ans[k][i]);
            out << "]";
        }
        out << "]";
        std::fprintf(stderr, "refs: %s seed %ld done\n", o.workload.c_str(), s);
    }
    out << "\n}}\n";
    std::ofstream(o.refs_dir + "/" + o.workload + ".json") << out.str();
}

Options parse_args(int argc, char** argv) {
    Options o;
    auto need = [&](int i) {
        if (i + 1 >= argc)
            throw std::invalid_argument(std::string("missing value for ") + argv[i]);
        return std::string(argv[i + 1]);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload") o.workload = need(i++);
        else if (a == "--seed") o.seed = std::stoull(need(i++));
        else if (a == "--seconds") o.seconds = std::stod(need(i++));
        else if (a == "--trace") o.trace = need(i++) == "1";
        else if (a == "--refs") o.refs_dir = need(i++);
        else if (a == "--out") o.out_dir = need(i++);
        else if (a == "--commit") o.commit = need(i++);
        else if (a == "--make-refs") {
            o.refs_first = std::stol(need(i++));
            o.refs_last = std::stol(need(i++));
        } else
            throw std::invalid_argument("unknown option " + a);
    }
    if (o.workload.empty() || o.refs_dir.empty())
        throw std::invalid_argument("--workload and --refs are required");
    if (o.refs_first < 0 && o.out_dir.empty())
        throw std::invalid_argument("--out is required");
    if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    return o;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options o;
    try {
        o = parse_args(argc, argv);
        if (o.refs_first >= 0) {
            make_refs(o);
            return 0;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    par::set_thread_count(kThreads);
    Result res;
    try {
        const References refs(o.refs_dir, o.workload);
        const std::unique_ptr<Workload> w = make_workload(o);
        w->refs = refs.find(o.seed);
        res.note("references", w->refs ? "stored" : "computed untimed");
        if (o.trace)
            run_traced(o, *w, res);
        else
            run_untraced(o, *w, res);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    const bool correct = res.failed == 0 && res.attempted > 0;
    res.note("worst_answer_rel_err", num(res.worst_err));
    write_record(o, res, correct);
    for (const std::string& f : res.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    for (const auto& [k, v] : res.notes)
        std::fprintf(stderr, "perfbench: %s = %s\n", k.c_str(), v.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", res.attempted, res.failed,
                metrics_json(res).c_str());
    return 0;
}
