// Campaign runner of the property-based verification harness.
//
// A campaign is `iterations` independent scenario draws from a seeded stream;
// each iteration generates a plane scenario and/or a netlist scenario and
// runs every invariant of the selected suites against it. Failures are
// optionally shrunk to a minimal scenario and emitted as tests/-ready repro
// files. The whole run is wired into pgsi::obs: per-invariant counters and a
// trace span per iteration make long fuzz campaigns observable with the same
// --profile / --trace-json machinery as every other tool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/invariants.hpp"
#include "verify/scenario.hpp"

namespace pgsi::verify {

/// Check suites, selectable from the CLI by name.
enum class Suite {
    Reciprocity,  ///< Z-matrix symmetry
    Passivity,    ///< positive-real port impedance
    Limits,       ///< DC capacitive / resistive asymptotes
    Backends,     ///< cached assembly, iterative solver, cavity and
                  ///< dense-reference transient cross-checks
    Energy,       ///< transient energy balance, without and with drivers
    Recovery      ///< fault-injected runs reproduce the golden
};

/// All suites, in canonical order.
const std::vector<Suite>& all_suites();
const char* suite_name(Suite s);
/// Parse "all" or a comma-separated subset ("reciprocity,backends").
/// Throws InvalidArgument on an unknown name.
std::vector<Suite> parse_suites(const std::string& csv);

struct VerifyOptions {
    std::uint64_t seed = 1;
    int iterations = 100;
    std::vector<Suite> suites;  ///< empty = all
    bool shrink = false;        ///< minimize failures and emit repro files
    std::string failure_dir = "verify_failures";
    ToleranceLadder tol;
};

/// Aggregate per-invariant statistics of a campaign.
struct InvariantStats {
    std::string invariant;
    std::string suite;
    std::size_t checks = 0;    ///< runs that applied (skips excluded)
    std::size_t skips = 0;
    std::size_t failures = 0;
    double tolerance = 0;
    double worst_error = 0;    ///< largest observed metric
};

/// One recorded failure.
struct FailureRecord {
    std::string invariant;
    std::string suite;
    std::uint64_t seed = 0;
    int iteration = 0;
    double error = 0;
    double tolerance = 0;
    std::string detail;
    std::string scenario;         ///< describe() of the failing scenario
    std::string shrunk_scenario;  ///< describe() after shrinking (if enabled)
    std::string repro_cpp;        ///< emitted file paths (if enabled)
    std::string repro_board;
};

/// Campaign-scoped view of one process-wide solver counter. The campaign
/// snapshots each tracked counter when it starts and after every iteration,
/// so the manifest records the work *this* campaign did — not whatever the
/// process accumulated before it (a tool-level --profile, an earlier
/// campaign in the same test binary) — plus the heaviest single iteration.
struct CounterStats {
    std::string name;            ///< obs counter name ("gmres.iterations")
    std::uint64_t total = 0;     ///< delta across the whole campaign
    std::uint64_t worst_iteration = 0; ///< largest single-iteration delta
};

struct CampaignResult {
    std::uint64_t seed = 1;
    int iterations = 0;
    std::vector<std::string> suites;
    std::vector<InvariantStats> invariants;
    std::vector<FailureRecord> failures;
    std::vector<CounterStats> metrics; ///< campaign-scoped solver counters

    bool ok() const { return failures.empty(); }
};

/// Run a campaign. Deterministic for fixed options: the result (including
/// the manifest rendering) depends only on seed/iterations/suites/tol.
CampaignResult run_campaign(const VerifyOptions& opt);

/// JSON manifest of a campaign (seeds, suites, per-invariant worst errors) —
/// the drift-tracking artifact committed at bench/golden/verify_manifest.json.
std::string manifest_json(const CampaignResult& result);

} // namespace pgsi::verify
