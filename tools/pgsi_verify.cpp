// Property-based verification campaigns from the command line.
//
//   pgsi_verify [--iters N] [--seed S] [--suite all|reciprocity,backends,...]
//               [--shrink] [--out DIR] [--manifest FILE]
//               [--profile] [--trace-json FILE]
//
// Draws N random scenarios from the seeded stream and checks every invariant
// of the selected suites. With --shrink, failures are minimized and emitted
// as tests/-ready repro files into DIR (default verify_failures/). Exits 1
// when any invariant fails. Reproduce a single reported failure by re-running
// with the same --seed and the failing suite, or by compiling the emitted
// .cpp snippet.
#include <cstdio>
#include <fstream>

#include "tools/cli_common.hpp"
#include "verify/verify.hpp"

namespace {

constexpr const char* kUsage =
    "pgsi_verify [--iters N] [--seed S] [--suite list] [--shrink] "
    "[--out DIR] [--manifest FILE] [--profile] [--trace-json FILE] "
    "[--report FILE]";

int main_impl(int argc, char** argv) {
    using namespace pgsi;
    const cli::Args args(argc, argv,
                         cli::ObsSession::flags({"iters", "seed", "suite",
                                                 "shrink", "out", "manifest"}));
    cli::ObsSession obs_session(args, "pgsi_verify", argc, argv);

    verify::VerifyOptions opt;
    opt.iterations = static_cast<int>(args.num("iters", 100));
    opt.seed = static_cast<std::uint64_t>(args.num("seed", 1));
    opt.suites = verify::parse_suites(args.str("suite", "all"));
    opt.shrink = args.has("shrink");
    opt.failure_dir = args.str("out", "verify_failures");

    const verify::CampaignResult result = verify::run_campaign(opt);

    std::printf("campaign: seed=%llu iters=%d suites=",
                static_cast<unsigned long long>(result.seed),
                result.iterations);
    for (std::size_t i = 0; i < result.suites.size(); ++i)
        std::printf("%s%s", i ? "," : "", result.suites[i].c_str());
    std::printf("\n\n%-22s %8s %6s %9s %12s %12s\n", "invariant", "checks",
                "skips", "failures", "worst", "tolerance");
    for (const verify::InvariantStats& s : result.invariants)
        std::printf("%-22s %8zu %6zu %9zu %12.3e %12.3e\n",
                    s.invariant.c_str(), s.checks, s.skips, s.failures,
                    s.worst_error, s.tolerance);

    if (obs::SolveReportBuilder* rep = obs_session.report()) {
        rep->add_number("campaign", "iterations",
                        static_cast<double>(result.iterations));
        rep->add_number("campaign", "failures",
                        static_cast<double>(result.failures.size()));
        for (const verify::CounterStats& m : result.metrics)
            rep->add_number("campaign_counters", m.name,
                            static_cast<double>(m.total));
    }

    for (const verify::FailureRecord& f : result.failures) {
        std::printf("\nFAIL %s (suite %s, iteration %d, seed %llu)\n",
                    f.invariant.c_str(), f.suite.c_str(), f.iteration,
                    static_cast<unsigned long long>(f.seed));
        std::printf("  error %.3e > tolerance %.3e  %s\n", f.error,
                    f.tolerance, f.detail.c_str());
        std::printf("  scenario: %s\n", f.scenario.c_str());
        if (!f.shrunk_scenario.empty())
            std::printf("  shrunk:   %s\n", f.shrunk_scenario.c_str());
        if (!f.repro_cpp.empty())
            std::printf("  repro:    %s\n            %s\n", f.repro_cpp.c_str(),
                        f.repro_board.c_str());
    }

    const std::string manifest_path = args.str("manifest", "");
    if (!manifest_path.empty()) {
        std::ofstream f(manifest_path);
        PGSI_REQUIRE(f.good(),
                     "pgsi_verify: cannot write manifest " + manifest_path);
        f << verify::manifest_json(result);
        std::printf("\nwrote manifest: %s\n", manifest_path.c_str());
    }

    if (!result.ok()) {
        std::printf("\n%zu invariant violation(s)\n", result.failures.size());
        return 1;
    }
    std::printf("\nall invariants held\n");
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    return pgsi::cli::run_tool([&] { return main_impl(argc, argv); }, kUsage);
}
