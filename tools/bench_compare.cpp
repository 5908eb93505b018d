// bench_compare — perf-regression gate over BENCH_*.json records.
//
//   bench_compare <fresh.json> <golden.json>
//                 [--time-ratio X] [--count-ratio X] [--error-ratio X]
//                 [--min-seconds S] [--min-count N]
//
// Diffs a freshly generated benchmark record against a committed golden and
// exits 1 when any metric regressed past its class threshold (slower times,
// more iterations, larger errors) or when the two records were taken at
// different thread counts. Improvements and metrics present in only one
// document pass. See src/obs/bench_gate.hpp for the classification
// rules. Wired into the build as the `bench-smoke` target.
#include <cstdio>

#include "io/json.hpp"
#include "obs/bench_gate.hpp"
#include "tools/cli_common.hpp"

using namespace pgsi;

namespace {
constexpr const char* kUsage =
    "bench_compare <fresh.json> <golden.json> [--time-ratio x]\n"
    "              [--count-ratio x] [--error-ratio x] [--min-seconds s]\n"
    "              [--min-count n]";
}

int main(int argc, char** argv) {
    return cli::run_tool(
        [&]() -> int {
            const cli::Args args(argc, argv,
                                 {"time-ratio", "count-ratio", "error-ratio",
                                  "min-seconds", "min-count"});
            PGSI_REQUIRE(args.positional().size() == 2,
                         "expected <fresh.json> <golden.json>");
            obs::BenchGateOptions opt;
            opt.time_ratio = args.num("time-ratio", opt.time_ratio);
            opt.count_ratio = args.num("count-ratio", opt.count_ratio);
            opt.error_ratio = args.num("error-ratio", opt.error_ratio);
            opt.min_seconds = args.num("min-seconds", opt.min_seconds);
            opt.min_count = args.num("min-count", opt.min_count);

            const JsonValue fresh = parse_json_file(args.positional()[0]);
            const JsonValue golden = parse_json_file(args.positional()[1]);
            const obs::BenchGateResult result =
                obs::compare_bench(fresh, golden, opt);
            std::fputs(obs::format_bench_gate(result).c_str(), stdout);
            if (!result.ok()) {
                std::printf("FAIL: %zu perf regression(s) vs %s\n",
                            result.regression_count(),
                            args.positional()[1].c_str());
                return 1;
            }
            std::printf("OK: no perf regressions vs %s\n",
                        args.positional()[1].c_str());
            return 0;
        },
        kUsage);
}
