// Perf-regression gate over BENCH_*.json records (obs subsystem).
//
// compare_bench() walks a fresh benchmark record against a committed
// golden and flags every metric that regressed past a per-class relative
// threshold. Only "worse" directions fail: slower times, more iterations,
// larger errors, smaller reduction and hit ratios; improvements pass
// silently. Two records whose top-level "threads" differ fail outright: they
// measure different machines. Metrics present in only one of the two
// documents are skipped (the format may grow), as are structural descriptors
// (sizes, thread counts) and sub-noise timings.
//
// Classification is by key name, matching the conventions of
// bench/bench_scaling.cpp:
//   * "*_s"                     wall time      -> time_ratio
//   * "*_err" / "*residual*"    accuracy       -> error_ratio
//   * "matvec_reduction",
//     "cache_hit_rate"          count ratios   -> count_ratio, inverted
//                                                 (golden / fresh)
//   * other numeric keys        counters       -> count_ratio
//   * skip list                 descriptors    -> never compared
// Arrays of objects are matched element-wise by their "n" member when
// present (so a smoke run covering a subset of sizes still gates).
//
// The tools/bench_compare CLI wraps this; tests drive it with synthetic
// documents.
#pragma once

#include <string>
#include <vector>

namespace pgsi {
class JsonValue;
}

namespace pgsi::obs {

struct BenchGateOptions {
    double time_ratio = 1.8;   ///< fail when fresh > golden * ratio
    double count_ratio = 1.5;  ///< iteration/matvec growth allowance
    double error_ratio = 20.0; ///< accuracy metrics are noisy across BLAS paths
    double min_seconds = 0.02; ///< times below this on both sides are noise
    double min_count = 16;     ///< counters below this on both sides are noise
};

struct BenchDelta {
    std::string path;   ///< e.g. "cases[n=14].fill_cached_s"
    double golden = 0;
    double fresh = 0;
    /// fresh / golden; golden / fresh for the higher-is-better count
    /// ratios, so > 1 is always worse.
    double ratio = 0;
    double threshold = 0; ///< the ratio limit that applied
    bool regression = false;
};

struct BenchGateResult {
    std::vector<BenchDelta> compared; ///< every metric that was gated
    std::vector<std::string> skipped; ///< paths skipped (missing/descriptor)

    bool ok() const {
        for (const BenchDelta& d : compared)
            if (d.regression) return false;
        return true;
    }
    std::size_t regression_count() const {
        std::size_t n = 0;
        for (const BenchDelta& d : compared) n += d.regression ? 1 : 0;
        return n;
    }
};

/// Diff `fresh` against `golden` under the thresholds.
BenchGateResult compare_bench(const JsonValue& fresh, const JsonValue& golden,
                              const BenchGateOptions& opt = {});

/// Human-readable table of the comparison (regressions first).
std::string format_bench_gate(const BenchGateResult& result);

} // namespace pgsi::obs
