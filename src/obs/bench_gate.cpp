#include "obs/bench_gate.hpp"

#include <algorithm>
#include <cstdio>

#include "io/json.hpp"

namespace pgsi::obs {

namespace {

enum class MetricClass { Time, Count, Error, Ratio, Skip };

bool ends_with(std::string_view s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

MetricClass classify(std::string_view key) {
    // Structural descriptors and derived ratios: shape, configuration, and
    // speedups (a speedup drop already shows up as a time regression).
    static constexpr std::string_view kSkip[] = {
        "n",       "nodes",   "branches",      "threads",
        "schema",  "sweep_freqs", "cache_entries", "fill_speedup",
        "speedup", "peak_rss_bytes",
        // Higher-is-better throughput: it moves with the machine.
        "jobs_per_s",
    };
    // Deterministic higher-is-better count ratios.
    static constexpr std::string_view kRatio[] = {"matvec_reduction",
                                                  "cache_hit_rate"};
    for (const std::string_view s : kSkip)
        if (key == s) return MetricClass::Skip;
    for (const std::string_view s : kRatio)
        if (key == s) return MetricClass::Ratio;
    if (ends_with(key, "_s") || ends_with(key, "_seconds"))
        return MetricClass::Time;
    if (ends_with(key, "_err") || key.find("residual") != std::string_view::npos)
        return MetricClass::Error;
    return MetricClass::Count;
}

struct Walker {
    const BenchGateOptions& opt;
    BenchGateResult& out;

    void leaf(const std::string& path, const std::string& key, double golden,
              double fresh) {
        const MetricClass cls = classify(key);
        if (cls == MetricClass::Skip) {
            out.skipped.push_back(path + " (descriptor)");
            return;
        }
        double threshold = opt.count_ratio;
        double floor = opt.min_count;
        if (cls == MetricClass::Time) {
            threshold = opt.time_ratio;
            floor = opt.min_seconds;
        } else if (cls == MetricClass::Error) {
            threshold = opt.error_ratio;
            floor = 0; // errors gate at any magnitude (relative only)
        } else if (cls == MetricClass::Ratio) {
            floor = 0; // ratios sit near 1, far below min_count
        }
        if (golden < floor && fresh < floor) {
            out.skipped.push_back(path + " (below noise floor)");
            return;
        }
        BenchDelta d;
        d.path = path;
        d.golden = golden;
        d.fresh = fresh;
        d.threshold = threshold;
        // Higher-is-better ratios are inverted so that > 1 is always worse.
        const double num = cls == MetricClass::Ratio ? golden : fresh;
        const double den = cls == MetricClass::Ratio ? fresh : golden;
        d.ratio = den > 0 ? num / den : (num > 0 ? 1e300 : 1.0);
        d.regression = d.ratio > threshold;
        out.compared.push_back(std::move(d));
    }

    void object(const std::string& path, const JsonValue& golden,
                const JsonValue& fresh) {
        for (const auto& [key, gv] : golden.object) {
            const JsonValue* fv = fresh.find(key);
            const std::string child =
                path.empty() ? key : path + "." + key;
            if (fv == nullptr) {
                out.skipped.push_back(child + " (missing in fresh)");
                continue;
            }
            value(child, key, gv, *fv);
        }
        for (const auto& [key, fv] : fresh.object) {
            (void)fv;
            if (golden.find(key) == nullptr)
                out.skipped.push_back(
                    (path.empty() ? key : path + "." + key) +
                    " (missing in golden)");
        }
    }

    void array(const std::string& path, const JsonValue& golden,
               const JsonValue& fresh) {
        // Arrays of objects with an "n" member (the scaling cases) match by
        // label; a smoke run covering fewer sizes still gates its subset.
        const auto label = [](const JsonValue& v) -> const JsonValue* {
            return v.is_object() ? v.find("n") : nullptr;
        };
        for (const JsonValue& fv : fresh.array) {
            const JsonValue* fn = label(fv);
            const JsonValue* match = nullptr;
            std::string tag;
            if (fn != nullptr && fn->is_number()) {
                for (const JsonValue& gv : golden.array) {
                    const JsonValue* gn = label(gv);
                    if (gn != nullptr && gn->is_number() &&
                        gn->number == fn->number) {
                        match = &gv;
                        break;
                    }
                }
                char buf[48];
                std::snprintf(buf, sizeof buf, "[n=%g]", fn->number);
                tag = buf;
            } else {
                const std::size_t i =
                    static_cast<std::size_t>(&fv - fresh.array.data());
                if (i < golden.array.size()) match = &golden.array[i];
                tag = "[" + std::to_string(&fv - fresh.array.data()) + "]";
            }
            if (match == nullptr) {
                out.skipped.push_back(path + tag + " (no golden entry)");
                continue;
            }
            value(path + tag, "", *match, fv);
        }
    }

    void value(const std::string& path, const std::string& key,
               const JsonValue& golden, const JsonValue& fresh) {
        if (golden.is_number() && fresh.is_number()) {
            leaf(path, key, golden.number, fresh.number);
        } else if (golden.is_object() && fresh.is_object()) {
            object(path, golden, fresh);
        } else if (golden.is_array() && fresh.is_array()) {
            array(path, golden, fresh);
        } else if (golden.kind != fresh.kind) {
            out.skipped.push_back(path + " (type mismatch)");
        }
        // Strings/bools/nulls carry no perf signal.
    }
};

} // namespace

BenchGateResult compare_bench(const JsonValue& fresh, const JsonValue& golden,
                              const BenchGateOptions& opt) {
    BenchGateResult out;
    // Records taken at different pool sizes are not comparable: every time
    // and every parallel-kernel count moves with the thread count, so the
    // gate refuses the pair outright (an absent count reads as 0).
    const double gt = golden.num_or("threads", 0);
    const double ft = fresh.num_or("threads", 0);
    if (gt != ft) {
        BenchDelta d;
        d.path = "threads";
        d.golden = gt;
        d.fresh = ft;
        d.ratio = gt > 0 ? ft / gt : 0.0;
        d.threshold = 1.0;
        d.regression = true;
        out.compared.push_back(std::move(d));
    }
    Walker w{opt, out};
    w.value("", "", golden, fresh);
    // Regressions first, largest overshoot first, for the report.
    std::stable_sort(out.compared.begin(), out.compared.end(),
                     [](const BenchDelta& a, const BenchDelta& b) {
                         if (a.regression != b.regression) return a.regression;
                         return a.ratio / a.threshold > b.ratio / b.threshold;
                     });
    return out;
}

std::string format_bench_gate(const BenchGateResult& result) {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "bench gate: %zu metric(s) compared, %zu regression(s), "
                  "%zu skipped\n",
                  result.compared.size(), result.regression_count(),
                  result.skipped.size());
    out += line;
    std::snprintf(line, sizeof line, "  %-44s %12s %12s %7s %7s\n", "metric",
                  "golden", "fresh", "ratio", "limit");
    out += line;
    for (const BenchDelta& d : result.compared) {
        std::snprintf(line, sizeof line, "%s %-44s %12.6g %12.6g %7.2f %7.2f\n",
                      d.regression ? "!" : " ", d.path.c_str(), d.golden,
                      d.fresh, d.ratio, d.threshold);
        out += line;
    }
    return out;
}

} // namespace pgsi::obs
