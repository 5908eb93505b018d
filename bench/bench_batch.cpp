// Batch-engine throughput benchmark: a 50-job mixed campaign (frequency
// sweeps + SSN transients) over a handful of distinct geometries, run
// through pgsi::serve with a fresh ModelCache. The headline numbers are
// jobs/sec, the cache hit rate (the cache is why a campaign over few
// geometries is cheap), and the p50/p99 job latency read back from the
// "serve.job.latency_us" obs histogram.
//
// Writes BENCH_batch.json (PGSI_BENCH_JSON overrides the path); the
// bench-smoke target gates it against bench/golden/BENCH_batch.json with
// tools/bench_compare. Counts (jobs, distinct geometries, cache hits and
// misses, retries) are deterministic, and so is cache_hit_rate, which the
// gate holds from below (fresh >= golden / count_ratio); jobs_per_s moves
// with the machine and is skipped by the gate's key classifier.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "serve/engine.hpp"

using namespace pgsi;

namespace {

constexpr int kGeometries = 5;

// One small board per variant: the decap position moves with the variant so
// each variant is a distinct geometry (a distinct ModelCache key) while all
// variants cost the same.
std::string board_text(int variant) {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "board 0.06 0.05\n"
        "stackup sep 0.4m eps 4.5 sheet 0.6m\n"
        "vrm 0.005 0.005\n"
        "driver d0 vcc 0.03 0.025 gnd 0.03 0.02 switch rise 1n delay 1n "
        "width 4n\n"
        "decap %.4f 0.035\n",
        0.010 + 0.008 * variant);
    return buf;
}

serve::JobSpec base_spec(const std::string& id, int variant) {
    serve::JobSpec spec;
    spec.id = id;
    spec.board_text = board_text(variant);
    spec.model.mesh_pitch = 0.01;
    spec.model.interior_nodes = 8;
    return spec;
}

std::vector<serve::JobSpec> make_campaign() {
    std::vector<serve::JobSpec> jobs;
    // 40 sweep jobs cycling over the 5 geometries: 5 misses, 35 hits.
    for (int i = 0; i < 40; ++i) {
        serve::JobSpec spec =
            base_spec("sweep" + std::to_string(i), i % kGeometries);
        spec.kind = serve::JobKind::Sweep;
        const std::size_t nf = 12;
        spec.freqs_hz.resize(nf);
        for (std::size_t k = 0; k < nf; ++k)
            spec.freqs_hz[k] =
                1e7 * std::pow(100.0, static_cast<double>(k) /
                                          static_cast<double>(nf - 1));
        jobs.push_back(std::move(spec));
    }
    // 10 transient jobs over the first two geometries: all cache hits (the
    // sweeps above already built those models).
    for (int i = 0; i < 10; ++i) {
        serve::JobSpec spec = base_spec("tran" + std::to_string(i), i % 2);
        spec.kind = serve::JobKind::Transient;
        spec.dt = 100e-12;
        spec.tstop = 10e-9;
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

} // namespace

int main() {
    obs::set_resources_enabled(true);
    obs::histogram("serve.job.latency_us").reset();

    const std::vector<serve::JobSpec> jobs = make_campaign();
    serve::ModelCache cache; // fresh: hit/miss counts are the campaign's own
    serve::BatchOptions opt;
    opt.cache = &cache;
    serve::JobQueue queue(opt);

    const auto t0 = std::chrono::steady_clock::now();
    const serve::BatchResult result = queue.run(jobs);
    const double total_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const serve::BatchStats& st = result.stats;
    const obs::Histogram::Snapshot lat =
        obs::histogram("serve.job.latency_us").snapshot();
    const double p50_s = obs::histogram_quantile(lat, 0.50) * 1e-6;
    const double p99_s = obs::histogram_quantile(lat, 0.99) * 1e-6;
    const double jobs_per_s =
        static_cast<double>(jobs.size()) / std::max(total_s, 1e-9);
    const double hit_rate =
        static_cast<double>(st.cache_hits) /
        std::max(1.0, static_cast<double>(st.cache_hits + st.cache_misses));

    std::printf("batch: %zu jobs in %.3f s (%.1f jobs/s), cache %" PRIu64
                "/%" PRIu64 " hits (%.0f%%), p50 %.1f ms, p99 %.1f ms\n",
                jobs.size(), total_s, jobs_per_s, st.cache_hits,
                st.cache_hits + st.cache_misses, 100 * hit_rate, p50_s * 1e3,
                p99_s * 1e3);
    if (!result.all_completed()) {
        std::fprintf(stderr, "batch: %zu jobs failed\n", st.failed);
        return 1;
    }

    const char* json_path = std::getenv("PGSI_BENCH_JSON");
    const char* path = json_path != nullptr ? json_path : "BENCH_batch.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(
        f,
        "{\n  \"bench\": \"batch\",\n  \"threads\": %zu,\n"
        "  \"jobs\": %zu, \"distinct_geometries\": %d,\n"
        "  \"completed\": %zu, \"failed\": %zu, \"retries\": %zu,\n"
        "  \"cache_hits\": %" PRIu64 ", \"cache_misses\": %" PRIu64
        ", \"cache_hit_rate\": %.4f,\n"
        "  \"total_s\": %.6f, \"jobs_per_s\": %.2f,\n"
        "  \"p50_latency_s\": %.6f, \"p99_latency_s\": %.6f,\n"
        "  \"resources\": {\"peak_rss_bytes\": %llu}\n}\n",
        par::thread_count(), jobs.size(), kGeometries, st.completed, st.failed,
        st.retries, st.cache_hits, st.cache_misses, hit_rate, total_s,
        jobs_per_s, p50_s, p99_s,
        static_cast<unsigned long long>(obs::peak_rss_bytes()));
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return 0;
}
