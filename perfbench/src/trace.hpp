// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the public pgsi calls the benchmark makes, one per layer
// boundary. They are recorded from the benchmark's main thread only (the
// library's own PGSI_TRACE stays off), so the recorder needs no locking and
// spans nest strictly: a span's children lie inside its interval, and its
// self time is its duration minus its children's durations.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
    std::string name;
    double start_s = 0; ///< seconds since the tracer was created
    double end_s = 0;
    int id = 0;
    int parent = -1; ///< id of the enclosing span, -1 for a root
    int run = 0;     ///< the traced request this span belongs to
};

class Tracer {
public:
    Tracer();

    /// Spans are recorded only while enabled; a disabled tracer costs one
    /// branch per span.
    void set_enabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /// Spans opened from now on belong to run `run`.
    void set_run(int run) { run_ = run; }

    /// Open a span under the innermost open one; returns its id (-1 when
    /// disabled).
    int begin(const std::string& name);
    void end(int id);

    const std::vector<SpanRecord>& spans() const { return spans_; }

    /// Self seconds per span name over the spans of one run.
    std::map<std::string, double> self_seconds(int run) const;

    /// Duration of the first root span of one run (the request wall).
    double root_seconds(int run) const;

    /// Chrome-trace ("traceEvents") JSON: one complete event per span, the
    /// run as the thread id, id/parent/run in the event args.
    void write_chrome_trace(const std::string& path) const;

private:
    double now() const;

    std::chrono::steady_clock::time_point t0_;
    bool enabled_ = false;
    int run_ = 0;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_; ///< stack of open span ids
};

/// RAII span.
class Span {
public:
    Span(Tracer& tracer, const std::string& name)
        : tracer_(tracer), id_(tracer.begin(name)) {}
    ~Span() { tracer_.end(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer& tracer_;
    int id_;
};

} // namespace perfbench
