#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
        .count();
}

int Tracer::begin(const std::string& name) {
    if (!enabled_) return -1;
    SpanRecord s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run_;
    s.start_s = now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
}

void Tracer::end(int id) {
    if (id < 0) return;
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("perfbench: spans closed out of order");
    spans_[static_cast<std::size_t>(id)].end_s = now();
    open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds(int run) const {
    std::map<std::string, double> self;
    for (const SpanRecord& s : spans_)
        if (s.run == run) self[s.name] += s.end_s - s.start_s;
    for (const SpanRecord& s : spans_)
        if (s.run == run && s.parent >= 0) {
            const SpanRecord& p = spans_[static_cast<std::size_t>(s.parent)];
            self[p.name] -= s.end_s - s.start_s;
        }
    return self;
}

double Tracer::root_seconds(int run) const {
    for (const SpanRecord& s : spans_)
        if (s.run == run && s.parent < 0) return s.end_s - s.start_s;
    return 0;
}

void Tracer::write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("perfbench: cannot write " + path);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                     "\"parent\":%d,\"run\":%d}}",
                     i == 0 ? "" : ",", s.name.c_str(), s.run, s.start_s * 1e6,
                     (s.end_s - s.start_s) * 1e6, s.id, s.parent, s.run);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

} // namespace perfbench
