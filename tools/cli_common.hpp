// Minimal argument parsing shared by the pgsi command-line tools.
#pragma once

#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "circuit/parser.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/resource.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace pgsi::cli {

/// Observability flags shared by every pgsi tool:
///   --profile            enable tracing; print the span timing tree and the
///                        metrics table when the tool finishes
///   --trace-json <file>  enable tracing; write Chrome-trace JSON on exit
///                        (loads in chrome://tracing or Perfetto)
///   --report <file>      enable tracing, convergence streams, and resource
///                        accounting; write a SolveReport JSON artifact on
///                        exit (render with tools/pgsi_report)
/// Construct one right after argument parsing; the destructor emits the
/// reports even when the tool body throws.
class ObsSession {
public:
    /// Flag names to append to a tool's known-flags list.
    static std::vector<std::string> flags(std::vector<std::string> base) {
        base.push_back("profile");
        base.push_back("trace-json");
        base.push_back("report");
        return base;
    }

    template <class ArgsT>
    ObsSession(const ArgsT& args, std::string tool, int argc = 0,
               const char* const* argv = nullptr)
        : profile_(args.has("profile")), trace_path_(args.str("trace-json", "")),
          report_path_(args.str("report", "")) {
        if (args.has("trace-json") && trace_path_.empty())
            throw InvalidArgument("--trace-json requires an output file path");
        if (args.has("report") && report_path_.empty())
            throw InvalidArgument("--report requires an output file path");
        if (profile_ || !trace_path_.empty() || !report_path_.empty())
            obs::set_trace_enabled(true);
        if (!report_path_.empty()) {
            obs::set_streams_enabled(true);
            obs::set_resources_enabled(true);
            obs::set_thread_name("main");
            builder_ = std::make_unique<obs::SolveReportBuilder>(std::move(tool));
            if (argv != nullptr) builder_->set_argv(argc, argv);
        }
    }

    /// Back-compat constructor for tools that never emit reports.
    template <class ArgsT>
    explicit ObsSession(const ArgsT& args) : ObsSession(args, "pgsi") {}

    ~ObsSession() {
        if (builder_ != nullptr) {
            try {
                builder_->write_file(report_path_);
                std::fprintf(stderr, "wrote report: %s\n", report_path_.c_str());
            } catch (const Error& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
            }
        }
        if (!trace_path_.empty()) {
            try {
                obs::write_chrome_trace_file(trace_path_);
                std::fprintf(stderr, "wrote trace: %s\n", trace_path_.c_str());
            } catch (const Error& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
            }
        }
        if (profile_) {
            const std::string summary = obs::trace_summary();
            const std::string metrics = obs::format_metrics();
            std::fprintf(stdout, "\n%s\n%s", summary.c_str(), metrics.c_str());
        }
    }

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /// The SolveReport under construction, or nullptr without --report.
    /// Tools use this to attach free-form sections and recovery events.
    obs::SolveReportBuilder* report() { return builder_.get(); }

private:
    bool profile_;
    std::string trace_path_;
    std::string report_path_;
    std::unique_ptr<obs::SolveReportBuilder> builder_;
};

/// Parsed command line: positional arguments plus --key value options
/// (--flag with no value stores an empty string).
class Args {
public:
    Args(int argc, char** argv, const std::vector<std::string>& known_flags) {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--", 0) == 0) {
                const std::string key = a.substr(2);
                bool known = false;
                for (const std::string& k : known_flags)
                    if (k == key) known = true;
                if (!known)
                    throw InvalidArgument("unknown option --" + key);
                if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
                    options_[key] = argv[++i];
                else
                    options_[key] = "";
            } else {
                positional_.push_back(std::move(a));
            }
        }
    }

    const std::vector<std::string>& positional() const { return positional_; }

    bool has(const std::string& key) const { return options_.count(key) > 0; }

    std::string str(const std::string& key, const std::string& fallback) const {
        const auto it = options_.find(key);
        return it == options_.end() ? fallback : it->second;
    }

    double num(const std::string& key, double fallback) const {
        const auto it = options_.find(key);
        return it == options_.end() ? fallback : parse_spice_value(it->second);
    }

private:
    std::vector<std::string> positional_;
    std::map<std::string, std::string> options_;
};

/// Standard error wrapper for tool main()s. A pgsi::Error prints with the
/// usage text; an allocation failure or any other std::exception is not a
/// usage problem, so it prints alone. Every path returns 1 instead of
/// letting the exception terminate the process.
template <class F>
int run_tool(F&& body, const char* usage) {
    try {
        return body();
    } catch (const Error& e) {
        std::fprintf(stderr, "error: %s\n\nusage: %s\n", e.what(), usage);
    } catch (const std::bad_alloc& e) {
        std::fprintf(stderr, "error: out of memory (%s)\n", e.what());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
    }
    return 1;
}

} // namespace pgsi::cli
