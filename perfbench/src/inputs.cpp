#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint64_t Rng::next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

namespace {

// Positions are written at 0.1 mm resolution so the text is exact.
std::string mm(double metres) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", std::round(metres * 1e4) / 1e4);
    return buf;
}

} // namespace

std::string demo_board_text(std::uint64_t seed, std::size_t decaps) {
    Rng rng(seed * 0x2545f4914f6cdd1dull + 1);
    // Driver cluster centre; demo.board has it at (91, 50) mm.
    const double cx = rng.uniform(0.075, 0.100);
    const double cy = rng.uniform(0.035, 0.060);
    std::string t;
    t += "# perfbench demo-board variant, seed " + std::to_string(seed) + "\n";
    t += "board 0.12 0.08\n";
    t += "stackup sep 0.5m eps 4.5 sheet 0.6m\n";
    t += "vdd 3.3\n";
    t += "vrm 0.01 0.01\n";
    for (int d = 0; d < 3; ++d) {
        const std::string x = mm(cx + 0.006 * (d - 1));
        t += "driver d" + std::to_string(d) + " vcc " + x + " " + mm(cy + 0.005) +
             " gnd " + x + " " + mm(cy - 0.005) + " load 25p";
        // d2 stays quiet, as in demo.board.
        if (d < 2) t += " switch rise 0.8n delay 0.5n width 5n";
        t += "\n";
    }
    for (std::size_t k = 0; k < decaps; ++k)
        t += "decap " + mm(rng.uniform(0.015, 0.105)) + " " +
             mm(rng.uniform(0.015, 0.065)) + " c 100n esr 25m esl 0.8n\n";
    return t;
}

std::string demo_board_values_text(std::uint64_t seed) {
    Rng rng(seed * 0x94d049bb133111ebull + 5);
    char line[160];
    std::string t = "# perfbench demo-board values variant, seed " +
                    std::to_string(seed) + "\n";
    t += "board 0.12 0.08\n";
    std::snprintf(line, sizeof line, "stackup sep 0.5m eps %.3f sheet %.3fm\n",
                  rng.uniform(4.0, 4.8), rng.uniform(0.5, 0.7));
    t += line;
    t += "vdd 3.3\nvrm 0.01 0.01\n";
    for (int d = 0; d < 3; ++d) {
        std::snprintf(line, sizeof line,
                      "driver d%d vcc %.3f 0.055 gnd %.3f 0.045 load 25p%s\n", d,
                      0.085 + 0.006 * d, 0.085 + 0.006 * d,
                      d < 2 ? " switch rise 0.8n delay 0.5n width 5n" : "");
        t += line;
    }
    for (const char* pos : {"0.09 0.05", "0.02 0.02", "0.06 0.04"}) {
        std::snprintf(line, sizeof line, "decap %s c %.1fn esr %.1fm esl %.2fn\n",
                      pos, rng.uniform(50, 200), rng.uniform(15, 35),
                      rng.uniform(0.5, 1.0));
        t += line;
    }
    return t;
}

std::vector<std::vector<std::size_t>> decap_subsets(std::uint64_t seed,
                                                    std::size_t candidates,
                                                    std::size_t size,
                                                    std::size_t count) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
    std::vector<std::vector<std::size_t>> subsets;
    while (subsets.size() < count) {
        std::vector<std::size_t> all(candidates);
        for (std::size_t d = 0; d < candidates; ++d) all[d] = d;
        for (std::size_t i = candidates; i > 1; --i)
            std::swap(all[i - 1], all[rng.next() % i]);
        all.resize(size);
        std::sort(all.begin(), all.end());
        subsets.push_back(std::move(all));
    }
    return subsets;
}

std::vector<double> log_grid(std::uint64_t seed, double fmin, double fmax,
                             std::size_t points) {
    Rng rng(seed * 0xd1342543de82ef95ull + 3);
    const double a = std::log10(fmin), b = std::log10(fmax);
    std::vector<double> f;
    for (std::size_t k = 0; k < points; ++k) {
        const double slot = (static_cast<double>(k) + rng.uniform(0.1, 0.9)) /
                            static_cast<double>(points);
        f.push_back(std::pow(10.0, a + slot * (b - a)));
    }
    return f;
}

BatchInputs batch_inputs(std::uint64_t seed, std::size_t variants,
                         std::size_t jobs, double pitch) {
    BatchInputs in;
    for (std::size_t v = 0; v < variants; ++v)
        in.boards.push_back(demo_board_values_text(seed * 131 + v + 1));
    const double dts[] = {25e-12, 50e-12};
    const double tstops[] = {4e-9, 6e-9, 8e-9};
    for (std::size_t v = 0; v < variants; ++v)
        for (double dt : dts)
            for (double tstop : tstops) {
                pgsi::serve::JobSpec s;
                s.kind = pgsi::serve::JobKind::Transient;
                s.board_text = in.boards[v];
                s.model.mesh_pitch = pitch;
                s.model.interior_nodes = 16;
                s.dt = dt;
                s.tstop = tstop;
                s.max_retries = 1;
                in.specs.push_back(s);
            }
    // Jobs take the variants round-robin, so every campaign starts its three
    // misses together and its critical path is one extraction; a shuffled
    // order would move it between one and two extractions from seed to
    // seed. Within a variant the (dt, tstop) specs repeat in a seeded order.
    const std::size_t per = in.specs.size() / variants;
    Rng rng(seed * 0xbf58476d1ce4e5b9ull + 11);
    std::vector<std::vector<std::size_t>> order(variants);
    for (auto& o : order) {
        for (std::size_t i = 0; i < per; ++i) o.push_back(i);
        for (std::size_t i = per; i > 1; --i) std::swap(o[i - 1], o[rng.next() % i]);
    }
    for (std::size_t j = 0; j < jobs; ++j) {
        const std::size_t v = j % variants;
        in.job_spec.push_back(v * per + order[v][(j / variants) % per]);
    }
    return in;
}

} // namespace perfbench
