// Seeded input generators, one per workload. The library sees only what
// these produce: board-file text, decap subsets, frequency grids and batch
// job specs. The same seed always gives the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/job.hpp"

namespace perfbench {

/// splitmix64: a fixed, portable stream (std distributions are not
/// specified bit-for-bit across standard libraries).
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    double uniform(double lo, double hi);

private:
    std::uint64_t s_;
};

/// The examples/boards/demo.board plane (120 x 80 mm, 0.5 mm separation,
/// three drivers, regulator at the corner) with the driver cluster and
/// `decaps` decoupling capacitors moved to seeded positions.
std::string demo_board_text(std::uint64_t seed, std::size_t decaps);

/// The demo.board geometry itself with seeded stackup permittivity, sheet
/// resistance and decap values. Each variant is a distinct cache key, but
/// (C scaling with permittivity and R with sheet resistance) the pruned
/// circuit keeps its topology, so job cost does not move with the seed.
std::string demo_board_values_text(std::uint64_t seed);

/// ssn_transient: `count` subsets of `size` out of `candidates` decaps.
/// A fixed size keeps the circuit order, and so the transient's cost, the
/// same for every seed.
std::vector<std::vector<std::size_t>> decap_subsets(std::uint64_t seed,
                                                    std::size_t candidates,
                                                    std::size_t size,
                                                    std::size_t count);

/// zsweep: `points` strictly increasing frequencies, one jittered point per
/// log-spaced slot of [fmin, fmax].
std::vector<double> log_grid(std::uint64_t seed, double fmin, double fmax,
                             std::size_t points);

/// batch: the distinct transient specs of one campaign (variant x dt x
/// tstop) and the job list that repeats them.
struct BatchInputs {
    std::vector<std::string> boards;         ///< one text per variant
    std::vector<pgsi::serve::JobSpec> specs; ///< distinct computations
    std::vector<std::size_t> job_spec;       ///< per job: index into specs
};
BatchInputs batch_inputs(std::uint64_t seed, std::size_t variants,
                         std::size_t jobs, double pitch);

} // namespace perfbench
