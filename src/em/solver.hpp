// Direct frequency-domain solution of the discretized MPIE system (§3.2).
//
// At each frequency the full coupled system
//     (Zs(ω) + jωL) I = P V,    Pᵀ I + jω C V = J
// is solved without the equivalent-circuit reduction of §4: the only
// approximation retained is the quasi-static (non-retarded) Green's function.
// This is the in-house reference against which the extracted RLC macromodel
// is validated (the role the measurement and full-wave data play in §6.1).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "common/robust.hpp"
#include "em/bem_plane.hpp"
#include "numeric/gmres.hpp"

namespace pgsi {

/// Which frequency-domain solver implementation runs a sweep.
enum class SolverBackend {
    Auto,     ///< Iterative when the mesh is large enough for its operator
              ///< form to profit (Toeplitz on uniform lattices from 400
              ///< nodes, ACA/H-matrix on non-uniform meshes from 160);
              ///< Direct otherwise
    Direct,   ///< dense LU per frequency (reference path)
    Iterative ///< GMRES over matrix-free FFT (Toeplitz) or H-matrix operators
};

/// Backend selection and iterative-path tuning knobs.
///
/// The iterative backend has one path per job: the preconditioner is
/// block-Jacobi over 10-cell geometric tiles, the operator form follows from
/// the mesh (block-Toeplitz on a uniform lattice with a displacement table,
/// ACA/H-matrix otherwise), and sweeps of two or more points run the sweep
/// engine (bisection order, block GMRES, recycled-subspace warm starts).
struct SolverOptions {
    SolverBackend backend = SolverBackend::Auto;
    GmresOptions gmres; ///< restart / iteration budget / target residual
    /// An iterative solve whose final true relative residual exceeds this
    /// is either recomputed by the dense direct solver (under
    /// RecoveryPolicy::Recover, the default) or raises NumericalError
    /// (Strict) instead of returning a silently inaccurate Z.
    double fail_tol = 1e-8;
    /// Recovery policy and cancellation token of the solve.
    robust::RecoveryOptions recovery;
};

/// Common interface of the frequency-domain plane solvers: Z-parameters at
/// chosen mesh nodes, one frequency at a time or swept.
class PlaneSolver {
public:
    virtual ~PlaneSolver() = default;

    /// Short stable identifier ("direct" / "iterative") for logs and JSON.
    virtual const char* backend_name() const = 0;

    /// Impedance matrix seen at the given mesh nodes (all other nodes open).
    virtual MatrixC port_impedance(
        double freq_hz, const std::vector<std::size_t>& port_nodes) const = 0;

    /// Z(f) for each frequency. The direct backend solves the points
    /// independently in parallel; the iterative backend solves them in
    /// sequence, reusing Krylov work across points.
    virtual std::vector<MatrixC> sweep_impedance(
        const VectorD& freqs_hz,
        const std::vector<std::size_t>& port_nodes) const = 0;
};

/// Construct the backend selected by `options` (resolving Auto against the
/// mesh size and lattice structure; the choice is counted in the
/// em.backend.{toeplitz,hmatrix,dense} counters). The PlaneBem and SurfaceImpedance must
/// outlive the returned solver.
std::unique_ptr<PlaneSolver> make_solver(const PlaneBem& bem,
                                         SurfaceImpedance zs,
                                         const SolverOptions& options = {});

/// Cumulative telemetry of a DirectSolver across every frequency point it
/// has processed (fill/factor/solve wall seconds plus work counts).
struct DirectSolverStats {
    std::size_t frequencies = 0;      ///< nodal_admittance evaluations
    std::size_t factorizations = 0;   ///< dense LU factorizations
    std::size_t solves = 0;           ///< triangular solves (one per column)
    double fill_seconds = 0;          ///< branch-impedance matrix fill
    double factor_seconds = 0;        ///< LU factorization
    double solve_seconds = 0;         ///< back-substitution + Y accumulation
};

/// Direct sweep solver over an assembled PlaneBem.
class DirectSolver : public PlaneSolver {
public:
    /// zs: frequency-dependent surface impedance applied to all branches
    /// (scaled by each branch's length/width). Pass a default-constructed
    /// SurfaceImpedance for the lossless case. `recovery` carries the
    /// cooperative CancelToken (polled once per frequency point); the dense
    /// path has no numerical ladder of its own.
    DirectSolver(const PlaneBem& bem, SurfaceImpedance zs,
                 robust::RecoveryOptions recovery = {});

    const char* backend_name() const override { return "direct"; }

    /// Full N×N nodal admittance matrix Y(ω) = jωC + Pᵀ(Zs+jωL)⁻¹P.
    MatrixC nodal_admittance(double freq_hz) const;

    /// Impedance matrix seen at the given mesh nodes (all other nodes open):
    /// the port columns of Y(ω)⁻¹ restricted to the port rows, computed by a
    /// multi-RHS solve against the |ports| unit vectors (never the full
    /// inverse).
    MatrixC port_impedance(
        double freq_hz,
        const std::vector<std::size_t>& port_nodes) const override;

    /// Sweep: Z(f) for each frequency in freqs_hz. Frequency points are
    /// independent solves and run in parallel on the shared pgsi::par pool
    /// (the frequency-independent BEM matrices are assembled up front).
    std::vector<MatrixC> sweep_impedance(
        const VectorD& freqs_hz,
        const std::vector<std::size_t>& port_nodes) const override;

    /// Telemetry accumulated over every call on this solver so far. Do not
    /// read while a sweep is in flight.
    const DirectSolverStats& stats() const { return stats_; }

private:
    const PlaneBem& bem_;
    SurfaceImpedance zs_;
    robust::RecoveryOptions recovery_;
    mutable std::mutex stats_mu_; // sweeps update stats_ from pool workers
    mutable DirectSolverStats stats_;
};

} // namespace pgsi
