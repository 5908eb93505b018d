#include "circuit/transient.hpp"

#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/robust.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace pgsi {

VectorD TransientResult::waveform(NodeId node) const {
    for (std::size_t k = 0; k < probes.size(); ++k) {
        if (probes[k] != node) continue;
        VectorD w(samples.size());
        for (std::size_t s = 0; s < samples.size(); ++s) w[s] = samples[s][k];
        return w;
    }
    throw InvalidArgument("TransientResult: node was not recorded");
}

double TransientResult::peak_abs(NodeId node) const {
    const VectorD w = waveform(node);
    return max_abs(w);
}

double TransientResult::peak_excursion(NodeId node) const {
    const VectorD w = waveform(node);
    double m = 0;
    for (double v : w) m = std::max(m, std::abs(v - w.front()));
    return m;
}

namespace {

// Internal capacitor bookkeeping (netlist capacitors + driver output caps).
struct CapState {
    NodeId a = 0, b = 0;
    double c = 0;
    double v_prev = 0; // v(a) - v(b)
    double i_prev = 0;
};

// One column u = e_a - e_b of the time-varying conductance stamp
// U·D(t)·Uᵀ: a driver's pull-up (out, vcc) or pull-down (out, gnd) device,
// or a table element's (a, b) linearization.
struct StampColumn {
    NodeId a = 0, b = 0;
};

// Largest 1-norm condition number of the r×r Woodbury matrix
// K = I + ΔD·S that a low-rank correction may solve through: its rounding,
// about κ·1e-16 relative, then stays well below the 1e-10 the correction is
// held to against a dense re-factorization. Past it the stepper re-factors
// at the current conductances instead (ΔD = 0 again).
constexpr double kMaxCorrectionCondition = 1e5;

double norm1(const MatrixD& a) {
    double m = 0;
    for (std::size_t j = 0; j < a.cols(); ++j) {
        double s = 0;
        for (std::size_t i = 0; i < a.rows(); ++i) s += std::abs(a(i, j));
        m = std::max(m, s);
    }
    return m;
}

// Inverse of the small r×r Woodbury matrix by Gauss-Jordan elimination with
// partial pivoting; false when a pivot vanishes. It stays out of the counted
// Lu so that lu.* metrics keep meaning order-n MNA factors and solves.
bool invert_small(MatrixD a, MatrixD& inv) {
    const std::size_t n = a.rows();
    inv = MatrixD::identity(n);
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t p = k;
        for (std::size_t i = k + 1; i < n; ++i)
            if (std::abs(a(i, k)) > std::abs(a(p, k))) p = i;
        if (a(p, k) == 0.0) return false;
        for (std::size_t j = 0; j < n; ++j) {
            std::swap(a(k, j), a(p, j));
            std::swap(inv(k, j), inv(p, j));
        }
        const double piv = a(k, k);
        for (std::size_t j = 0; j < n; ++j) {
            a(k, j) /= piv;
            inv(k, j) /= piv;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const double f = a(i, k);
            if (i == k || f == 0.0) continue;
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) -= f * a(k, j);
                inv(i, j) -= f * inv(k, j);
            }
        }
    }
    return true;
}

} // namespace

struct TransientStepper::Impl {
    const Netlist& nl;
    double dt;
    Integrator method;
    robust::RecoveryOptions ropt;
    robust::RecoveryReport report;
    MnaLayout lay;

    std::vector<CapState> caps;
    MatrixD lfull; // inductor coupling matrix (self + mutual)
    std::vector<std::unique_ptr<TlineState>> tstates;
    VectorD ind_i_prev, ind_v_prev;
    VectorD table_v;       // table linearization voltages (per element)
    MatrixD base_trap, base_be;
    bool have_trap = false, have_be = false;

    // The MNA matrix is M(t) = base + U·D(t)·Uᵀ, with D(t) the driver and
    // table conductances. One factor of M_ref = base + U·D_ref·Uᵀ serves
    // every step of an integrator; steps whose D differs solve through the
    // Woodbury identity with W = M_ref⁻¹·U and S = Uᵀ·W.
    std::vector<StampColumn> stamp_cols; // U: drivers (up, down), tables
    std::unique_ptr<Lu<double>> lu;      // factor of M_ref
    Integrator lu_method = Integrator::BackwardEuler;
    bool lu_valid = false;
    VectorD d_ref;   // conductances stamped in the factor
    MatrixD w, s_uw; // M_ref⁻¹·U (n × r) and Uᵀ·M_ref⁻¹·U (r × r)

    std::size_t step_count = 0;

    // Convergence streams (kStreamNone while recording is off; the opened_
    // flag keeps a capped-out recorder from re-opening every step).
    std::size_t newton_sid = obs::kStreamNone;   // Newton iterations per step
    std::size_t residual_sid = obs::kStreamNone; // final Newton residual
    std::size_t dt_sid = obs::kStreamNone;       // effective step size
    bool streams_opened = false;
    double last_newton_worst = 0;     // residual at Newton termination
    std::size_t last_step_substeps = 1; // > 1 when recover_step cut the step
    VectorD x;           // last MNA solution
    VectorD node_v_now;  // indexed by NodeId
    TransientStats stats;

    Impl(const Netlist& netlist, double dt_in, Integrator method_in,
         const robust::RecoveryOptions& ropt_in)
        : nl(netlist), dt(dt_in), method(method_in), ropt(ropt_in),
          lay(netlist) {
        PGSI_ALLOC_SCOPE("circuit.transient");
        PGSI_REQUIRE(dt > 0, "TransientStepper: dt must be positive");
        PGSI_REQUIRE(nl.sparam_blocks().empty(),
                     "TransientStepper: S-parameter blocks are AC-only; fit "
                     "them with vector_fit + stamp_foster_impedance first");
        for (const Capacitor& c : nl.capacitors())
            caps.push_back({c.a, c.b, c.c, 0, 0});
        for (const DriverInstance& d : nl.drivers())
            if (d.params.c_out > 0)
                caps.push_back({d.out, d.gnd, d.params.c_out, 0, 0});

        const std::size_t ni = nl.inductors().size();
        lfull = MatrixD(ni, ni);
        for (std::size_t k = 0; k < ni; ++k) lfull(k, k) = nl.inductors()[k].l;
        for (const MutualCoupling& mu : nl.mutuals()) {
            const double m = mu.k * std::sqrt(std::abs(nl.inductors()[mu.l1].l) *
                                              std::abs(nl.inductors()[mu.l2].l));
            lfull(mu.l1, mu.l2) += m;
            lfull(mu.l2, mu.l1) += m;
        }
        ind_i_prev.assign(ni, 0.0);
        ind_v_prev.assign(ni, 0.0);
        table_v.assign(nl.table_conductances().size(), 0.0);
        for (const DriverInstance& d : nl.drivers()) {
            stamp_cols.push_back({d.out, d.vcc});
            stamp_cols.push_back({d.out, d.gnd});
        }
        for (const TableConductance& tc : nl.table_conductances())
            stamp_cols.push_back({tc.a, tc.b});

        initialize_dc();
    }

    void initialize_dc() {
        PGSI_TRACE_SCOPE("transient.dcop");
        const DcSolution dc = dc_operating_point(nl, ropt, &report);
        node_v_now = dc.node_voltage;
        for (std::size_t k = 0; k < nl.table_conductances().size(); ++k) {
            const TableConductance& tc = nl.table_conductances()[k];
            table_v[k] = dc.v(tc.a) - dc.v(tc.b);
        }
        x.assign(lay.dim(), 0.0);
        for (NodeId n = 1; n < nl.node_count(); ++n) x[lay.node(n)] = dc.v(n);
        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            x[lay.inductor_current(k)] = dc.inductor_current[k];
            ind_i_prev[k] = dc.inductor_current[k];
            ind_v_prev[k] = 0.0;
        }
        for (std::size_t k = 0; k < nl.vsources().size(); ++k)
            x[lay.vsource_current(k)] = dc.vsource_current[k];
        for (CapState& c : caps) {
            c.v_prev = dc.v(c.a) - dc.v(c.b);
            c.i_prev = 0.0;
        }
        tstates.clear();
        for (const TlineInstance& t : nl.tlines()) {
            auto st = std::make_unique<TlineState>(*t.model, dt);
            const std::size_t n = t.near.size();
            VectorD vn(n), vf(n), in(n), inf(n);
            for (std::size_t c = 0; c < n; ++c) {
                vn[c] = dc.v(t.near[c]) - dc.v(t.near_ref);
                vf[c] = dc.v(t.far[c]) - dc.v(t.far_ref);
                const double i = kTlineDcShort * (dc.v(t.near[c]) - dc.v(t.far[c]));
                in[c] = i;
                inf[c] = -i;
            }
            st->initialize_dc(vn, in, vf, inf);
            tstates.push_back(std::move(st));
        }
    }

    double companion_scale(Integrator m) const {
        return m == Integrator::Trapezoidal ? 2.0 / dt : 1.0 / dt;
    }

    const MatrixD& base_matrix(Integrator m) {
        MatrixD& base = (m == Integrator::Trapezoidal) ? base_trap : base_be;
        bool& have = (m == Integrator::Trapezoidal) ? have_trap : have_be;
        if (have) return base;
        const double s = companion_scale(m);
        base = MatrixD(lay.dim(), lay.dim());

        for (const Resistor& r : nl.resistors())
            stamp_conductance(base, lay, r.a, r.b, 1.0 / r.r);
        for (const CapState& c : caps)
            stamp_conductance(base, lay, c.a, c.b, s * c.c);

        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            const Inductor& l = nl.inductors()[k];
            const std::size_t cur = lay.inductor_current(k);
            stamp_branch_incidence(base, lay, l.a, l.b, cur);
            base(cur, cur) -= l.r;
            for (std::size_t j = 0; j < nl.inductors().size(); ++j)
                if (lfull(k, j) != 0.0)
                    base(cur, lay.inductor_current(j)) -= s * lfull(k, j);
        }

        for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
            const VSource& v = nl.vsources()[k];
            stamp_branch_incidence(base, lay, v.a, v.b, lay.vsource_current(k));
        }

        for (const TlineInstance& t : nl.tlines()) {
            const MatrixD& yc = t.model->characteristic_admittance();
            const std::size_t n = t.near.size();
            auto stamp_end = [&](const std::vector<NodeId>& nodes, NodeId ref) {
                const std::size_t rr = lay.node(ref);
                for (std::size_t j = 0; j < n; ++j)
                    for (std::size_t k = 0; k < n; ++k) {
                        const double g = yc(j, k);
                        const std::size_t rj = lay.node(nodes[j]);
                        const std::size_t ck = lay.node(nodes[k]);
                        if (rj != MnaLayout::npos && ck != MnaLayout::npos)
                            base(rj, ck) += g;
                        if (rj != MnaLayout::npos && rr != MnaLayout::npos)
                            base(rj, rr) -= g;
                        if (rr != MnaLayout::npos && ck != MnaLayout::npos)
                            base(rr, ck) -= g;
                        if (rr != MnaLayout::npos) base(rr, rr) += g;
                    }
            };
            stamp_end(t.near, t.near_ref);
            stamp_end(t.far, t.far_ref);
        }
        have = true;
        return base;
    }

    // D(t): every driver's pull-up and pull-down conductance at time t, then
    // the table elements' Newton linearizations, in stamp_cols order.
    VectorD conductances(double t, const VectorD& table_g) const {
        VectorD d;
        d.reserve(stamp_cols.size());
        for (const DriverInstance& dr : nl.drivers()) {
            d.push_back(dr.params.g_up(t));
            d.push_back(dr.params.g_dn(t));
        }
        d.insert(d.end(), table_g.begin(), table_g.end());
        return d;
    }

    // Factor M_ref = base + U·diag(d)·Uᵀ and precompute W and S.
    void factor(Integrator m, const VectorD& d) {
        PGSI_TRACE_SCOPE("transient.factor");
        ++stats.lu_factorizations;
        MatrixD mat = base_matrix(m);
        for (std::size_t j = 0; j < stamp_cols.size(); ++j)
            stamp_conductance(mat, lay, stamp_cols[j].a, stamp_cols[j].b, d[j]);
        lu = std::make_unique<Lu<double>>(std::move(mat));
        lu_method = m;
        lu_valid = true;
        d_ref = d;
        if (ropt.condition_warn_threshold > 0)
            robust::check_condition(lu->condition_estimate(),
                                    "transient MNA matrix", ropt, &report);
        const std::size_t r = stamp_cols.size();
        if (r == 0) return;
        MatrixD u(lay.dim(), r);
        for (std::size_t j = 0; j < r; ++j) {
            const std::size_t ia = lay.node(stamp_cols[j].a);
            const std::size_t ib = lay.node(stamp_cols[j].b);
            if (ia != MnaLayout::npos) u(ia, j) += 1.0;
            if (ib != MnaLayout::npos) u(ib, j) -= 1.0;
        }
        w = lu->solve(u);
        ++stats.lu_solves;
        s_uw = u.transposed() * w;
    }

    // Solve M(t)·x = b at conductances d. With ΔD = d - d_ref on the active
    // columns A: y = M_ref⁻¹·b, c = (I + ΔD·S_AA)⁻¹·ΔD·U_Aᵀ·y, x = y - W_A·c.
    // The factor is rebuilt at d (so ΔD = 0) for a new integrator or dt, and
    // whenever the r×r matrix is too ill-conditioned to correct through.
    VectorD solve(Integrator m, const VectorD& d, const VectorD& b) {
        if (!lu_valid || m != lu_method) factor(m, d);
        std::vector<std::size_t> act;
        for (std::size_t j = 0; j < d.size(); ++j)
            if (d[j] != d_ref[j]) act.push_back(j);
        MatrixD kinv;
        if (!act.empty()) {
            MatrixD k(act.size(), act.size());
            for (std::size_t i = 0; i < act.size(); ++i) {
                const double dd = d[act[i]] - d_ref[act[i]];
                for (std::size_t j = 0; j < act.size(); ++j)
                    k(i, j) = dd * s_uw(act[i], act[j]);
                k(i, i) += 1.0;
            }
            const bool forced =
                robust::FaultInjector::should_fire("transient.lowrank");
            if (forced || !invert_small(k, kinv) ||
                norm1(k) * norm1(kinv) > kMaxCorrectionCondition) {
                factor(m, d);
                act.clear();
            }
        }
        VectorD x = lu->solve(b);
        ++stats.lu_solves;
        if (act.empty()) return x;
        VectorD g(act.size());
        for (std::size_t i = 0; i < act.size(); ++i) {
            const StampColumn& c = stamp_cols[act[i]];
            g[i] = (d[act[i]] - d_ref[act[i]]) * (node_v(x, c.a) - node_v(x, c.b));
        }
        const VectorD corr = kinv * g;
        for (std::size_t row = 0; row < x.size(); ++row) {
            double acc = 0;
            for (std::size_t i = 0; i < act.size(); ++i)
                acc += w(row, act[i]) * corr[i];
            x[row] -= acc;
        }
        return x;
    }

    double node_v(const VectorD& sol, NodeId n) const {
        const std::size_t i = lay.node(n);
        return i == MnaLayout::npos ? 0.0 : sol[i];
    }

    // Everything try_step mutates, captured so a failed step (or a failed
    // cut-timestep re-advance) can be rolled back and retried.
    struct Snapshot {
        std::vector<CapState> caps;
        VectorD ind_i_prev, ind_v_prev;
        VectorD table_v;
        VectorD x, node_v_now;
    };

    Snapshot take_snapshot() const {
        return {caps, ind_i_prev, ind_v_prev, table_v, x, node_v_now};
    }

    void restore(const Snapshot& s) {
        caps = s.caps;
        ind_i_prev = s.ind_i_prev;
        ind_v_prev = s.ind_v_prev;
        table_v = s.table_v;
        x = s.x;
        node_v_now = s.node_v_now;
    }

    // Change the step size, invalidating every dt-dependent cache.
    void set_dt(double new_dt) {
        if (new_dt == dt) return;
        dt = new_dt;
        have_trap = have_be = false;
        lu_valid = false;
    }

    // try_step plus the robustness envelope: the deterministic fault site
    // and, under Recover, conversion of a NumericalError (singular factor,
    // non-finite arithmetic) into a recoverable step failure.
    bool attempt(double t, Integrator m) {
        if (robust::FaultInjector::should_fire("transient.newton"))
            return false;
        try {
            return try_step(t, m);
        } catch (const NumericalError&) {
            if (ropt.policy == robust::RecoveryPolicy::Strict) throw;
            lu_valid = false; // the cached factor may be the one that failed
            return false;
        }
    }

    // Re-advance the failed step [t - dt, t] with a cut timestep: restore
    // the pre-step state and split the interval into timestep_cut_factor^L
    // backward-Euler substeps, deepening L up to max_timestep_cuts levels.
    // History values (capacitor/inductor voltages and currents) are physical
    // quantities at the substep times, so the step-size change is consistent.
    bool recover_step(const Snapshot& snap) {
        const double dt_full = dt;
        const double t0 = (step_count - 1) * dt_full;
        std::size_t nsub = 1;
        for (int level = 1; level <= ropt.max_timestep_cuts; ++level) {
            nsub *= static_cast<std::size_t>(ropt.timestep_cut_factor);
            restore(snap);
            set_dt(dt_full / static_cast<double>(nsub));
            bool ok = true;
            for (std::size_t i = 1; i <= nsub && ok; ++i)
                ok = attempt(t0 + dt_full * (static_cast<double>(i) /
                                             static_cast<double>(nsub)),
                             Integrator::BackwardEuler);
            if (ok) {
                set_dt(dt_full);
                ++stats.timestep_cuts;
                last_step_substeps = nsub;
                static obs::Counter& cuts =
                    obs::counter("transient.timestep_cuts");
                ++cuts;
                if (newton_sid != obs::kStreamNone)
                    obs::stream_mark(newton_sid, step_count * dt_full,
                                     "timestep_cut:" + std::to_string(nsub));
                robust::note_recovery(
                    &report, "transient.timestep_cut",
                    "step to t = " + std::to_string(step_count * dt_full) +
                        " s re-advanced with " + std::to_string(nsub) +
                        " backward-Euler substeps");
                return true;
            }
        }
        restore(snap);
        set_dt(dt_full);
        return false;
    }

    void advance() {
        // Cancellation point: one poll per time step, before any state of
        // this step is touched, so a cancelled run stops on a consistent
        // previous-step state.
        if (ropt.cancel != nullptr) ropt.cancel->poll("transient.step");
        const auto wall0 = std::chrono::steady_clock::now();
        PGSI_ALLOC_SCOPE("circuit.transient");
        if (!streams_opened && obs::streams_enabled()) {
            streams_opened = true;
            newton_sid = obs::stream_open("transient.newton");
            residual_sid = obs::stream_open("transient.residual");
            dt_sid = obs::stream_open("transient.dt");
        }
        const std::size_t newton0 = stats.newton_iterations;
        last_step_substeps = 1;
        ++step_count;
        const double t = step_count * dt;
        const Integrator m = (step_count == 1) ? Integrator::BackwardEuler : method;
        // Timestep cutting needs a rollback point, and is off for netlists
        // with transmission lines: their delay-line history is sampled at
        // the construction dt and cannot be re-gridded mid-run.
        const bool can_cut = ropt.policy == robust::RecoveryPolicy::Recover &&
                             ropt.max_timestep_cuts > 0 && tstates.empty();
        Snapshot snap;
        if (can_cut) snap = take_snapshot();
        if (!attempt(t, m)) {
            // Newton failure on a trapezoidal step: reject it and redo the
            // step with the maximally damped backward Euler companion before
            // cutting the timestep (the damped model is far less prone to
            // the oscillation that stalls the relaxation).
            bool recovered = false;
            if (m == Integrator::Trapezoidal) {
                ++stats.step_rejections;
                static obs::Counter& rejections =
                    obs::counter("transient.step_rejections");
                ++rejections;
                if (newton_sid != obs::kStreamNone)
                    obs::stream_mark(newton_sid, t, "be_retry");
                recovered = attempt(t, Integrator::BackwardEuler);
            }
            if (!recovered && can_cut) recovered = recover_step(snap);
            if (!recovered) {
                NumericalError err(
                    "transient: Newton iteration did not converge at t = " +
                    std::to_string(t));
                err.with_context("while advancing the transient to t = " +
                                 std::to_string(t) + " s");
                const std::string span = obs::current_span_path();
                if (!span.empty()) err.with_context("in span " + span);
                throw err;
            }
        }
        ++stats.steps;
        if (newton_sid != obs::kStreamNone)
            obs::stream_append(
                newton_sid, t,
                static_cast<double>(stats.newton_iterations - newton0));
        if (residual_sid != obs::kStreamNone)
            obs::stream_append(residual_sid, t, last_newton_worst);
        if (dt_sid != obs::kStreamNone)
            obs::stream_append(
                dt_sid, t,
                dt / static_cast<double>(last_step_substeps));
        stats.wall_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall0)
                .count();
    }

    // One attempt at the step ending at time t with integrator m. Returns
    // false when the Newton relaxation over the table elements does not
    // converge; stepper history is mutated only on success.
    bool try_step(double t, Integrator m) {
        const double s = companion_scale(m);
        const bool trap = m == Integrator::Trapezoidal;

        VectorD rhs(lay.dim(), 0.0);

        std::vector<double> cap_ihist(caps.size());
        for (std::size_t k = 0; k < caps.size(); ++k) {
            const CapState& c = caps[k];
            const double ihist =
                trap ? -(s * c.c * c.v_prev + c.i_prev) : -(s * c.c * c.v_prev);
            cap_ihist[k] = ihist;
            stamp_current(rhs, lay, c.a, -ihist);
            stamp_current(rhs, lay, c.b, +ihist);
        }

        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            double acc = 0;
            for (std::size_t j = 0; j < nl.inductors().size(); ++j)
                if (lfull(k, j) != 0.0) acc += lfull(k, j) * ind_i_prev[j];
            double r = -s * acc;
            if (trap) r -= ind_v_prev[k];
            rhs[lay.inductor_current(k)] += r;
        }

        for (std::size_t k = 0; k < nl.vsources().size(); ++k)
            rhs[lay.vsource_current(k)] += nl.vsources()[k].src.value(t);

        for (const ISource& i : nl.isources()) {
            const double v = i.src.value(t);
            stamp_current(rhs, lay, i.a, -v);
            stamp_current(rhs, lay, i.b, +v);
        }

        std::vector<VectorD> jn_near(nl.tlines().size()), jn_far(nl.tlines().size());
        for (std::size_t ti = 0; ti < nl.tlines().size(); ++ti) {
            const TlineInstance& tl = nl.tlines()[ti];
            jn_near[ti] = tl.model->norton_from_modal_emf(tstates[ti]->near_emf());
            jn_far[ti] = tl.model->norton_from_modal_emf(tstates[ti]->far_emf());
            for (std::size_t c = 0; c < tl.near.size(); ++c) {
                stamp_current(rhs, lay, tl.near[c], jn_near[ti][c]);
                stamp_current(rhs, lay, tl.near_ref, -jn_near[ti][c]);
                stamp_current(rhs, lay, tl.far[c], jn_far[ti][c]);
                stamp_current(rhs, lay, tl.far_ref, -jn_far[ti][c]);
            }
        }

        // Solve, with Newton iteration over the table elements when present.
        const std::size_t ntab = nl.table_conductances().size();
        constexpr int kMaxNewton = 40;
        last_newton_worst = 0;
        for (int iter = 0;; ++iter) {
            VectorD table_g(ntab);
            VectorD rhs_nl = rhs;
            for (std::size_t k = 0; k < ntab; ++k) {
                const TableConductance& tc = nl.table_conductances()[k];
                const double v = table_v[k];
                table_g[k] = tc.iv.slope(v);
                const double ieq = tc.iv(v) - table_g[k] * v;
                stamp_current(rhs_nl, lay, tc.a, -ieq);
                stamp_current(rhs_nl, lay, tc.b, +ieq);
            }
            x = solve(m, conductances(t, table_g), rhs_nl);
            if (!robust::all_finite(x)) {
                static obs::Counter& c_nonfinite =
                    obs::counter("robust.nonfinite_detected");
                ++c_nonfinite;
                if (ropt.policy == robust::RecoveryPolicy::Strict)
                    throw NumericalError(
                        "transient: non-finite MNA solution at t = " +
                        std::to_string(t));
                return false; // let the recovery ladder decide
            }
            if (ntab == 0) break;
            ++stats.newton_iterations;
            double worst = 0;
            for (std::size_t k = 0; k < ntab; ++k) {
                const TableConductance& tc = nl.table_conductances()[k];
                const double v = node_v(x, tc.a) - node_v(x, tc.b);
                worst = std::max(worst, std::abs(v - table_v[k]));
                table_v[k] += 0.8 * (v - table_v[k]);
            }
            last_newton_worst = worst;
            if (worst < 1e-9) break;
            if (iter >= kMaxNewton) return false;
        }

        for (std::size_t k = 0; k < caps.size(); ++k) {
            CapState& c = caps[k];
            const double v = node_v(x, c.a) - node_v(x, c.b);
            c.i_prev = s * c.c * v + cap_ihist[k];
            c.v_prev = v;
        }
        for (std::size_t k = 0; k < nl.inductors().size(); ++k) {
            const Inductor& l = nl.inductors()[k];
            ind_i_prev[k] = x[lay.inductor_current(k)];
            // Only the inductive part of the branch voltage enters the
            // trapezoidal history: v_L = (V_a - V_b) - R·I.
            ind_v_prev[k] =
                node_v(x, l.a) - node_v(x, l.b) - l.r * ind_i_prev[k];
        }
        for (std::size_t ti = 0; ti < nl.tlines().size(); ++ti) {
            const TlineInstance& tl = nl.tlines()[ti];
            const MatrixD& yc = tl.model->characteristic_admittance();
            const std::size_t n = tl.near.size();
            VectorD vn(n), vf(n);
            for (std::size_t c = 0; c < n; ++c) {
                vn[c] = node_v(x, tl.near[c]) - node_v(x, tl.near_ref);
                vf[c] = node_v(x, tl.far[c]) - node_v(x, tl.far_ref);
            }
            VectorD in = yc * vn;
            VectorD inf = yc * vf;
            for (std::size_t c = 0; c < n; ++c) {
                in[c] -= jn_near[ti][c];
                inf[c] -= jn_far[ti][c];
            }
            tstates[ti]->push(vn, in, vf, inf);
        }

        for (NodeId n = 1; n < nl.node_count(); ++n) node_v_now[n] = x[lay.node(n)];
        return true;
    }
};

TransientStepper::TransientStepper(const Netlist& nl, double dt,
                                   Integrator method,
                                   const robust::RecoveryOptions& recovery)
    : impl_(std::make_unique<Impl>(nl, dt, method, recovery)) {}

TransientStepper::~TransientStepper() = default;

void TransientStepper::step() { impl_->advance(); }

double TransientStepper::time() const { return impl_->step_count * impl_->dt; }

double TransientStepper::node_voltage(NodeId n) const {
    PGSI_REQUIRE(n < impl_->node_v_now.size(), "node_voltage: id out of range");
    return impl_->node_v_now[n];
}

double TransientStepper::vsource_current(std::size_t k) const {
    PGSI_REQUIRE(k < impl_->nl.vsources().size(), "vsource_current: bad index");
    return impl_->x[impl_->lay.vsource_current(k)];
}

double TransientStepper::inductor_current(std::size_t k) const {
    PGSI_REQUIRE(k < impl_->nl.inductors().size(), "inductor_current: bad index");
    return impl_->x[impl_->lay.inductor_current(k)];
}

const TransientStats& TransientStepper::stats() const { return impl_->stats; }

const robust::RecoveryReport& TransientStepper::recovery_report() const {
    return impl_->report;
}

std::size_t transient_step_count(double dt, double tstop) {
    // When tstop is an exact multiple of dt the quotient may land a hair
    // above the integer (1e-8/1e-9 = 10.000000000000002) and ceil would
    // append a step past tstop. Snap to the nearest integer when within a
    // relative ulp-scale tolerance of it.
    const double ratio = tstop / dt;
    const double nearest = std::round(ratio);
    return static_cast<std::size_t>(
        (nearest > 0 && std::abs(ratio - nearest) <= 1e-9 * nearest)
            ? nearest
            : std::ceil(ratio));
}

TransientResult transient_analyze(const Netlist& nl, const TransientOptions& opt) {
    PGSI_REQUIRE(opt.dt > 0, "transient: dt must be positive");
    PGSI_REQUIRE(opt.tstop > opt.dt, "transient: tstop must exceed dt");
    PGSI_TRACE_SCOPE("transient.run");

    TransientStepper stepper(nl, opt.dt, opt.method, opt.recovery);

    std::vector<NodeId> probes = opt.probes;
    if (probes.empty())
        for (NodeId n = 0; n < nl.node_count(); ++n) probes.push_back(n);

    TransientResult res;
    res.probes = probes;
    auto record = [&]() {
        res.time.push_back(stepper.time());
        VectorD row(probes.size());
        for (std::size_t k = 0; k < probes.size(); ++k)
            row[k] = stepper.node_voltage(probes[k]);
        res.samples.push_back(std::move(row));
    };
    record();

    const std::size_t steps = transient_step_count(opt.dt, opt.tstop);
    for (std::size_t s = 1; s <= steps; ++s) {
        stepper.step();
        record();
    }
    res.stats = stepper.stats();
    res.recovery = stepper.recovery_report();
    return res;
}

} // namespace pgsi
