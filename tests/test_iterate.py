import math
import sys
import time

import numpy as np
import pytest

import rayflow.flow
import rayflow.spaces
from helpers import hilbert_closed_form, record_states
from rayflow.errors import DegenerateInputError
from rayflow.iterate import (
    IterationRow,
    IterOptions,
    SchemeFailure,
    StopReason,
    Trace,
    Violation,
    check_monotonicity,
    iterate,
    measure_state,
    outer_loop,
    rough_mu,
)
from rayflow.flow import FlowOptions, run_flow
from rayflow.inner import SolveReport
from rayflow.oracles import direct_rayleigh_min
from rayflow.problems import (
    FractionalSeminorm1D,
    MatrixQuadratic,
    NeumannQuotient1D,
    PDirichlet1D,
    PDirichlet2D,
    Robin1D,
    Steklov1D,
    SupDirichlet1D,
    start_vector,
)
from rayflow.spaces import pow2_scale, unit_representative

TIGHT = IterOptions(rtol=1e-13, dtol=1e-10, max_iters=200, grad_tol=1e-12)


class TestMatrixGroundTruth:
    def test_iterates_match_closed_form(self, monkeypatch):
        sigmas = np.array([1.0, 2.0, 5.0])
        inst = MatrixQuadratic(np.diag(sigmas))
        states = record_states(monkeypatch, np.ones(3))
        trace, summary = iterate(inst, np.ones(3), TIGHT)
        assert summary.converged and len(states) == len(trace)
        for k, u in enumerate(states):
            expect = hilbert_closed_form(sigmas, np.ones(3), k=k)
            assert np.linalg.norm(u - expect) <= 1e-9 * np.linalg.norm(expect)
        assert summary.lambda_hat == pytest.approx(1.0, abs=1e-12)
        assert summary.mu_hat == pytest.approx(summary.lambda_hat, rel=1e-12)

    def test_limit_direction(self):
        inst = MatrixQuadratic(np.diag([1.0, 2.0, 5.0]))
        _, summary = iterate(inst, np.ones(3), TIGHT)
        w = summary.limit_vec
        assert np.linalg.norm(w / np.linalg.norm(w) - np.array([1.0, 0.0, 0.0])) <= 1e-8

    def test_restarting_from_minimizer_is_separable(self, monkeypatch):
        # from an exact minimizer w the unique solution is u_k = mu^-k w
        inst = MatrixQuadratic(np.diag([1.0, 2.0, 5.0]))
        w = np.array([1.0, 0.0, 0.0])
        opts = IterOptions(rtol=None, dtol=None, max_iters=10, grad_tol=1e-13)
        states = record_states(monkeypatch, w)
        iterate(inst, w, opts)
        assert len(states) == 11
        for k, u in enumerate(states):
            np.testing.assert_allclose(u, w, rtol=0, atol=1e-10)


class TestCollapse:
    def test_second_eigenvector_collapses(self):
        inst = MatrixQuadratic(np.diag([1.0, 2.0, 5.0]))
        opts = IterOptions(rtol=None, dtol=None, max_iters=1100, grad_tol=1e-12)
        trace, summary = iterate(inst, np.array([0.0, 1.0, 0.0]), opts)
        assert summary.stop_reason is StopReason.COLLAPSED_TO_ZERO
        assert not summary.converged
        np.testing.assert_array_equal(summary.limit_vec, 0.0)
        # norms contract exactly at rate 1/2 (the sigma = 2 eigenray)
        for row in trace.rows[: summary.steps]:
            assert row.norm == pytest.approx(0.5**row.k, rel=1e-10)

    def test_lambda_hat_is_the_quotient_before_the_collapse(self):
        # the collapsed state's own quotient (1, on the first eigenray) is
        # not the run's: lambda_hat is the start's 2.5
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        x = np.array([1.0, 1.0])
        trace = Trace(inst.p, [IterationRow(0, 1.0, inst.value(x), inst.rayleigh(x), math.nan, math.nan)])

        def step(k, x):  # onto the first eigenray, below COLLAPSE_NORM
            rep = SolveReport(np.array([1e-301, 0.0]), 0.0, 0, True)
            return rep, lambda norm, phi, rq: IterationRow(k, norm, phi, rq, 1.0, 0.0)

        summary = outer_loop(inst, x, x / np.sqrt(2.0), trace, step, math.log, 5, 1e-10, 1e-8, 30)
        assert summary.stop_reason is StopReason.COLLAPSED_TO_ZERO and summary.steps == 1
        assert trace.rows[-1].rq == 1.0 and summary.lambda_hat == trace.rows[0].rq == pytest.approx(2.5)


class TestInvariants:
    def test_scaling_equivariance(self):
        inst = PDirichlet1D(3.0, 9)
        _, s1 = iterate(inst, np.ones(9), TIGHT)
        _, s2 = iterate(inst, 250.0 * np.ones(9), TIGHT)
        assert s1.lambda_hat == pytest.approx(s2.lambda_hat, rel=1e-10)
        np.testing.assert_allclose(
            s1.limit_vec / np.linalg.norm(s1.limit_vec),
            s2.limit_vec / np.linalg.norm(s2.limit_vec),
            atol=1e-9,
        )

    def test_monotonicity_empty_on_converged_runs(self):
        insts = (MatrixQuadratic(np.diag([1.0, 4.0])), PDirichlet1D(1.5, 9), NeumannQuotient1D(3.0, 9), Robin1D(1.5, 9))
        for inst in insts:
            u0 = np.linspace(-1, 1, inst.space.dim) if inst.kind == "neumann1d" else np.ones(inst.space.dim)
            trace, summary = iterate(inst, u0)
            assert summary.converged
            assert check_monotonicity(trace, summary.mu_hat) == []

    @pytest.mark.parametrize("p, n", [(2.0, 127), (3.0, 127), (1.5, 63)])
    def test_limit_scale_is_the_last_steps(self, p, n):
        # the limit is mu_hat^K u_K at the last step K, so a run stopped at
        # the default rules has the scale of a long one; a scale averaged
        # over trailing steps would carry the start-up transient
        inst = PDirichlet1D(p, n)
        u0 = start_vector(inst, "auto", 0)
        _, summary = iterate(inst, u0)
        _, long = iterate(inst, u0, IterOptions(rtol=None, dtol=None, max_iters=60, grad_tol=1e-12))
        assert summary.converged and summary.steps < 60
        scale = inst.space.norm(summary.limit_vec)
        assert scale == pytest.approx(inst.space.norm(long.limit_vec), rel=1e-12, abs=0.0)

    def test_estimator_consistency(self):
        inst = PDirichlet1D(2.0, 9)
        trace, summary = iterate(inst, np.ones(9), TIGHT)
        assert abs(summary.mu_hat - trace.rows[-1].ratio) <= 1e-6 * summary.mu_hat

    def test_lambda_approaches_from_above(self):
        inst = PDirichlet1D(2.0, 9)
        res = direct_rayleigh_min(inst)
        _, summary = iterate(inst, np.ones(9))
        assert summary.lambda_hat >= res.lambda_star * (1.0 - 1e-6)
        for rtol in (1e-4, 1e-6):
            _, s = iterate(inst, np.ones(9), IterOptions(rtol=rtol, dtol=None))
            assert s.stop_reason is StopReason.RQ_STABLE
            assert s.lambda_hat >= res.lambda_star * (1.0 - 1e-6)


class TestCheckMonotonicity:
    def test_synthetic_rq_violation(self):
        trace = Trace(
            2.0,
            [
                IterationRow(0, 1.0, 1.0, 1.0, math.nan, math.nan),
                IterationRow(1, 0.5, 0.5, 2.0, 2.0, 1e-12),
            ],
        )
        violations = check_monotonicity(trace)
        assert len(violations) == 1
        assert violations[0].k == 1 and violations[0].quantity == "rq"

    @pytest.mark.parametrize("rise, flagged", [(1e-7, True), (1e-9, False)])
    def test_rq_rise_is_flagged_at_the_stated_slack(self, rise, flagged):
        # MONOTONE_SLACK = 1e-8 lies between the two rises; a slack of 1e-2
        # would pass both
        rows = [
            IterationRow(0, 1.0, 1.0, 3.0, math.nan, math.nan),
            IterationRow(1, 0.5, 0.5, 3.0 * (1.0 + rise), 2.0, 1e-12),
        ]
        assert [v.quantity for v in check_monotonicity(Trace(2.0, rows))] == (["rq"] if flagged else [])

    def test_single_row_trace(self):
        trace = Trace(2.0, [IterationRow(0, 1.0, 1.0, 1.0, math.nan, math.nan)])
        assert check_monotonicity(trace) == []

    def test_synthetic_ratio_violation(self):
        # the norm ratio rises from 2.0 to 2.5 while the quotient falls
        trace = Trace(
            2.0,
            [
                IterationRow(0, 1.0, 1.0, 1.0, math.nan, math.nan),
                IterationRow(1, 0.5, 0.2, 0.8, 2.0, 1e-12),
                IterationRow(2, 0.2, 0.03, 0.6, 2.5, 1e-12),
            ],
        )
        assert check_monotonicity(trace) == [Violation(2, "ratio", 0.25)]

    def test_scaled_norm_check_needs_mu(self):
        rows = [
            IterationRow(0, 1.0, 1.0, 1.0, math.nan, math.nan),
            IterationRow(1, 0.9, 0.5, 0.9, 1.11, 1e-12),
        ]
        trace = Trace(2.0, rows)
        assert check_monotonicity(trace) == []  # ratio/rq fine
        bad = check_monotonicity(trace, mu_hat=2.0)  # 0.9 > 1.0/2
        assert [v.quantity for v in bad] == ["scaled_norm"]


class TestShiftSolves:
    """outer_loop takes a state's norm and its direction from one quotient
    shift solve, and its Rayleigh quotient from the same one."""

    @staticmethod
    def _count(monkeypatch):
        # keyed by the state scaled by a power of 2 to max in [1/2, 1), so a
        # solve on an exactly scaled copy counts for the state itself
        calls: dict[bytes, int] = {}
        shift = rayflow.spaces.optimal_shift

        def counted(u, space):
            key = pow2_scale(u)[0].tobytes()
            calls[key] = calls.get(key, 0) + 1
            return shift(u, space)

        monkeypatch.setattr(rayflow.spaces, "optimal_shift", counted)
        return calls

    def test_iterate_solves_each_state_once_per_use(self, monkeypatch):
        # each iterate: one solve in outer_loop, one in the next step's duality map
        calls = self._count(monkeypatch)
        inst = NeumannQuotient1D(3.0, 31)
        states = record_states(monkeypatch, np.linspace(-1.0, 1.0, 31))
        iterate(inst, states[0])
        counts = [calls.get(pow2_scale(u)[0].tobytes(), 0) for u in states]
        assert counts == [2] * (len(counts) - 1) + [1]

    def test_flow_solves_each_state_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        inst = NeumannQuotient1D(3.0, 31)
        states = record_states(monkeypatch, np.linspace(-1.0, 1.0, 31))
        run_flow(inst, states[0], 1e-3, 0.02)
        assert [calls.get(pow2_scale(v)[0].tobytes(), 0) for v in states] == [1] * len(states)


GRID_KINDS = [PDirichlet1D, SupDirichlet1D, Robin1D, NeumannQuotient1D, Steklov1D, FractionalSeminorm1D, PDirichlet2D]


def _row_cases():
    matrix = MatrixQuadratic(np.diag([1.0, 2.0, 5.0]) + 0.1)
    cases = [(matrix, scale) for scale in (1e-100, 1.0, 1e100)]
    for make in GRID_KINDS:
        n = 4 if make is PDirichlet2D else 9
        cases += [(make(3.0, n), scale) for scale in (1e-100, 1.0, 1e100)]
        cases += [(make(20.0, n), scale) for scale in (1e-12, 1e12)]
    return cases


class TestRowMeasure:
    """outer_loop takes each row's quotient from the Phi and the norm of that row."""

    @pytest.mark.parametrize("scheme", ["iterate", "flow"])
    @pytest.mark.parametrize(
        "inst, scale", _row_cases(), ids=lambda c: c.kind + f"-p{c.p:g}" if hasattr(c, "kind") else f"{c:g}"
    )
    def test_rows_match_the_states(self, monkeypatch, inst, scale, scheme):
        # rq is inst.rayleigh(x) and the norm column space.norm(x) to the
        # bit; phi is Phi(x) up to rounding
        u0 = scale * start_vector(inst, "auto", 0)
        states = record_states(monkeypatch, u0)
        if scheme == "iterate":
            trace, _ = iterate(inst, u0, IterOptions(rtol=None, dtol=None, max_iters=4))
        else:
            trace, _ = run_flow(inst, u0, 1e-3, 4e-3, FlowOptions(rtol=None, dtol=None))
        assert len(states) == len(trace.rows) == 5
        for row, x in zip(trace.rows, states):
            assert row.rq == inst.rayleigh(x)
            assert row.phi == pytest.approx(inst.value(x), rel=1e-14)
            assert row.norm == inst.space.norm(x)

    @pytest.mark.parametrize("call", ["rayleigh", "iterate", "flow"])
    def test_underflowing_norm_power_is_named(self, call):
        # the trace norm is nonzero, but its p-th power underflows to 0 at
        # y = u / 2^k: a named error, not a bare ZeroDivisionError
        inst = Steklov1D(2.0, 6)
        u = np.ones(6)
        u[[0, -1]] = 1e-200
        run = {"rayleigh": inst.rayleigh, "iterate": lambda x: iterate(inst, x), "flow": lambda x: run_flow(inst, x, 0.01, 1.0)}
        with pytest.raises(DegenerateInputError, match=r"^Rayleigh quotient undefined: \|\|y\|\|\^p underflows at \|\|y\|\| = 7.07e-201"):
            run[call](u)

    @pytest.mark.parametrize(
        "inst", [NeumannQuotient1D(3.0, 9), Steklov1D(1.5, 9), SupDirichlet1D(3.0, 9), FractionalSeminorm1D(8.0, 9)],
        ids=lambda c: c.kind,
    )
    def test_limit_direction_keeps_its_bits(self, inst):
        # the limit is exp(K log_rate(mu_hat) + log ||x_K||) times the unit
        # representative of the last state, with the bits of the one taken
        # on the state itself
        rng = np.random.default_rng(3)
        states = [10.0 ** rng.uniform(-200, 200) * rng.standard_normal(9) for _ in range(4)]
        trace = Trace(inst.p)
        x_hat, norm, phi, rq = measure_state(inst, states[0])
        trace.rows.append(IterationRow(0, norm, phi, rq, math.nan, math.nan))

        def step(k, x):
            return SolveReport(states[k], 0.0, 0, True), lambda norm, phi, rq: IterationRow(k, norm, phi, rq, 1.0, 0.0)

        summary = outer_loop(inst, states[0], x_hat, trace, step, lambda mu: 0.5, 3, None, None, 30)
        assert summary.steps == 3 and [r.norm for r in trace.rows] == [inst.space.norm(x) for x in states]
        x_hat = unit_representative(inst.space, *inst.space.representative_norm(states[-1]))
        scale = math.exp(3 * 0.5 + math.log(inst.space.norm(states[-1])))
        assert summary.limit_vec.tobytes() == (scale * x_hat).tobytes()

    @pytest.mark.parametrize("inst", [NeumannQuotient1D(3.0, 9), FractionalSeminorm1D(3.0, 9)], ids=lambda c: c.kind)
    def test_one_value_and_no_rayleigh_per_step(self, monkeypatch, inst):
        # with the solves stubbed out, the schemes evaluate Phi once per row
        calls = {"value": 0, "rayleigh": 0}
        for name in calls:

            def counted(u, _f=getattr(inst, name), _name=name):
                calls[_name] += 1
                return _f(u)

            monkeypatch.setattr(inst, name, counted)

        def solve(inst, xi, tol, init):
            return SolveReport(init, 0.0, 0, True)

        def move(inst, v, tau, tol, carry, init, slope):
            return SolveReport(v / 2.0 if init is None else init, 0.0, 0, True, slope=1.0)

        monkeypatch.setattr(sys.modules["rayflow.iterate"], "minimize_phi_minus_linear", solve)
        monkeypatch.setattr(rayflow.flow, "minimize_movement", move)
        u0 = start_vector(inst, "auto", 0)
        iterate(inst, u0, IterOptions(rtol=None, dtol=None, max_iters=6))
        assert calls == {"value": 7, "rayleigh": 0}
        run_flow(inst, u0, 1e-3, 6e-3, FlowOptions(rtol=None, dtol=None))
        assert calls == {"value": 14, "rayleigh": 0}


class TestGuards:
    @pytest.mark.parametrize("max_iters", [2.5, 3.0])
    def test_max_iters_must_be_an_integer(self, max_iters):
        with pytest.raises(DegenerateInputError, match="max_iters"):
            IterOptions(max_iters=max_iters)

    def test_zero_start_rejected(self):
        inst = PDirichlet1D(2.0, 5)
        with pytest.raises(DegenerateInputError):
            iterate(inst, np.zeros(5))

    def test_steklov_interior_start_rejected(self):
        # trace norm of an interior-supported vector is zero
        inst = Steklov1D(2.0, 6)
        u0 = np.zeros(6)
        u0[2] = 1.0
        with pytest.raises(DegenerateInputError):
            iterate(inst, u0)

    def test_non_finite_limit_is_refused(self):
        # a limit scale outside the double range must not hand back a
        # non-finite limit vector
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        x = np.array([1.0, 0.0])
        trace = Trace(inst.p, [IterationRow(0, 1.0, inst.value(x), inst.rayleigh(x), math.nan, math.nan)])

        def step(k, x):  # stays on the ground ray
            return SolveReport(x, 0.0, 0, True), lambda norm, phi, rq: IterationRow(k, norm, phi, rq, 1.0, 0.0)

        with pytest.warns(RuntimeWarning, match="invalid value"):  # inf * 0
            with pytest.raises(DegenerateInputError, match="rescaled limit vector has non-finite entries"):
                outer_loop(inst, x, x, trace, step, lambda mu: math.inf, 5, 1e-10, 1e-8, 30)

    @pytest.mark.parametrize("scheme", ["iterate", "flow"])
    def test_unconverged_solve_fails_in_outer_loop(self, monkeypatch, scheme):
        # either scheme's failed solve raises the one SchemeFailure of
        # outer_loop, holding the rows before the failed step
        reports = iter([SolveReport(np.full(9, 0.5), 1e-12, 3, True), SolveReport(np.ones(9), 1.5e-3, 7, False)])
        monkeypatch.setattr(sys.modules["rayflow.iterate"], "minimize_phi_minus_linear", lambda *a, **k: next(reports))
        monkeypatch.setattr(rayflow.flow, "minimize_movement", lambda *a, **k: next(reports))
        inst = PDirichlet1D(3.0, 9)
        message = r"^pdirichlet1d: inner solve failed to converge at outer step 2 \(merit 1\.500e-03\)$"
        with pytest.raises(SchemeFailure, match=message) as failure:
            if scheme == "iterate":
                iterate(inst, np.ones(9), IterOptions(rtol=None, dtol=None))
            else:
                run_flow(inst, np.ones(9), 1e-3, 1e-2)
        assert len(failure.value.trace) == 2

    def test_rough_mu(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        mu = rough_mu(inst, np.ones(2))
        assert 1.0 <= mu <= 2.6

    @pytest.mark.parametrize(
        "inst", [PDirichlet1D(1.1, 31), Robin1D(1.2, 31)], ids=["pdirichlet1d-p1.1", "robin1d-p1.2"]
    )
    def test_near_one_ends_within_5s(self, inst):
        # as p -> 1 the primal residual is ill-conditioned even at the exact
        # flux solution; the run must converge or fail, not grind on
        start = time.perf_counter()
        try:
            _, summary = iterate(inst, np.ones(inst.space.dim))
            assert summary.converged
        except SchemeFailure:
            pass
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("n", [2047, 8191])
    def test_stalled_inner_solve_fails_fast_naming_kind(self, n):
        # at p = 1.5 and large n the exact flux point misses grad_tol on the
        # recomputed primal residual, and descend cannot get below its
        # rounding floor either; it must give up, not grind on for seconds
        inst = PDirichlet1D(1.5, n)
        u0 = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
        start = time.perf_counter()
        with pytest.raises(SchemeFailure, match=r"pdirichlet1d: .* \(merit \d\.\d{3}e-\d+\)") as failure:
            iterate(inst, u0)
        assert time.perf_counter() - start < 2.0
        # descend starts from the exact flux point and reports no worse a
        # merit than that point's (up to the 4 printed digits)
        xi = inst.space.duality_map(u0)
        s = inst.space.dual_norm(xi)
        v0, _ = inst.solve_gradient(xi / s)
        start_merit = s * inst.space.dual_norm(inst.gradient(v0) - xi / s)
        reported = float(str(failure.value).rsplit("merit ", 1)[1].rstrip(")"))
        assert reported <= start_merit * (1.0 + 5e-4)

    def test_overflowing_dual_is_refused(self):
        # |u|^19 overflows at this scale: the duality map refuses the
        # non-finite dual instead of passing it to the inner solve
        n = 15
        u0 = 1e20 * np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DegenerateInputError, match="dual vector has non-finite entries"):
                iterate(PDirichlet1D(20.0, n), u0)

    def test_overflowing_quotient_at_the_start(self):
        # Phi overflows at u0 / 2^k itself, so the quotient does: refused
        # before the first step, with no RuntimeWarning
        with pytest.raises(DegenerateInputError, match="^Phi at the start is not finite$"):
            iterate(PDirichlet1D(3.0, 15, L=1e-200), np.ones(15))

    @pytest.mark.parametrize("p, n, L", [(1.1, 7, 1e-30), (1.05, 15, 1e-20)])
    def test_overflowing_mu_is_refused(self, p, n, L):
        # the warm start divides by mu = lambda^(1/(p-1)), past the double range
        with pytest.raises(DegenerateInputError, match=f"overflows at lambda = .*, p = {p}$"):
            iterate(PDirichlet1D(p, n, L=L), np.ones(n))

    def test_non_finite_minimizer_is_refused(self):
        # lambda is about 1e-99, so each step grows the state about 1e99-fold:
        # step 3's norm overflows, then step 4's warm start u/mu, whose
        # minimizer is nan; the failure keeps the rows of steps 0 to 3
        with np.errstate(all="ignore"), pytest.raises(SchemeFailure, match="at outer step 4 is not finite$") as failure:
            iterate(PDirichlet1D(2.0, 5, L=1e50), np.ones(5))
        assert [row.k for row in failure.value.trace.rows] == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "inst, u0, lam",
        [
            (MatrixQuadratic(np.diag([1.0, 4.0])), 1e300 * np.ones(2), 1.0),
            (PDirichlet1D(2.0, 3, L=1e-3), 1e305 * np.ones(3), 4.0 / 2.5e-4**2 * math.sin(math.pi / 8.0) ** 2),
        ],
        ids=["matrix-1e300", "pdirichlet1d-1e305"],
    )
    def test_huge_start_converges(self, inst, u0, lam):
        # Phi of the start overflows, yet the scheme converges
        with pytest.warns(RuntimeWarning, match="overflow"):
            _, summary = iterate(inst, u0)
        assert summary.converged
        assert summary.lambda_hat == pytest.approx(lam, rel=1e-12)

    def test_neumann_p12_converges(self):
        # the iterate shrinks about 346x per step: the quotient shift must stay
        # exact down to max|u| ~ 1e-16, or the quotient falls into a 2-cycle
        _, summary = iterate(NeumannQuotient1D(1.2, 31), np.linspace(-1.0, 1.0, 31))
        assert summary.converged and summary.steps < 20
        assert summary.lambda_hat == pytest.approx(3.220964201675858, rel=1e-12)
