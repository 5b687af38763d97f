"""Per-evaluation code against its reference expressions, bit for bit.

The space primitives, the chain and fractional energies and the Newton
matrix call ndarray methods and ufuncs, not numpy's Python-level wrappers
(``np.sum``, ``np.max``, ``np.diff``, ``np.diag``, ...).  Each wrapper
dispatches to the same C reduction, so the results must not move by a
single bit.  The reference functions below keep the wrapper-based
expressions; every test compares the bytes of the results, so a reordered
sum or a changed rounding step fails here.  The fractional references
compute each state's weighted kernel K |t|^(p-2) and flux from scratch,
where the instance caches them per state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hessian_matrix
from rayflow.inner import _Newton
from rayflow.problems import (
    FractionalSeminorm1D,
    MatrixQuadratic,
    NeumannQuotient1D,
    PDirichlet1D,
    Robin1D,
    Steklov1D,
    SupDirichlet1D,
    _power_sum,
)
from rayflow.spaces import (
    Exponent,
    SpaceDescriptor,
    SpaceKind,
    _scaled_pnorm,
    optimal_shift,
    signed_power,
    smoothed_curvature,
)

CHAIN_KINDS = [PDirichlet1D, SupDirichlet1D, Robin1D, NeumannQuotient1D, Steklov1D]


def ref_scaled_pnorm(v, w, p):
    m = float(np.max(np.abs(v))) if np.size(v) else 0.0
    if m == 0.0 or not math.isfinite(m):
        return m
    return m * float(np.sum(w * np.abs(v / m) ** p) ** (1.0 / p))


def ref_representative_norm(space, u):
    p = space.exponent.p
    if space.kind is SpaceKind.SUP:
        return u, float(np.max(np.abs(u)))
    if space.kind is SpaceKind.TRACE_BOUNDARY:
        return u, ref_scaled_pnorm(u[list(space.boundary)], np.ones(len(space.boundary)), p)
    if space.kind is SpaceKind.QUOTIENT_LP:
        u = u + optimal_shift(u, space)
    return u, ref_scaled_pnorm(u, space.weight, p)


def ref_dual_norm(space, xi):
    if space.kind is SpaceKind.SUP:
        return float(np.sum(np.abs(xi)))
    w = space.pairing_weights()
    if space.kind is SpaceKind.QUOTIENT_LP:
        xi = xi - np.sum(w * xi) / np.sum(w)
    return ref_scaled_pnorm(xi, w, space.exponent.q)


def ref_power_sum(t, p, weight=1.0):
    return float(np.sum(np.abs(t) ** p * weight))


def ref_diffs(inst, u):
    if inst.zero_padded:
        u = np.concatenate(([0.0], u, [0.0]))
    return np.diff(u) / inst.h


def ref_chain_value(inst, u):
    p = inst.p
    phi = (inst.h / p) * ref_power_sum(ref_diffs(inst, u), p)
    if inst.ground is not None:
        phi += (inst.mass / p) * ref_power_sum(u[inst.ground], p)
    return phi


def ref_chain_gradient(inst, u):
    p = inst.p
    k = inst._free_ends(signed_power(ref_diffs(inst, u), p - 1.0))
    g = k[:-1] - k[1:]
    if inst.ground is not None:
        g[inst.ground] += inst.mass * signed_power(u[inst.ground], p - 1.0)
    return g / inst.space.pairing_weights()


def ref_fractional_state(inst, u):
    """The pair differences t, a = K |t|^(p-2) (0 at t = 0 for p < 2) and the flux a t."""
    p = inst.p
    t = np.concatenate((np.subtract.outer(u, u), u[:, None]), axis=1)
    if p < 2.0:
        a = np.where(t == 0.0, 0.0, np.power(np.where(t == 0.0, 1.0, np.abs(t)), p - 2.0))
    else:
        a = np.power(np.abs(t), p - 2.0)
    a = a * inst._kernel
    return t, a, a * t


def ref_fractional_value(inst, u):
    t, _, flux = ref_fractional_state(inst, u)
    m = flux * t
    return (inst.h * inst.h / inst.p) * float(np.sum(m) + np.sum(m[:, -1]))


def ref_fractional_gradient(inst, u):
    return 2.0 * inst.h * np.sum(ref_fractional_state(inst, u)[2], axis=1)


def ref_fractional_hessian(inst, u):
    t, a, _ = ref_fractional_state(inst, u)
    m = (inst.p - 1.0) * a if inst.p >= 2.0 else smoothed_curvature(t, inst.p) * inst._kernel
    return 2.0 * inst.h * inst.h * (np.diag(np.sum(m, axis=1)) - m[:, :-1])


def ref_newton_direction(inst, extra, x, r):
    """The dense Newton direction as ``_Newton`` built it with np.diag (first call: no shortening)."""
    w = inst.space.pairing_weights()
    hess = inst.matrix if inst.kind == "matrix" else ref_fractional_hessian(inst, x)
    a = hess + np.diag(extra(x))
    try:
        d = np.linalg.solve(a, -w * r)
    except np.linalg.LinAlgError:
        return None
    return d if np.all(np.isfinite(d)) and float((w * r * d).sum()) < 0.0 else None


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


exponents = st.floats(1.0, 20.0, exclude_min=True)


@st.composite
def vectors(draw, min_size=2, max_size=12):
    """Entries 0 or +-10^e, e within 4 decades of a common scale in [-150, 150]."""
    e0 = draw(st.floats(-150.0, 150.0))
    entry = st.tuples(st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-4.0, 4.0))
    entries = draw(st.lists(entry, min_size=min_size, max_size=max_size))
    return np.array([s * 10.0 ** min(150.0, max(-150.0, e0 + e)) for s, e in entries])


def spaces(n, p):
    exp = Exponent(p)
    return [
        SpaceDescriptor(SpaceKind.WEIGHTED_LP, n, exp, weight=0.3),
        SpaceDescriptor(SpaceKind.QUOTIENT_LP, n, exp, weight=0.3),
        SpaceDescriptor(SpaceKind.SUP, n, exp),
        SpaceDescriptor(SpaceKind.TRACE_BOUNDARY, n, exp, weight=0.3, boundary=(0, n - 1)),
    ]


@settings(max_examples=100, deadline=None)
@given(vectors(min_size=0), exponents)
def test_scaled_pnorm(v, p):
    w = np.linspace(0.5, 1.5, len(v))
    assert same_bits(_scaled_pnorm(v, w, p), ref_scaled_pnorm(v, w, p))
    assert same_bits(_scaled_pnorm(v, 0.3, p), ref_scaled_pnorm(v, 0.3, p))


@settings(max_examples=100, deadline=None)
@given(vectors(), exponents)
def test_space_norms(u, p):
    for space in spaces(len(u), p):
        assert same_bits(space.dual_norm(u), ref_dual_norm(space, u)), space.kind
        t, n = space.representative_norm(u)
        t_ref, n_ref = ref_representative_norm(space, u)
        assert same_bits(t, t_ref) and same_bits(n, n_ref), space.kind


@settings(max_examples=100, deadline=None)
@given(vectors(min_size=1), exponents)
def test_power_sum(t, p):
    w = np.linspace(0.5, 1.5, len(t))
    with np.errstate(over="ignore"):
        assert same_bits(_power_sum(t, p), ref_power_sum(t, p))
        assert same_bits(_power_sum(t, p, w), ref_power_sum(t, p, w))


@pytest.mark.parametrize("make", CHAIN_KINDS, ids=lambda c: c.kind)
@settings(max_examples=60, deadline=None)
@given(u=vectors(), p=exponents)
def test_chain_energy(make, u, p):
    inst = make(p, len(u))
    with np.errstate(all="ignore"):
        assert same_bits(inst._diffs(u), ref_diffs(inst, u))
        assert same_bits(inst.value(u), ref_chain_value(inst, u))
        assert same_bits(inst._gradient(u), ref_chain_gradient(inst, u))


@settings(max_examples=80, deadline=None)
@given(vectors(), exponents)
def test_fractional_hessian(u, p):
    inst = FractionalSeminorm1D(p, len(u))
    with np.errstate(all="ignore"):
        assert same_bits(hessian_matrix(inst.hessian(u)), ref_fractional_hessian(inst, u))


@settings(max_examples=80, deadline=None)
@given(vectors(), exponents)
def test_fractional_value_and_gradient(u, p):
    inst = FractionalSeminorm1D(p, len(u))
    with np.errstate(all="ignore"):
        assert same_bits(inst.value(u), ref_fractional_value(inst, u))
        assert same_bits(inst._gradient(u), ref_fractional_gradient(inst, u))


@settings(max_examples=80, deadline=None)
@given(vectors(min_size=3, max_size=8), vectors(min_size=8, max_size=8), exponents, st.booleans())
def test_newton_dense_matrix(x, r, p, fractional):
    """The Newton matrix H + diag(extra) of the movement solve, through its solve."""
    n = len(x)
    if fractional:
        inst = FractionalSeminorm1D(p, n)
    else:
        b = np.cos(np.outer(np.arange(n), np.arange(1, n + 1)))
        inst = MatrixQuadratic(b.T @ b / n + np.eye(n))
    r = r[:n] / max(1.0, float(np.abs(r).max()))

    def extra(v):
        return smoothed_curvature(v - 0.5, inst.p)

    with np.errstate(all="ignore"):
        ref = ref_newton_direction(inst, extra, x, r)
    assert same_bits(_Newton(inst, extra)(x, r), ref)
