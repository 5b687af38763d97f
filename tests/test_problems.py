import inspect
import math

import numpy as np
import pytest

from helpers import euler_identity_residual, hessian_matrix
from rayflow.errors import ConfigError, DegenerateInputError, NumericsError
from rayflow import problems
from rayflow.problems import (
    BandHessian,
    FractionalSeminorm1D,
    MatrixQuadratic,
    NeumannQuotient1D,
    PDirichlet1D,
    PDirichlet2D,
    Robin1D,
    Steklov1D,
    SupDirichlet1D,
    INSTANCE_KEYS,
    _increasing_root,
    assemble,
)
from rayflow.spaces import SpaceKind, smoothed_curvature

RNG = np.random.default_rng(42)


def sample_instances():
    out = []
    for p in (1.5, 2.0, 3.0):
        out += [
            PDirichlet1D(p, 9),
            PDirichlet2D(p, 3),
            FractionalSeminorm1D(p, 8, s=0.6),
            Robin1D(p, 8, beta=0.5),
            NeumannQuotient1D(p, 8),
            SupDirichlet1D(p, 9),
            Steklov1D(p, 8),
        ]
    out.append(MatrixQuadratic([[2.0, 1.0], [1.0, 3.0]]))
    return out


class TestValues:
    def test_pdirichlet_single_node(self):
        inst = PDirichlet1D(2.0, 1, L=1.0)
        # h = 1/2, two cells of slope +-2
        assert inst.value([1.0]) == pytest.approx(2.0, rel=1e-15)

    def test_degree_is_the_space_degree(self):
        for inst in sample_instances():
            assert (inst.p, inst.q) == (inst.space.p, inst.space.q) == (inst.p, inst.p / (inst.p - 1.0))

    def test_zero_vector_gives_zero(self):
        for inst in sample_instances():
            assert inst.value(np.zeros(inst.space.dim)) == 0.0

    def test_matrix_quadratic(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        assert inst.value([1.0, 1.0]) == pytest.approx(2.5)

    def test_positive_on_nonzero(self):
        for inst in sample_instances():
            u = RNG.standard_normal(inst.space.dim)
            if inst.space.kind is SpaceKind.QUOTIENT_LP:
                u -= np.mean(u)
            assert inst.value(u) > 0.0


class TestGradients:
    def test_matrix_gradient(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        np.testing.assert_allclose(inst.gradient([1.0, 1.0]), [1.0, 4.0])

    def test_non_finite_gradient_names_its_index(self):
        u = np.array([1e200, 0.0, 0.0, 0.0, 0.0])
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="at index 0$"):
            PDirichlet1D(3.0, 5).gradient(u)

    def test_gradient_at_zero(self):
        for inst in sample_instances():
            np.testing.assert_array_equal(inst.gradient(np.zeros(inst.space.dim)), 0.0)

    def test_finite_differences(self):
        # central differences at step 1e-6 reproduce the pairing-weighted
        # analytic gradient to 1e-5 relative
        rng = np.random.default_rng(7)
        for inst in sample_instances():
            w = inst.space.pairing_weights()
            for _ in range(3):
                u = rng.standard_normal(inst.space.dim)
                g = w * inst.gradient(u)
                fd = np.zeros_like(g)
                for i in range(len(u)):
                    e = np.zeros_like(u)
                    e[i] = 1e-6
                    fd[i] = (inst.value(u + e) - inst.value(u - e)) / 2e-6
                assert np.max(np.abs(g - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1e-12)

    def test_quotient_gradient_annihilates_constants(self):
        # Phi is shift-invariant on the quotient space, so its gradient is a
        # dual vector that pairs to zero with the constants
        inst = NeumannQuotient1D(3.0, 8)
        g = inst.gradient(RNG.standard_normal(8))
        assert g.shape == (8,)
        assert abs(inst.space.pairing(g, np.ones(8))) <= 1e-12 * inst.space.dual_norm(g) * 8


class TestEulerIdentity:
    def test_matrix(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        for _ in range(10):
            u = RNG.standard_normal(2)
            assert euler_identity_residual(inst, u) <= 1e-12

    def test_all_kinds(self):
        rng = np.random.default_rng(11)
        for inst in sample_instances():
            for _ in range(20):
                u = rng.standard_normal(inst.space.dim)
                assert euler_identity_residual(inst, u) <= 1e-9

    def test_zero(self):
        inst = PDirichlet1D(3.0, 5)
        assert euler_identity_residual(inst, np.zeros(5)) == 0.0


class TestHomogeneityAndConvexity:
    def test_homogeneity(self):
        rng = np.random.default_rng(13)
        for inst in sample_instances():
            u = rng.standard_normal(inst.space.dim)
            base = inst.value(u)
            for t in (0.5, 2.0, 10.0):
                assert inst.value(t * u) == pytest.approx(t**inst.p * base, rel=1e-10)

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(14)
        for inst in sample_instances():
            u = rng.standard_normal(inst.space.dim)
            v = rng.standard_normal(inst.space.dim)
            lhs = inst.value(0.5 * (u + v))
            rhs = 0.5 * inst.value(u) + 0.5 * inst.value(v)
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    def test_neumann_shift_invariance(self):
        inst = NeumannQuotient1D(2.5, 9)
        rng = np.random.default_rng(15)
        for _ in range(25):
            u = rng.standard_normal(9)
            c = float(rng.uniform(-10, 10))
            assert inst.value(u + c) == pytest.approx(inst.value(u), rel=1e-10)

    def test_homogeneous_cauchy_schwarz(self):
        # <dPhi(u), v> <= (p Phi(u))^(1-1/p) (p Phi(v))^(1/p), tight on rays
        rng = np.random.default_rng(16)
        for inst in sample_instances():
            p = inst.p
            u = rng.standard_normal(inst.space.dim)
            v = rng.standard_normal(inst.space.dim)
            zeta = inst.gradient(u)
            rhs = (p * inst.value(u)) ** (1 - 1 / p) * (p * inst.value(v)) ** (1 / p)
            assert inst.space.pairing(zeta, v) <= rhs + 1e-9 * max(1.0, rhs)
            t = 1.7
            lhs_eq = inst.space.pairing(zeta, t * u)
            rhs_eq = (p * inst.value(u)) ** (1 - 1 / p) * (p * inst.value(t * u)) ** (1 / p)
            assert lhs_eq == pytest.approx(rhs_eq, rel=1e-8)


class TestRayleigh:
    def test_matrix_values(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        assert inst.rayleigh(np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert inst.rayleigh(np.array([0.0, 1.0])) == pytest.approx(4.0)
        assert inst.rayleigh(np.array([1.0, 1.0])) == pytest.approx(2.5)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(17)
        for inst in sample_instances():
            u = rng.standard_normal(inst.space.dim)
            base = inst.rayleigh(u)
            for c in (1e-6, 0.1, 1e8):
                assert inst.rayleigh(c * u) == pytest.approx(base, rel=1e-10)

    def test_zero_rejected(self):
        inst = PDirichlet1D(2.0, 4)
        with pytest.raises(DegenerateInputError):
            inst.rayleigh(np.zeros(4))


class TestAssemble:
    def test_pdirichlet(self):
        inst = assemble({"kind": "pdirichlet1d", "p": 2.0, "n": 3, "L": 1.0})
        assert inst.space.dim == 3
        assert inst.h == pytest.approx(0.25)

    def test_kind_spaces(self):
        pairs = {
            "pdirichlet1d": SpaceKind.WEIGHTED_LP,
            "pdirichlet2d": SpaceKind.WEIGHTED_LP,
            "fractional1d": SpaceKind.WEIGHTED_LP,
            "robin1d": SpaceKind.WEIGHTED_LP,
            "neumann1d": SpaceKind.QUOTIENT_LP,
            "supdirichlet1d": SpaceKind.SUP,
            "steklov1d": SpaceKind.TRACE_BOUNDARY,
        }
        for kind, space_kind in pairs.items():
            inst = assemble({"kind": kind, "p": 2.0, "n": 4})
            assert inst.space.kind is space_kind

    def test_steklov_ends_are_int_node_indices(self):
        # assemble passes n as a float; the boundary must still be node indices
        space = assemble({"kind": "steklov1d", "p": 3, "n": 7}).space
        assert [type(i) for i in space.boundary] == [int, int]
        assert np.arange(7.0)[list(space.boundary)].tolist() == [0.0, 6.0]

    def test_matrix_requires_symmetry(self):
        with pytest.raises(ConfigError, match="matrix"):
            assemble({"kind": "matrix", "matrix": [[1.0, 2.0], [0.0, 1.0]]})

    def test_matrix_requires_spd(self):
        with pytest.raises(ConfigError, match="matrix"):
            assemble({"kind": "matrix", "matrix": [[1.0, 2.0], [2.0, 1.0]]})

    def test_fractional_s_range(self):
        with pytest.raises(ConfigError, match="s"):
            assemble({"kind": "fractional1d", "p": 2.0, "n": 4, "s": 1.2})

    def test_bad_p_names_key(self):
        with pytest.raises(ConfigError, match="p"):
            assemble({"kind": "pdirichlet1d", "p": 0.5, "n": 4})

    @pytest.mark.parametrize(
        "key, config",
        [
            ("p", {"kind": "pdirichlet1d", "p": [3], "n": 4}),
            ("n", {"kind": "pdirichlet1d", "p": 3.0, "n": [4]}),
            ("beta", {"kind": "robin1d", "p": 3.0, "n": 4, "beta": (1.0,)}),
        ],
        ids=["p-list", "n-list", "beta-tuple"],
    )
    def test_list_for_a_scalar_names_key(self, key, config):
        # only a parameter whose default is None (matrix, diag) takes a list
        with pytest.raises(ConfigError, match=rf"^{key}: expected a number, got [\[(]"):
            assemble(config)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wavelength"):
            assemble({"kind": "pdirichlet1d", "p": 2.0, "n": 4, "wavelength": 3})

    def test_robin_needs_beta_positive(self):
        with pytest.raises(ConfigError, match="beta"):
            assemble({"kind": "robin1d", "p": 2.0, "n": 4, "beta": -1.0})

    @pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0])
    def test_robin_constructor_needs_beta_positive_finite(self, beta):
        # the library call makes the check the CLI makes through assemble
        with pytest.raises(ConfigError, match="beta"):
            Robin1D(3.0, 15, beta=beta)

    def test_free_grid_needs_two_nodes(self):
        with pytest.raises(ConfigError, match="n"):
            assemble({"kind": "steklov1d", "p": 2.0, "n": 1})

    @pytest.mark.parametrize("cls", [Robin1D, NeumannQuotient1D, Steklov1D])
    def test_free_grid_constructors_need_two_nodes(self, cls):
        with pytest.raises(ConfigError, match=r"n: kind '\w+' needs n >= 2, got 1"):
            cls(3.0, 1)

    @pytest.mark.parametrize(
        "cls",
        [PDirichlet1D, SupDirichlet1D, Robin1D, NeumannQuotient1D, Steklov1D, PDirichlet2D, FractionalSeminorm1D],
        ids=lambda cls: cls.kind,
    )
    @pytest.mark.parametrize(
        "key, n, L",
        [
            ("n", 7.5, 1.0),
            ("n", 0, 1.0),
            ("n", -3, 1.0),
            ("n", math.nan, 1.0),
            ("n", math.inf, 1.0),
            ("L", 7, 0.0),
            ("L", 7, -1.0),
            ("L", 7, math.inf),
            ("L", 7, math.nan),
        ],
    )
    def test_grid_constructors_refuse_bad_n_and_L(self, cls, key, n, L):
        # one check in the constructors names the key; assemble reaches it
        # for the finite values it converts
        with pytest.raises(ConfigError, match=f"^{key}: must be a positive"):
            cls(3.0, n, L)
        if math.isfinite(n) and math.isfinite(L):
            with pytest.raises(ConfigError, match=f"^{key}: must be a positive"):
                assemble({"kind": cls.kind, "p": 3.0, "n": n, "L": L})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            assemble({"kind": "helmholtz", "p": 2.0, "n": 4})

    def test_instance_keys(self):
        assert INSTANCE_KEYS == {"kind", "p", "n", "L", "s", "beta", "matrix", "diag"}

    @pytest.mark.parametrize(
        "cls",
        [PDirichlet1D, PDirichlet2D, FractionalSeminorm1D, Robin1D, NeumannQuotient1D, SupDirichlet1D, Steklov1D, MatrixQuadratic],
        ids=lambda cls: cls.kind,
    )
    def test_each_kind_takes_its_constructor_parameters(self, cls):
        # a key is accepted exactly when the constructor takes it, and an
        # unset key takes the signature's default
        params = set(inspect.signature(cls).parameters)
        base = {"kind": cls.kind, "diag": [1.0, 2.0]} if cls is MatrixQuadratic else {"kind": cls.kind, "p": 3.0, "n": 4}
        values = {"p": 2.0, "n": 4, "L": 2.0, "s": 0.25, "beta": 0.5, "matrix": [[2.0]], "diag": [1.0, 2.0]}
        for key in INSTANCE_KEYS - {"kind"} - set(base):
            try:
                assemble({**base, key: values[key]})
                accepted = True
            except ConfigError as e:
                accepted = "unknown key" not in str(e)
            assert accepted == (key in params), key
        if cls is not MatrixQuadratic:
            u = np.linspace(0.5, 1.0, assemble(base).space.dim)
            assert assemble(base).value(u) == cls(3.0, 4).value(u)

    def test_unset_parameter_keeps_a_none_default(self, monkeypatch):
        # assemble passes only the given keys: an unset parameter keeps the
        # constructor's own default, None included
        class Stub(PDirichlet1D):
            kind = "stub"

            def __init__(self, p, n, r=None):
                self.r = r
                super().__init__(p, n)

        monkeypatch.setitem(problems._KINDS, "stub", Stub)
        inst = assemble({"kind": "stub", "p": 3, "n": 4})
        assert inst.r is None and (inst.p, inst.n) == (3.0, 4)
        assert assemble({"kind": "stub", "p": 3, "n": 4, "r": 2}).r == 2.0

    @pytest.mark.parametrize("value", [None, "x", math.inf, math.nan])
    def test_given_scalar_must_be_a_finite_number(self, value):
        with pytest.raises(ConfigError, match="^L: expected a"):
            assemble({"kind": "pdirichlet1d", "p": 3.0, "n": 4, "L": value})

    def test_matrix_p_must_be_two(self):
        with pytest.raises(ConfigError, match="p"):
            assemble({"kind": "matrix", "diag": [1.0, 2.0], "p": 3.0})
        inst = assemble({"kind": "matrix", "diag": [1.0, 2.0], "p": 2.0})
        assert inst.p == 2.0


class TestDiscretizationalOracles:
    def test_pdirichlet_p2_matches_tridiagonal_quadratic(self):
        # p = 2 energy is (1/2) u' T u / h with the standard tridiagonal T
        n, L = 6, 1.0
        inst = PDirichlet1D(2.0, n, L)
        h = inst.h
        T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        rng = np.random.default_rng(18)
        for _ in range(10):
            u = rng.standard_normal(n)
            assert inst.value(u) == pytest.approx(0.5 * (u @ T @ u) / h, rel=1e-12)
            np.testing.assert_allclose(inst.gradient(u), T @ u / h**2, rtol=1e-11, atol=1e-13)

    def test_pdirichlet2d_p2_matches_five_point(self):
        n = 3
        inst = PDirichlet2D(2.0, n)
        h = inst.h
        rng = np.random.default_rng(19)
        u = rng.standard_normal(n * n)
        g = np.zeros((n + 2, n + 2))
        g[1:-1, 1:-1] = u.reshape(n, n)
        lap = (4 * g[1:-1, 1:-1] - g[:-2, 1:-1] - g[2:, 1:-1] - g[1:-1, :-2] - g[1:-1, 2:]) / h**2
        np.testing.assert_allclose(inst.gradient(u), lap.ravel(), rtol=1e-11, atol=1e-12)

    def test_fractional_value_by_direct_double_sum(self):
        inst = FractionalSeminorm1D(3.0, 5, L=1.0, s=0.4)
        h, n, s = inst.h, 5, 0.4
        rng = np.random.default_rng(20)
        u = rng.standard_normal(5)
        idx = np.arange(1 - n, 2 * n + 1)
        z = np.zeros(3 * n)
        z[n - 1 : 2 * n - 1] = u
        total = 0.0
        for i in range(3 * n):
            for j in range(3 * n):
                if i == j:
                    continue
                total += abs(z[i] - z[j]) ** 3.0 / abs((idx[i] - idx[j]) * h) ** (1.0 + 3.0 * s)
        assert inst.value(u) == pytest.approx(h * h / 3.0 * total, rel=1e-12)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
    @pytest.mark.parametrize("n", [1, 5, 31])
    def test_fractional_collar_weight_matches_extended_sums(self, p, n):
        # value, gradient and Hessian straight from the double sums over the
        # 3n zero-extended nodes, against the interior kernel plus collar weight
        inst = FractionalSeminorm1D(p, n, s=0.3)
        h = inst.h
        x = np.arange(1 - n, 2 * n + 1) * h
        d = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(d, 1.0)
        kernel = 1.0 / d ** (1.0 + p * 0.3)
        np.fill_diagonal(kernel, 0.0)
        interior = slice(n - 1, 2 * n - 1)
        rng = np.random.default_rng(int(10 * p) + n)
        u = rng.standard_normal(n)
        if n > 2:  # a zero node and a repeated value bring in the p < 2 curvature floor
            u[0], u[2] = 0.0, u[1]
        z = np.zeros(3 * n)
        z[interior] = u
        t = z[:, None] - z[None, :]
        phi, dphi = np.abs(t) ** p, np.sign(t) * np.abs(t) ** (p - 1.0)
        value = h * h / p * np.sum(phi * kernel)
        grad = 2.0 * h * np.sum((dphi * kernel)[interior], axis=1)
        m = (smoothed_curvature(t, p) * kernel)[interior]
        hess = 2.0 * h * h * (np.diag(m.sum(axis=1)) - m[:, interior])
        assert inst.value(u) == pytest.approx(value, rel=1e-12)
        assert np.max(np.abs(inst.gradient(u) - grad)) <= 1e-12 * np.max(np.abs(grad))
        assert np.max(np.abs(hessian_matrix(inst.hessian(u)) - hess)) <= 1e-12 * np.max(np.abs(hess))


ROBIN_BETA = 0.7


def _edge_list(inst):
    """(i, j, c) for every edge of inst's energy (1/p) sum c |u_i - u_j|^p;
    j = n is the ground node, held at 0."""
    n, h, p = inst.n, inst.h, inst.p
    ground = n
    chain = [(i, i + 1, h ** (1.0 - p)) for i in range(n - 1)]
    if inst.kind in ("pdirichlet1d", "supdirichlet1d"):
        return chain + [(0, ground, h ** (1.0 - p)), (n - 1, ground, h ** (1.0 - p))]
    if inst.kind == "robin1d":
        return chain + [(0, ground, ROBIN_BETA), (n - 1, ground, ROBIN_BETA)]
    if inst.kind == "neumann1d":
        return chain
    if inst.kind == "steklov1d":
        return chain + [(i, ground, h) for i in range(n)]
    assert inst.kind == "fractional1d"
    # each interior pair once with 2 h^2 K_ij; each node's ground edge
    # carries 2 h^2 times its kernel summed over the 2n zero collar nodes
    x = np.arange(1 - n, 2 * n + 1) * h
    interior = range(n - 1, 2 * n - 1)

    def kernel(a, b):
        return abs(x[a] - x[b]) ** -(1.0 + p * inst.s)

    pairs = [(i, j, 2 * h * h * kernel(n - 1 + i, n - 1 + j)) for i in range(n) for j in range(i + 1, n)]
    collar = [a for a in range(3 * n) if a not in interior]
    return pairs + [(i, ground, 2 * h * h * sum(kernel(n - 1 + i, a) for a in collar)) for i in range(n)]


@pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
@pytest.mark.parametrize(
    "make",
    [
        PDirichlet1D,
        SupDirichlet1D,
        lambda p, n: Robin1D(p, n, beta=ROBIN_BETA),
        NeumannQuotient1D,
        Steklov1D,
        lambda p, n: FractionalSeminorm1D(p, n, s=0.3),
    ],
    ids=["pdirichlet1d", "supdirichlet1d", "robin1d", "neumann1d", "steklov1d", "fractional1d"],
)
def test_pairwise_kinds_match_edge_list(make, p):
    _assert_matches_edge_list(make(p, 17), np.random.default_rng(int(10 * p)).standard_normal(17))


def _fractional_state(name, n):
    rng = np.random.default_rng(n)
    if name == "mirror":  # exact ties u_i = u_(n-1-i)
        half = rng.standard_normal(n // 2 + 1)
        return np.concatenate((half, half[-2::-1]))
    if name == "zeros":
        u = rng.standard_normal(n)
        u[::3] = 0.0
        return u
    return np.full(n, 0.7)  # all equal: every interior difference is 0


@pytest.mark.parametrize("state", ["mirror", "zeros", "equal"])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 8.0, 20.0])
def test_fractional_kernel_matches_edge_list(p, state):
    # zero differences take the p < 2 mask of the flux and the curvature
    # floor of the Hessian; at p = 2 the curvature at a zero difference is K
    _assert_matches_edge_list(FractionalSeminorm1D(p, 17, s=0.3), _fractional_state(state, 17))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_fractional_state_is_built_once(monkeypatch, p):
    # value, gradient and Hessian at one state share its one kernel power;
    # only the p < 2 Hessian takes its own floored power
    inst = FractionalSeminorm1D(p, 9)
    calls = []
    monkeypatch.setattr(problems, "smoothed_curvature", lambda t, p: calls.append(p) or smoothed_curvature(t, p))
    u = _fractional_state("zeros", 9)
    inst.value(u)
    built = inst._last
    inst.gradient(u)
    inst.hessian(u)
    assert inst._last is built and len(calls) == (p < 2.0)
    inst.value(2.0 * u)
    assert inst._last is not built


def _assert_matches_edge_list(inst, u):
    # value, gradient and Hessian of a pairwise kind against its explicit
    # edge list with a ground node: (1/p) sum c|d|^p, D'(c |d|^(p-2) d) and
    # D' diag(c kappa(d)) D, with d = Du the edge differences
    n, p = len(u), inst.p
    i, j, c = (np.array(t) for t in zip(*_edge_list(inst)))
    D = np.zeros((len(c), n + 1))
    D[np.arange(len(c)), i] = 1.0
    D[np.arange(len(c)), j] = -1.0
    D = D[:, :n]  # the ground column: u = 0 there
    d = np.append(u, 0.0)[i] - np.append(u, 0.0)[j]
    value = np.sum(c * np.abs(d) ** p) / p
    grad = D.T @ (c * np.sign(d) * np.abs(d) ** (p - 1.0))
    hess = D.T @ np.diag(c * smoothed_curvature(d, p)) @ D
    h = hessian_matrix(inst.hessian(u))
    assert abs(inst.value(u) - value) <= 1e-13 * value
    assert np.max(np.abs(inst.space.pairing_weights() * inst.gradient(u) - grad)) <= 1e-13 * np.max(np.abs(grad))
    assert np.max(np.abs(h - hess)) <= 1e-13 * np.max(np.abs(hess))


class TestIncreasingRoot:
    """The scalar root shared by the flux closures and the sup movement radius."""

    @staticmethod
    def _counted(f):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        return counted, calls

    def test_ends_given_are_not_evaluated(self):
        f, calls = self._counted(lambda x: x**3 - 2.0)
        root, iters = _increasing_root(f, 0.0, 4.0, ends=(-2.0, 62.0))
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
        assert len(calls) == iters and 0.0 not in calls and 4.0 not in calls
        f, calls = self._counted(lambda x: x**3 - 2.0)
        assert _increasing_root(f, 0.0, 4.0) == (root, iters)
        assert len(calls) == iters + 2 and calls[:2] == [0.0, 4.0]

    def test_exact_zero_stops(self):
        # a plateau of exact zeros around 1, far wider than the residual
        # stop, which its first secant point x = 1 already reaches
        f, calls = self._counted(lambda x: 0.0 if abs(x - 1.0) <= 0.5 else x - 1.0)
        assert _increasing_root(f, 0.0, 10.0, ends=(-1.0, 9.0)) == (1.0, 1)
        assert calls == [1.0]

    def test_non_finite_value_returns_nan(self):
        root, iters = _increasing_root(lambda x: math.nan if 0.0 < x < 2.0 else x - 1.0, 0.0, 2.0)
        assert math.isnan(root) and iters == 1
        root, iters = _increasing_root(lambda x: x - 1.0, 0.0, 2.0, ends=(-1.0, math.inf))
        assert math.isnan(root) and iters == 0

    def test_bracket_not_straddling_zero_returns_the_nearer_end(self):
        assert _increasing_root(lambda x: x + 1.0, 0.0, 2.0) == (0.0, 0)
        assert _increasing_root(lambda x: x - 5.0, 0.0, 2.0) == (2.0, 0)

    def test_bracket_without_inner_float_returns_an_end(self):
        lo, hi = 1.0, math.nextafter(1.0, 2.0)
        f, calls = self._counted(lambda x: -1.0 if x <= lo else 1.0)
        root, iters = _increasing_root(f, lo, hi)
        assert root in (lo, hi) and iters == 0 and calls == [lo, hi]

    def test_steep_one_sided_function_within_fixed_evaluations(self):
        # x^20 - 1e-3 on [0, 2]: the right end's value is 1e9 times the left
        # one's, so plain secant steps (regula falsi) creep up from the left
        # end; the Illinois halving of the stale end gets through in 20
        def f(x):
            return x**20 - 1e-3

        budget = 30
        counted, calls = self._counted(f)
        root, iters = _increasing_root(counted, 0.0, 2.0)
        assert len(calls) == iters + 2 <= budget
        ftol = 4.0 * np.finfo(float).eps * (abs(f(0.0)) + abs(f(2.0)))
        assert abs(f(root)) <= ftol
        assert root == pytest.approx(1e-3 ** (1.0 / 20.0), rel=1e-9)
        lo, hi, f_lo, f_hi = 0.0, 2.0, f(0.0), f(2.0)
        for _ in range(budget - 2):
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            fx = f(x)
            assert abs(fx) > ftol
            lo, f_lo, hi, f_hi = (x, fx, hi, f_hi) if fx < 0.0 else (lo, f_lo, x, fx)


class TestHessianOperators:
    """Each operator's solve against ``np.linalg.solve`` of its dense matrix."""

    @staticmethod
    def _close(x, ref):
        assert x is not None and np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "inst",
        [PDirichlet1D(3.0, 31), Robin1D(1.5, 31), Steklov1D(3.0, 31), FractionalSeminorm1D(3.0, 15)]
        + [MatrixQuadratic(np.eye(6) + 0.2 * np.ones((6, 6)))],
        ids=lambda inst: inst.kind,
    )
    def test_band_and_dense(self, inst):
        rng = np.random.default_rng(7)
        n = inst.space.dim
        h = inst.hessian(np.sin(np.linspace(0.3, 2.8, n)) + 0.1 * rng.standard_normal(n))
        dg, b = rng.uniform(0.0, 1.0, n), rng.standard_normal(n)
        a = h.add_diagonal(dg)
        self._close(a.solve(b), np.linalg.solve(hessian_matrix(h) + np.diag(dg), b))
        assert a.quad(b) == pytest.approx(b @ hessian_matrix(a) @ b, rel=1e-12)

    def _quotient(self, n):
        rng = np.random.default_rng(n)
        inst = NeumannQuotient1D(3.0, n)
        h = inst.hessian(np.cos(np.linspace(0.0, 3.0, n)) + 0.1 * rng.standard_normal(n))
        assert isinstance(h, BandHessian)
        return h, inst.space.pairing_weights(), rng

    @pytest.mark.parametrize("n", [2, 9, 31])
    def test_constant_kernel_with_added_diagonal(self, n):
        # the pinned solve plus the Schur fit of the constant component
        h, _, rng = self._quotient(n)
        dg, b = rng.uniform(0.5, 1.5, n), rng.standard_normal(n)
        self._close(h.add_diagonal(dg).solve(b), np.linalg.solve(hessian_matrix(h) + np.diag(dg), b))

    @pytest.mark.parametrize("n", [2, 9, 31])
    def test_constant_kernel_without_added_diagonal(self, n):
        # H is singular: the solve returns the solution of zero weighted mean,
        # which the bordered system [[H, w], [w', 0]] also gives
        h, w, rng = self._quotient(n)
        b = rng.standard_normal(n)
        b -= b.mean()  # in the range of H, which annihilates the constants
        bordered = np.block([[hessian_matrix(h), w[:, None]], [w[None, :], np.zeros((1, 1))]])
        ref = np.linalg.solve(bordered, np.append(b, 0.0))[:n]
        for a in (h, h.add_diagonal(np.zeros(n))):
            x = a.solve(b)
            self._close(x, ref)
            assert abs(w @ x) <= 1e-14 * (w @ np.abs(x))
