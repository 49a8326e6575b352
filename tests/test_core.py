"""Linear-dynamics unit tests: parameters, drift matrix, matrix exponential."""

import inspect
import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import holdlab
from holdlab import core, filters, forward, metrics, sampler, score
from holdlab import (
    MAX_ORDER,
    BlockMatrix,
    HoldParams,
    InvalidOrderError,
    LiftedState,
    NotCriticallyDampedError,
    build_forward_matrix,
    critically_damped_params,
)
from holdlab.core import _nilpotent_terms, expm_at, kron_apply


def expm_oracle(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor series, independent of the nilpotent route."""
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    scaled = a / 2.0**squarings
    term = np.eye(a.shape[0])
    acc = term.copy()
    k = 0
    while np.abs(term).max() > 1e-25:
        k += 1
        term = term @ scaled / k
        acc += term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def scalar_expm(params: HoldParams, t: float) -> np.ndarray:
    """exp(s* t) sum_k N^k t^k / k! for one time, with the multiplies and
    adds in the order ``expm_at`` does them for each slice."""
    s_star, terms = core._nilpotent_terms(params)
    acc = terms[0].copy()
    tk = 1.0
    for term in terms[1:]:
        tk *= t
        acc += term * tk
    return math.exp(s_star * t) * acc


def char_poly(f, s: complex) -> complex:
    """det(sI - F), leading coefficient +1."""
    m = s * np.eye(f.order, dtype=complex) - f.entries
    return complex(np.linalg.det(m))


class TestCriticallyDampedParams:
    def test_n2_exact(self):
        p = critically_damped_params(2)
        assert p.gammas == (1.0,)
        assert abs(p.xi - 2.0) <= 1e-14
        assert abs(p.gamma_bar - 1.0) <= 1e-14

    def test_n3_matches_symbolic(self):
        p = critically_damped_params(3)
        assert abs(p.gammas[0] - 1.0) <= 1e-12
        assert abs(p.gammas[1] - 2.0 * math.sqrt(2.0)) <= 1e-12
        assert abs(p.xi - 3.0 * math.sqrt(3.0)) <= 1e-12

    def test_n4_radicals_simplify(self):
        p = critically_damped_params(4)
        assert np.allclose(p.gammas, [1.0, 2.0, 5.0], atol=1e-12, rtol=0)
        assert abs(p.xi - 4.0 * math.sqrt(5.0)) <= 1e-12

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            critically_damped_params(1)
        with pytest.raises(InvalidOrderError):
            critically_damped_params(17)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gamma1_is_one(self, n):
        assert critically_damped_params(n).gammas[0] == 1.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gamma_bar_is_product(self, n):
        p = critically_damped_params(n)
        prod = math.prod(p.gammas)
        assert abs(p.gamma_bar - prod) <= 1e-14 * abs(prod)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            HoldParams(order=2, gammas=(), xi=2.0, l_inv=1.0)
        with pytest.raises(ValueError):
            HoldParams(order=2, gammas=(-1.0,), xi=2.0, l_inv=1.0)
        with pytest.raises(ValueError):
            HoldParams(order=2, gammas=(1.0,), xi=0.0, l_inv=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["gammas", "xi", "l_inv", "alpha"])
    def test_non_finite_fields_rejected(self, name, value):
        fields = dict(order=2, gammas=(1.0,), xi=2.0, l_inv=1.0, alpha=1.0)
        fields[name] = (value,) if name == "gammas" else value
        with pytest.raises(ValueError, match="positive and finite"):
            HoldParams(**fields)


class TestForwardMatrix:
    def test_n3_entries(self):
        f = build_forward_matrix(critically_damped_params(3))
        g2 = 2.0 * math.sqrt(2.0)
        xi = 3.0 * math.sqrt(3.0)
        expected = np.array([[0, 1, 0], [-1, 0, g2], [0, -g2, -xi]])
        assert np.allclose(f.entries, expected, atol=1e-12, rtol=0)

    def test_n2_entries(self):
        f = build_forward_matrix(critically_damped_params(2))
        assert np.allclose(f.entries, [[0, 1], [-1, -2]], atol=1e-14, rtol=0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_skew_part_cancels(self, n):
        p = critically_damped_params(n)
        f = build_forward_matrix(p)
        sym = f.entries + f.entries.T
        expected = np.zeros((n, n))
        expected[n - 1, n - 1] = -2.0 * p.xi
        assert np.allclose(sym, expected, atol=1e-12, rtol=0)

    def test_order1_is_pure_friction(self):
        p = HoldParams(order=1, gammas=(), xi=1.5, l_inv=1.0)
        f = build_forward_matrix(p)
        assert f.entries.tolist() == [[-1.5]]


class TestDampedEigenvalue:
    # The repeated eigenvalue s* as the code uses it: from _nilpotent_terms.
    @pytest.mark.parametrize(
        "n,expected", [(2, -1.0), (3, -math.sqrt(3.0)), (4, -math.sqrt(5.0))]
    )
    def test_values(self, n, expected):
        s_star, _ = _nilpotent_terms(critically_damped_params(n))
        assert abs(s_star - expected) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_negative(self, n):
        s_star, _ = _nilpotent_terms(critically_damped_params(n))
        assert s_star < 0

    @pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
    def test_is_trace_over_order_and_the_filter_pole(self, n):
        # -xi/n equals trace(F)/n bit for bit: the friction is F's only
        # nonzero diagonal entry.
        p = HoldParams(1, (), 1.5, 1.0) if n == 1 else critically_damped_params(n)
        s_star, _ = _nilpotent_terms(p)
        assert s_star == float(np.trace(build_forward_matrix(p).entries)) / n
        assert s_star == filters.HoldFilter.from_params(p).pole


class TestMatrixExponential:
    def test_t_zero_is_identity(self):
        e = expm_at(critically_damped_params(4), 0.0)
        assert np.array_equal(e, np.eye(4))

    def test_n3_position_entry_closed_form(self):
        p = critically_damped_params(3)
        r3 = math.sqrt(3.0)
        for t in np.linspace(0.0, 5.0, 41):
            closed = math.exp(-r3 * t) * (t * t + r3 * t + 1.0)
            assert abs(expm_at(p, t)[0, 0] - closed) <= 1e-12

    def test_n3_full_matrix_closed_form(self):
        p = critically_damped_params(3)
        r2, r3, r6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)
        for t in (0.2, 0.9, 2.4):
            want = math.exp(-r3 * t) * np.array(
                [
                    [t * t + r3 * t + 1, r3 * t * t + t, r2 * t * t],
                    [-r3 * t * t - t, -3 * t * t + r3 * t + 1, -r6 * t * t + 2 * r2 * t],
                    [r2 * t * t, r6 * t * t - 2 * r2 * t, 2 * t * t - 2 * r3 * t + 1],
                ]
            )
            assert np.abs(expm_at(p, t) - want).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_series_oracle(self, n):
        p = critically_damped_params(n)
        f = build_forward_matrix(p)
        rng = np.random.default_rng(20240 + n)
        for t in rng.uniform(0.0, 5.0, size=25):
            got = expm_at(p, float(t))
            want = expm_oracle(f.entries * t)
            assert np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_scipy(self, n):
        p = critically_damped_params(n)
        f = build_forward_matrix(p)
        for t in (0.1, 0.9, 3.3):
            assert np.allclose(
                expm_at(p, t),
                scipy_expm(f.entries * t),
                atol=1e-11,
                rtol=0,
            )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_semigroup(self, n):
        p = critically_damped_params(n)
        rng = np.random.default_rng(77 + n)
        for _ in range(10):
            t, s = rng.uniform(0.0, 3.0, size=2)
            lhs = expm_at(p, float(t + s))
            rhs = expm_at(p, float(t)) @ expm_at(p, float(s))
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_derivative(self):
        p = critically_damped_params(3)
        f = build_forward_matrix(p)
        eps = 1e-6
        for t in (0.2, 1.1, 2.7):
            fd = (expm_at(p, t + eps) - expm_at(p, t)) / eps
            want = f.entries @ expm_at(p, t)
            assert np.abs(fd - want).max() <= 1e-4

    @pytest.mark.parametrize("n", range(2, 7))
    def test_nilpotency(self, n):
        p = critically_damped_params(n)
        f = build_forward_matrix(p)
        s_star, _ = _nilpotent_terms(p)
        nilp = f.entries - s_star * np.eye(n)
        power = np.linalg.matrix_power(nilp, n)
        bound = 1e-10 * max(1.0, np.linalg.norm(f.entries) ** n)
        assert np.linalg.norm(power) <= bound

    @pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
    def test_vector_times_equal_scalar_calls(self, n):
        # Same products in the same order per slice, math.exp per time:
        # every slice equals the scalar call, an (n, n) array, and the
        # one-time loop to 0 ulp, signed zeros included, at t = 0 and on
        # both sides of the covariance's quadrature switch.
        p = HoldParams(1, (), 1.5, 1.0) if n == 1 else critically_damped_params(n)
        times = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 41)])
        stack = expm_at(p, times)
        assert stack.shape == (42, n, n)
        scalars = [expm_at(p, float(t)) for t in times]
        assert all(e.shape == (n, n) for e in scalars)
        assert stack.tobytes() == np.stack(scalars).tobytes()
        loop = [scalar_expm(p, float(t)) for t in times]
        assert stack.tobytes() == np.stack(loop).tobytes()

    def test_rejects_non_critical(self):
        p = critically_damped_params(2)
        off = HoldParams(order=2, gammas=p.gammas, xi=1.1 * p.xi, l_inv=1.0)
        with pytest.raises(NotCriticallyDampedError):
            expm_at(off, 1.0)


class TestCharPoly:
    def test_n2_at_zero(self):
        f = build_forward_matrix(critically_damped_params(2))
        assert abs(char_poly(f, 0.0) - 1.0) <= 1e-12

    def test_root_at_eigenvalue(self):
        f = build_forward_matrix(critically_damped_params(3))
        assert abs(char_poly(f, -math.sqrt(3.0))) <= 1e-10

    def test_n3_at_one(self):
        f = build_forward_matrix(critically_damped_params(3))
        want = (1.0 + math.sqrt(3.0)) ** 3
        assert abs(char_poly(f, 1.0) - want) <= 1e-10 * want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_shifted_power(self, n):
        p = critically_damped_params(n)
        f = build_forward_matrix(p)
        s_star, _ = _nilpotent_terms(p)
        rng = np.random.default_rng(5 + n)
        for _ in range(8):
            s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            want = (s - s_star) ** n
            assert abs(char_poly(f, s) - want) <= 1e-9 * max(1.0, abs(want))


class TestStateAndKron:
    def test_lifted_state_validation(self):
        with pytest.raises(ValueError):
            LiftedState(2, 2, np.zeros(3))

    def test_blocks(self):
        # Block i is data[i*h : (i+1)*h]; the position block comes first.
        u = LiftedState(3, 2, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert u.order == 3 and u.block_dim == 2
        assert u.data[:2].tolist() == [1.0, 2.0]
        assert u.data[2:4].tolist() == [3.0, 4.0]
        assert u.data[-2:].tolist() == [5.0, 6.0]

    def test_kron_apply_matches_dense(self):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((3, 3))
        vec = rng.standard_normal(6)
        dense = np.kron(mat, np.eye(2)) @ vec
        assert np.allclose(kron_apply(mat, vec, 2), dense, atol=1e-12, rtol=0)

    def test_kron_apply_batched(self):
        rng = np.random.default_rng(12)
        mat = rng.standard_normal((2, 2))
        batch = rng.standard_normal((5, 4))
        dense = batch @ np.kron(mat, np.eye(2)).T
        assert np.allclose(kron_apply(mat, batch, 2), dense, atol=1e-12, rtol=0)

    def test_kron_apply_stacked_matrices(self):
        # A (B, n, n) stack applies row b's matrix to row b of the batch.
        rng = np.random.default_rng(8)
        mats = rng.standard_normal((5, 3, 3))
        data = rng.standard_normal((5, 6))
        got = kron_apply(mats, data, 2)
        want = np.stack([kron_apply(m, d, 2) for m, d in zip(mats, data)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("layout", ["c-contiguous", "transposed"])
    @pytest.mark.parametrize("h", [1, 2, 16])
    def test_block_apply_matches_kron_apply(self, h, layout):
        # (n*h, B) columns: a (B, n, n) stack equals kron_apply on the rows
        # bit for bit; an (n, n) matrix and a (1, n, n) stack equal the one
        # 2-D GEMM, and that GEMM equals kron_apply too when h >= 2.
        rng = np.random.default_rng([h, len(layout)])
        n, batch = 3, 7
        mats = rng.standard_normal((batch, n, n))
        rows = rng.standard_normal((batch, n * h))
        cols = rows.T if layout == "transposed" else np.ascontiguousarray(rows.T)
        got = core._block_apply(mats, cols)
        assert got.shape == cols.shape
        assert np.array_equal(got, kron_apply(mats, rows, h).T)
        gemm = (mats[0] @ np.ascontiguousarray(cols).reshape(n, -1)).reshape(cols.shape)
        dense = np.kron(mats[0], np.eye(h)) @ cols
        assert np.allclose(gemm, dense, rtol=0, atol=1e-12)
        for mat in (mats[0], mats[:1]):
            assert np.array_equal(core._block_apply(mat, cols), gemm)
        if h >= 2:
            assert np.array_equal(gemm, kron_apply(mats[0], rows, h).T)

    def test_blockmatrix_matvec(self):
        f = build_forward_matrix(critically_damped_params(2))
        u = LiftedState(2, 2, np.array([1.0, 0.0, 0.0, 2.0]))
        out = kron_apply(f.entries, u.data, u.block_dim)
        dense = np.kron(f.entries, np.eye(2)) @ u.data
        assert np.allclose(out, dense, atol=1e-14, rtol=0)

    def test_blockmatrix_shape_validation(self):
        with pytest.raises(ValueError):
            BlockMatrix(order=2, entries=np.zeros((3, 3)))


class TestPublicApi:
    # Names deleted from the package: the order-1 filter, score and sampler
    # copies, the second matrix-exponential route, the single-run samplers,
    # the first-order reverse SDE, the second s* route and the collapse
    # table helper with one caller.
    REMOVED = (
        "OuFilter",
        "FilterSpec",
        "ou_score",
        "matrix_exponential",
        "char_poly_eval",
        "pf_ode_generate",
        "ou_pf_ode_generate",
        "ou_reverse_sde_generate",
        "Trajectory",
        "DivergenceError",
        "loss_weight",
        "mahalanobis_sq",
        "ou_sde_endpoints",
        "damped_eigenvalue",
        "collapse_curve",
    )

    def test_all_is_unique_and_resolves(self):
        names = holdlab.__all__
        assert len(names) == len(set(names))
        for name in names:
            assert getattr(holdlab, name) is not None

    def test_removed_names_are_gone(self):
        modules = [holdlab, core, filters, metrics, score, sampler]
        for name in self.REMOVED:
            assert name not in holdlab.__all__
            assert not any(hasattr(m, name) for m in modules), name
        assert not hasattr(BlockMatrix, "matvec")
        assert not hasattr(BlockMatrix(1, np.zeros((1, 1))), "block_dim")
        for helper in ("from_blocks", "position", "last_block", "block"):
            assert not hasattr(LiftedState, helper), helper
        # Internal now: _block_apply and the benchmark tracer use it.
        assert "kron_apply" not in holdlab.__all__ and callable(core.kron_apply)

    def test_single_value_parameters_are_gone(self):
        # Each of these had one value at every caller; it is now fixed.
        for fn, name in (
            (build_forward_matrix, "block_dim"),
            (forward.cholesky_stack, "floor"),
            (forward.cholesky_block, "floor"),
            (forward.lift_data, "rng_seed"),
            (score.mc_loss, "t_min"),
        ):
            assert name not in inspect.signature(fn).parameters, (fn.__name__, name)
