"""Forward-process tests: covariance propagation, factorization, sampling."""

import math

import numpy as np
import pytest

from holdlab import (
    T_EPS,
    BlockCovariance,
    Dataset,
    FixedPerSample,
    HoldParams,
    Marginalized,
    NotPositiveSemidefiniteError,
    build_forward_matrix,
    cholesky_block,
    covariance_at,
    critically_damped_params,
    det_ratio,
    initial_covariance,
    lift_data,
    mc_loss,
    sample_forward,
)
from holdlab import forward
from holdlab.core import expm_at, kron_apply
from holdlab.forward import cholesky_stack, schedule


def zero_cov(n):
    return BlockCovariance(order=n, small=np.zeros((n, n)), t=0.0)


class TestInitialCovariance:
    def test_marginalized_n3(self):
        p = critically_damped_params(3, l_inv=1.0, alpha=1.0)
        s0 = initial_covariance(p, Marginalized())
        assert np.array_equal(s0.small, np.diag([0.0, 1.0, 1.0]))

    def test_fixed_is_zero(self):
        p = critically_damped_params(2)
        s0 = initial_covariance(p, FixedPerSample(seed=0))
        assert np.array_equal(s0.small, np.zeros((2, 2)))

    def test_small_alpha(self):
        p = critically_damped_params(2, l_inv=1.0, alpha=0.04)
        s0 = initial_covariance(p, Marginalized())
        assert np.allclose(s0.small, np.diag([0.0, 0.04]), atol=1e-15, rtol=0)


class TestCovarianceAt:
    def test_t_zero_exact(self):
        p = critically_damped_params(3, alpha=0.04)
        s0 = initial_covariance(p, Marginalized())
        out = covariance_at(p, s0, 0.0)
        assert np.array_equal(out.small, s0.small)

    def test_stationary_fixed_point(self):
        p = critically_damped_params(2, l_inv=0.7)
        s0 = BlockCovariance(order=2, small=0.7 * np.eye(2), t=0.0)
        for t in (0.1, 1.0, 4.0):
            out = covariance_at(p, s0, t)
            assert np.allclose(out.small, 0.7 * np.eye(2), atol=1e-12, rtol=0)

    def test_n2_position_entry_closed_form(self):
        p = critically_damped_params(2, l_inv=1.0)
        s0 = zero_cov(2)
        for t in np.linspace(0.0, 5.0, 51):
            got = covariance_at(p, s0, float(t)).small[0, 0]
            want = 1.0 - math.exp(-2.0 * t) * (2 * t * t + 2 * t + 1)
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lyapunov_consistency(self, n):
        p = critically_damped_params(n)
        s0 = initial_covariance(p, Marginalized())
        f = build_forward_matrix(p).entries
        noise = np.zeros((n, n))
        noise[n - 1, n - 1] = 2.0 * p.xi * p.l_inv
        rng = np.random.default_rng(31 + n)
        eps = 1e-5
        for t in rng.uniform(0.1, 3.0, size=5):
            hi = covariance_at(p, s0, float(t + eps)).small
            lo = covariance_at(p, s0, float(t - eps)).small
            fd = (hi - lo) / (2 * eps)
            sig = covariance_at(p, s0, float(t)).small
            want = f @ sig + (f @ sig).T + noise
            assert np.abs(fd - want).max() <= 1e-5

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stationarity_large_t(self, n):
        p = critically_damped_params(n, l_inv=1.3)
        for s0 in (zero_cov(n), initial_covariance(p, Marginalized())):
            out = covariance_at(p, s0, 20.0).small
            assert np.abs(out - 1.3 * np.eye(n)).max() <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_noise_entry_positive(self, n):
        if n == 1:
            p = HoldParams(order=1, gammas=(), xi=2.0, l_inv=1.0)
        else:
            p = critically_damped_params(n)
        s0 = zero_cov(n)
        for t in np.logspace(-4, 1, 30):
            assert covariance_at(p, s0, float(t)).small[n - 1, n - 1] > 0

    def test_negative_time_rejected(self):
        p = critically_damped_params(2)
        with pytest.raises(ValueError):
            covariance_at(p, zero_cov(2), -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, bad):
        # Each is named as the bad time, not left to fail the symmetry check
        # of the covariance it would produce.
        p = critically_damped_params(2)
        with pytest.raises(ValueError, match=f"got {bad}"):
            covariance_at(p, zero_cov(2), bad)
        with pytest.raises(ValueError, match=f"got .*{bad}"):
            schedule(p, zero_cov(2), [0.5, bad])
        with pytest.raises(ValueError, match=f"got {bad}"):
            det_ratio(2, bad)

    def test_symmetry_validation(self):
        with pytest.raises(ValueError):
            BlockCovariance(order=2, small=np.array([[1.0, 0.5], [0.2, 1.0]]), t=0.0)

    def test_symmetry_tolerance_boundary(self):
        # Accepted iff max |m - m^T| <= 1e-12, the np.allclose(atol=1e-12,
        # rtol=0) rule it replaces; one bad block fails a whole stack.
        edge = np.array([[1.0, 1e-12], [0.0, 1.0]])
        past = np.array([[1.0, np.nextafter(1e-12, 1.0)], [0.0, 1.0]])
        BlockCovariance(order=2, small=edge, t=0.0)
        BlockCovariance(order=2, small=np.stack([edge, edge.T]), t=np.zeros(2))
        with pytest.raises(ValueError, match="symmetric"):
            BlockCovariance(order=2, small=past, t=0.0)
        with pytest.raises(ValueError, match="symmetric"):
            BlockCovariance(order=2, small=np.stack([edge, past]), t=np.zeros(2))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_nan_rejected(self, entry):
        small = np.eye(2)
        small[entry] = small[entry[::-1]] = math.nan
        with pytest.raises(ValueError, match="symmetric"):
            BlockCovariance(order=2, small=small, t=0.0)
        with pytest.raises(ValueError, match="symmetric"):
            BlockCovariance(order=2, small=np.stack([np.eye(2), small]), t=np.zeros(2))


class TestCholeskyBlock:
    def test_identity(self):
        cov = BlockCovariance(order=3, small=np.eye(3), t=1.0)
        factor, shift = cholesky_block(cov)
        assert shift == 0.0
        assert np.array_equal(factor, np.eye(3))

    def test_zero_matrix_needs_floor(self):
        # The floor rule's absolute fallback: 1e-12 when the diagonal is 0.
        factor, shift = cholesky_block(zero_cov(2))
        assert shift == 1e-12
        assert np.allclose(factor @ factor.T, shift * np.eye(2), atol=1e-15, rtol=0)

    def test_random_psd_reconstructs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            small = a @ a.T + 0.1 * np.eye(4)
            cov = BlockCovariance(order=4, small=small, t=1.0)
            factor, shift = cholesky_block(cov)
            assert shift == 0.0
            assert np.abs(factor @ factor.T - small).max() <= 1e-10

    def test_indefinite_rejected(self):
        small = np.array([[1.0, 2.0], [2.0, 1.0]])
        cov = BlockCovariance(order=2, small=small, t=1.0)
        with pytest.raises(NotPositiveSemidefiniteError):
            cholesky_block(cov)


def mpmath_noise_covariance(mpmath, params, t):
    """l_inv (I - exp(Ft) exp(Ft)^T) from an mpmath expm, at
    40 + (2n - 1) log10(1/t) digits: the subtraction cancels about
    (2n - 1) log10(1/t) of them, since Sigma_00 ~ t^{2n-1}."""
    n = params.order
    fmat = build_forward_matrix(params).entries
    digits = 40 + (2 * n - 1) * max(0.0, math.log10(1.0 / t))
    with mpmath.workdps(int(math.ceil(digits))):
        e = mpmath.expm(mpmath.matrix(fmat.tolist()) * mpmath.mpf(t))
        sig = (mpmath.eye(n) - e * e.T) * mpmath.mpf(params.l_inv)
        return np.array(sig.tolist(), dtype=float)


class TestCovarianceOracle:
    """Zero-Sigma_0 covariance against a high-precision reference, on the
    scaled error |dSigma_pq| / sqrt(Sigma_pp Sigma_qq): an entrywise
    relative error is undefined where an off-diagonal entry crosses zero,
    and the scaled error is what the Cholesky factor inherits."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_scaled_error_against_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        p = HoldParams(1, (), 1.5, 1.0) if n == 1 else critically_damped_params(n)
        times = np.geomspace(1e-6, 10.0, 36)
        stack = covariance_at(p, zero_cov(n), times).small
        bound = 1e-13 if n <= 6 else 1e-11
        for t, block in zip(times.tolist(), stack):
            want = mpmath_noise_covariance(mpmath, p, t)
            scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
            for got in (block, covariance_at(p, zero_cov(n), t).small):
                assert np.max(np.abs(got - want) / scale) <= bound, t


class TestTimeStack:
    """A (T,) array of times gives the stack of single-time results, slice
    for slice to 0 ulp, floors included."""

    @pytest.mark.parametrize("policy", [FixedPerSample(seed=0), Marginalized()])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_covariance_and_factor_match_single_times(self, n, policy):
        p = HoldParams(1, (), 1.5, 1.0) if n == 1 else critically_damped_params(n)
        s0 = initial_covariance(p, policy)
        times = np.geomspace(1e-3, 10.0, 41)
        stack = covariance_at(p, s0, times)
        factor, delta = cholesky_stack(stack)
        assert stack.small.shape == factor.shape == (41, n, n)
        assert delta.shape == (41,)
        for i, t in enumerate(times):
            cov = covariance_at(p, s0, float(t))
            want_factor, want_delta = cholesky_block(cov)
            assert np.array_equal(stack.small[i], cov.small)
            assert np.array_equal(factor[i], want_factor)
            assert delta[i] == want_delta

    def test_floors_fall_on_the_same_slices(self):
        # Marginalized order 5 at t = 1e-3 needs a floor (E Sigma_0 E^T loses
        # the smallest eigenvalue, ROADMAP); t >= 0.5 does not.
        p = critically_damped_params(5)
        s0 = initial_covariance(p, Marginalized())
        want_factor, want = cholesky_block(covariance_at(p, s0, 1e-3))
        assert want > 0.0
        times = np.array([1.0, 1e-3, 0.5, 1e-3, 2.0])
        factor, delta = cholesky_stack(covariance_at(p, s0, times))
        assert delta.tolist() == [0.0, want, 0.0, want, 0.0]
        assert np.array_equal(factor[1], want_factor)
        assert np.array_equal(factor[3], want_factor)

    def test_floor_amount_is_per_slice(self):
        # The default floor scales with each block's own largest diagonal.
        small = np.stack([np.eye(2), np.zeros((2, 2)), np.diag([4.0, 0.0])])
        cov = BlockCovariance(order=2, small=small, t=np.array([1.0, 0.0, 2.0]))
        _, delta = cholesky_stack(cov)
        want = [cholesky_block(BlockCovariance(2, m, 1.0))[1] for m in small]
        assert delta.tolist() == want == [0.0, 1e-12, 4e-12]

    def test_indefinite_slice_names_its_time(self):
        small = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
        cov = BlockCovariance(order=2, small=small, t=np.array([0.5, 0.75]))
        with pytest.raises(NotPositiveSemidefiniteError, match="t=0.75"):
            cholesky_stack(cov)

    def test_shapes_validated(self):
        p = critically_damped_params(2)
        stack = covariance_at(p, zero_cov(2), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            cholesky_block(stack)
        with pytest.raises(ValueError):
            BlockCovariance(order=2, small=stack.small, t=0.5)
        with pytest.raises(ValueError):
            covariance_at(p, zero_cov(2), np.array([0.5, -0.1]))


class TestSchedule:
    """``schedule`` slices equal the single-time forward calls bit for bit."""

    @pytest.mark.parametrize("policy", [FixedPerSample(seed=0), Marginalized()])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_slices_match_single_times(self, n, policy):
        p = HoldParams(1, (), 1.5, 1.0) if n == 1 else critically_damped_params(n)
        s0 = initial_covariance(p, policy)
        times = np.geomspace(1e-3, 10.0, 41)
        sched = schedule(p, s0, times)
        assert np.array_equal(sched.times, times)
        assert not sched.chol_inv.flags.writeable  # shared with later callers
        for i, t in enumerate(times.tolist()):
            cov = covariance_at(p, s0, t)
            factor, delta = cholesky_block(cov)
            assert np.array_equal(sched.expm[i], expm_at(p, t))
            assert np.array_equal(sched.cov.small[i], cov.small)
            assert np.array_equal(sched.chol[i], factor)
            assert np.array_equal(sched.chol_inv[i], np.linalg.inv(factor))
            assert sched.delta[i] == delta

    def test_delta_floors_the_same_slices_as_cholesky_block(self):
        # Marginalized order 5 floors at t = 1e-3 (see TestTimeStack).
        p = critically_damped_params(5)
        s0 = initial_covariance(p, Marginalized())
        times = np.array([1.0, 1e-3, 0.5, 1e-3, 2e-3])
        sched = schedule(p, s0, times)
        want = [cholesky_block(covariance_at(p, s0, t))[1] for t in times.tolist()]
        assert sched.delta.tolist() == want
        assert want[1] > 0.0

    def test_needs_an_array_of_times(self):
        p = critically_damped_params(2)
        with pytest.raises(ValueError):
            schedule(p, zero_cov(2), 0.5)

    def test_builds_expm_once(self, monkeypatch):
        # The covariance's exp(Ft) is the schedule's expm.
        p = critically_damped_params(3)
        s0 = initial_covariance(p, FixedPerSample(seed=0))
        calls = []

        def counting(params, t):
            calls.append(np.shape(t))
            return expm_at(params, t)

        monkeypatch.setattr(forward, "expm_at", counting)
        forward._schedule.cache_clear()
        sched = schedule(p, s0, np.array([1e-3, 0.5, 2.0]))
        assert calls == [(3,)]
        assert np.array_equal(sched.expm, expm_at(p, sched.times))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_rejects_bad_times(self, t):
        p = critically_damped_params(2)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            schedule(p, zero_cov(2), np.array([0.5, t]))

    def test_rejects_mismatched_order(self):
        with pytest.raises(ValueError, match="order"):
            schedule(critically_damped_params(3), zero_cov(2), np.array([0.5]))


class TestSampleForward:
    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.37, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_float_time_is_the_row_of_a_one_time_path(self, n, t):
        # The draw from the schedule of one time is the draw built from the
        # float-time pieces expm_at, covariance_at and cholesky_block at t,
        # bit for bit; at t = 0 both carry the zero covariance's floor.
        p = HoldParams(1, (), 1.5, 1.0) if n == 1 else critically_damped_params(n)
        s0 = initial_covariance(p, FixedPerSample(seed=1))
        u0 = np.arange(3.0 * n)
        eps = np.random.default_rng([4, 2]).standard_normal(3 * n)
        got = sample_forward(schedule(p, s0, [t]), u0[:, None], eps[:, None])
        factor, _ = cholesky_block(covariance_at(p, s0, t))
        want = kron_apply(expm_at(p, t), u0, 3) + kron_apply(factor, eps, 3)
        assert got.shape == (3 * n, 1)
        assert np.array_equal(got[:, 0], want)

    def test_monte_carlo_moments(self):
        p = critically_damped_params(2, l_inv=1.0)
        s0 = zero_cov(2)
        u0 = np.array([1.0, -0.5])
        t = 1.0
        n_draws = 100_000
        starts = np.broadcast_to(u0[:, None], (2, n_draws))
        eps = np.random.default_rng(555).standard_normal((2, n_draws))
        draws = sample_forward(schedule(p, s0, [t]), starts, eps).T
        e = expm_at(p, t)
        mean_want = e @ u0
        cov_want = covariance_at(p, s0, t).small
        for j in range(2):
            tol = 4.0 * math.sqrt(cov_want[j, j] / n_draws)
            assert abs(draws[:, j].mean() - mean_want[j]) <= tol
        cov_got = np.cov(draws, rowvar=False)
        assert np.abs(cov_got - cov_want).max() <= 0.05 * np.abs(cov_want).max()

    def test_vector_times(self):
        # One time per column (G = B) or one time shared by the batch
        # (G = 1): column b is (exp(Ft) x I_h) u0_b + (L_t x I_h) eps_b.
        p = critically_damped_params(2)
        times = np.array([0.0, 0.3, 1.2])
        starts, eps = np.random.default_rng(9).standard_normal((2, 4, 3))

        def want(t, b):
            factor, _ = cholesky_block(covariance_at(p, zero_cov(2), t))
            mean = kron_apply(expm_at(p, t), starts[:, b], 2)
            return mean + kron_apply(factor, eps[:, b], 2)

        per_column = sample_forward(schedule(p, zero_cov(2), times), starts, eps)
        shared = sample_forward(schedule(p, zero_cov(2), times[1:2]), starts, eps)
        assert per_column.shape == shared.shape == (4, 3)
        for b, t in enumerate(times.tolist()):
            assert np.array_equal(per_column[:, b], want(t, b))
            assert np.array_equal(shared[:, b], want(0.3, b))
        with pytest.raises(ValueError):
            schedule(p, zero_cov(2), np.array([0.1, -0.1]))

    def test_shapes_must_match_the_schedule(self):
        # (n*h, B) columns for both inputs, at one time or at B times; all
        # but the second of these would otherwise broadcast silently.
        p = critically_damped_params(2)
        one = schedule(p, zero_cov(2), [0.1])
        three = schedule(p, zero_cov(2), [0.1, 0.2, 0.3])
        for sched, starts, eps in [
            (three, np.ones((4, 1)), np.zeros((4, 1))),
            (three, np.ones((4, 2)), np.zeros((4, 2))),
            (one, np.ones((4, 3)), np.zeros((4, 1))),
            (one, np.ones(4), np.zeros(4)),
        ]:
            with pytest.raises(ValueError, match="does not match"):
                sample_forward(sched, starts, eps)
        assert sample_forward(three, np.ones((4, 3)), np.zeros((4, 3))).shape == (4, 3)

    def test_kronecker_consistency(self):
        # Sampling at block scale then lifting equals sampling with the dense
        # nh x nh covariance: chol(kron(S, I)) == kron(chol(S), I).
        p = critically_damped_params(2, l_inv=1.0)
        s0 = initial_covariance(p, Marginalized())
        t = 0.8
        h = 2
        u0 = np.array([0.3, -1.1, 0.0, 0.0])
        eps = np.random.default_rng(777).standard_normal(2 * h)
        got = sample_forward(schedule(p, s0, [t]), u0[:, None], eps[:, None])[:, 0]

        e = expm_at(p, t)
        cov = covariance_at(p, s0, t)
        factor, _ = cholesky_block(cov)
        dense_cov = np.kron(cov.small, np.eye(h))
        dense_factor = np.linalg.cholesky(dense_cov)
        assert np.abs(dense_factor - np.kron(factor, np.eye(h))).max() <= 1e-12
        dense = np.kron(e, np.eye(h)) @ u0 + dense_factor @ eps
        assert np.abs(got - dense).max() <= 1e-12

    @pytest.mark.parametrize("policy", [FixedPerSample(seed=3), Marginalized()])
    def test_mc_loss_draws_through_it(self, policy):
        # mc_loss's stream is three draws: every time, every training
        # index, then every noise vector; a block of 256 samples is one draw.
        p = critically_damped_params(3)
        s0 = initial_covariance(p, policy)
        ds = Dataset(np.random.default_rng(1).standard_normal((5, 2)))
        seen = []

        def spy(u, t):
            seen.append(u.copy())
            return np.zeros(2)

        n_mc = 300
        mc_loss(spy, ds, p, s0, policy, n_mc, rng_seed=7)
        rng = np.random.default_rng(7)
        times = rng.uniform(T_EPS, 1.0, n_mc)
        picks = rng.integers(5, size=n_mc)
        eps = rng.standard_normal((n_mc, 6))
        lifted = ds.lifted(p, policy)
        assert [len(u) for u in seen] == [256, 44]
        for got, lo in zip(seen, (0, 256)):
            k = slice(lo, lo + 256)
            sched = schedule(p, s0, times[k])
            want = sample_forward(sched, lifted[picks[k]].T, eps[k].T).T
            assert np.array_equal(got, want)


class TestLiftData:
    def test_marginalized_zero_auxiliaries(self):
        p = critically_damped_params(2)
        out = lift_data(np.array([1.0, 2.0]), p, Marginalized())
        assert type(out) is np.ndarray
        assert out.tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_fixed_repeatable(self):
        p = critically_damped_params(3)
        pol = FixedPerSample(seed=42)
        a = lift_data(np.array([0.5]), p, pol, index=7)
        b = lift_data(np.array([0.5]), p, pol, index=7)
        assert np.array_equal(a, b)
        c = lift_data(np.array([0.5]), p, pol, index=8)
        assert not np.array_equal(a, c)

    def test_fixed_aux_variance(self):
        p = critically_damped_params(2, l_inv=1.0, alpha=1.0)
        pol = FixedPerSample(seed=3)
        draws = np.array(
            [lift_data(np.zeros(2), p, pol, index=i)[2:] for i in range(50_000)]
        ).ravel()
        assert abs(draws.var() - 1.0) <= 0.05

    def test_alpha_scaling(self):
        p = critically_damped_params(2, l_inv=2.0, alpha=0.5)
        pol = FixedPerSample(seed=3)
        draws = np.array(
            [lift_data(np.zeros(1), p, pol, index=i)[1:] for i in range(50_000)]
        ).ravel()
        assert abs(draws.var() - 1.0) <= 0.05
