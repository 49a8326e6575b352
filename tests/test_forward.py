"""Forward-process tests: covariance propagation, factorization, sampling."""

import math

import numpy as np
import pytest

from holdlab import (
    BlockCovariance,
    FixedPerSample,
    HoldParams,
    LiftedState,
    Marginalized,
    NotPositiveSemidefiniteError,
    build_forward_matrix,
    cholesky_block,
    covariance_at,
    critically_damped_params,
    initial_covariance,
    lift_data,
    sample_forward,
)
from holdlab.core import expm_at


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

    def test_symmetry_validation(self):
        with pytest.raises(ValueError):
            BlockCovariance(order=2, small=np.array([[1.0, 0.5], [0.2, 1.0]]), t=0.0)


class TestCholeskyBlock:
    def test_identity(self):
        cov = BlockCovariance(order=3, small=np.eye(3), t=1.0)
        factor, shift = cholesky_block(cov)
        assert shift == 0.0
        assert np.array_equal(factor, np.eye(3))

    def test_zero_matrix_needs_floor(self):
        factor, shift = cholesky_block(zero_cov(2))
        assert shift > 0.0
        assert np.allclose(factor @ factor.T, shift * np.eye(2), atol=1e-15, rtol=0)

    def test_explicit_floor_reported(self):
        factor, shift = cholesky_block(zero_cov(2), floor=1e-6)
        assert shift == 1e-6

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


class TestSampleForward:
    def test_t_zero_point_mass_exact(self):
        p = critically_damped_params(2)
        u0 = LiftedState.from_blocks([1.0, -2.0], [0.5, 0.25])
        out = sample_forward(u0, p, zero_cov(2), 0.0, rng_seed=4)
        assert np.array_equal(out.data, u0.data)

    def test_seed_determinism(self):
        p = critically_damped_params(3)
        s0 = initial_covariance(p, Marginalized())
        u0 = LiftedState(3, 1, np.array([1.0, 0.0, 0.0]))
        a = sample_forward(u0, p, s0, 0.7, rng_seed=123)
        b = sample_forward(u0, p, s0, 0.7, rng_seed=123)
        assert np.array_equal(a.data, b.data)
        c = sample_forward(u0, p, s0, 0.7, rng_seed=124)
        assert not np.array_equal(a.data, c.data)

    def test_monte_carlo_moments(self):
        p = critically_damped_params(2, l_inv=1.0)
        s0 = zero_cov(2)
        u0 = LiftedState(2, 1, np.array([1.0, -0.5]))
        t = 1.0
        n_draws = 100_000
        draws = np.stack(
            [
                sample_forward(u0, p, s0, t, rng_seed=[555, i]).data
                for i in range(n_draws)
            ]
        )
        e = expm_at(p, t)
        mean_want = e @ u0.data
        cov_want = covariance_at(p, s0, t).small
        for j in range(2):
            tol = 4.0 * math.sqrt(cov_want[j, j] / n_draws)
            assert abs(draws[:, j].mean() - mean_want[j]) <= tol
        cov_got = np.cov(draws, rowvar=False)
        assert np.abs(cov_got - cov_want).max() <= 0.05 * np.abs(cov_want).max()

    def test_kronecker_consistency(self):
        # Sampling at block scale then lifting equals sampling with the dense
        # nh x nh covariance: chol(kron(S, I)) == kron(chol(S), I).
        p = critically_damped_params(2, l_inv=1.0)
        s0 = initial_covariance(p, Marginalized())
        t = 0.8
        h = 2
        u0 = LiftedState.from_blocks([0.3, -1.1], [0.0, 0.0])
        got = sample_forward(u0, p, s0, t, rng_seed=777)

        e = expm_at(p, t)
        cov = covariance_at(p, s0, t)
        factor, _ = cholesky_block(cov)
        dense_cov = np.kron(cov.small, np.eye(h))
        dense_factor = np.linalg.cholesky(dense_cov)
        assert np.abs(dense_factor - np.kron(factor, np.eye(h))).max() <= 1e-12
        eps = np.random.default_rng(777).standard_normal(2 * h)
        dense = np.kron(e, np.eye(h)) @ u0.data + dense_factor @ eps
        assert np.abs(got.data - dense).max() <= 1e-12


class TestLiftData:
    def test_marginalized_zero_auxiliaries(self):
        p = critically_damped_params(2)
        out = lift_data(np.array([1.0, 2.0]), p, Marginalized())
        assert out.data.tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_fixed_repeatable(self):
        p = critically_damped_params(3)
        pol = FixedPerSample(seed=42)
        a = lift_data(np.array([0.5]), p, pol, index=7)
        b = lift_data(np.array([0.5]), p, pol, index=7)
        assert np.array_equal(a.data, b.data)
        c = lift_data(np.array([0.5]), p, pol, index=8)
        assert not np.array_equal(a.data, c.data)

    def test_fixed_aux_variance(self):
        p = critically_damped_params(2, l_inv=1.0, alpha=1.0)
        pol = FixedPerSample(seed=3)
        draws = np.array(
            [lift_data(np.zeros(2), p, pol, index=i).data[2:] for i in range(50_000)]
        ).ravel()
        assert abs(draws.var() - 1.0) <= 0.05

    def test_alpha_scaling(self):
        p = critically_damped_params(2, l_inv=2.0, alpha=0.5)
        pol = FixedPerSample(seed=3)
        draws = np.array(
            [lift_data(np.zeros(1), p, pol, index=i).data[1:] for i in range(50_000)]
        ).ravel()
        assert abs(draws.var() - 1.0) <= 0.05
