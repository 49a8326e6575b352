"""Empirical-score tests: mixtures, responsibilities, gradients, loss."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from holdlab import (
    Dataset,
    FixedPerSample,
    HoldParams,
    Marginalized,
    T_EPS,
    TimeGrid,
    covariance_at,
    critically_damped_params,
    empirical_score_fn,
    cholesky_block,
    initial_covariance,
    kron_apply,
    mc_loss,
    mixture_at,
    pf_ode_endpoints,
    responsibilities,
    score_full,
    score_last_block,
)
from holdlab import forward
from holdlab import score as score_module
from holdlab.core import expm_at
from holdlab.datasets import GaussianMixtureSpec, training_points
from holdlab.forward import schedule
from holdlab.score import EmpiricalMixture, log_density_shifted
from test_sampler import ou_score


def ou_params(xi=1.0, l_inv=1.0):
    return HoldParams(order=1, gammas=(), xi=xi, l_inv=l_inv)


def make_mixture(n=2, h=1, t=0.5, points=None, policy=None, alpha=1.0):
    if points is None:
        points = np.array([[1.0] * h, [-1.0] * h])
    if n == 1:
        params = ou_params()
    else:
        params = critically_damped_params(n, alpha=alpha)
    policy = policy or Marginalized()
    ds = Dataset(np.asarray(points, dtype=float))
    s0 = initial_covariance(params, policy)
    return mixture_at(ds, params, s0, policy, t), ds, params, s0, policy


class TestMixtureAt:
    def test_single_point_at_zero_time(self):
        params = critically_damped_params(2)
        ds = Dataset(np.array([[1.5]]))
        pol = FixedPerSample(seed=1)
        s0 = initial_covariance(params, pol)
        mix = mixture_at(ds, params, s0, pol, 0.0)
        assert mix.n_components == 1
        assert np.array_equal(mix.centers[0], ds.lifted(params, pol)[0])
        # A zero covariance: the factor is that of the 1e-12 floor.
        sched = schedule(params, s0, [0.0])
        assert not sched.cov.small.any() and sched.delta[0] == 1e-12
        assert np.array_equal(mix.chol, sched.chol[0])

    def test_centers_decay_at_large_t(self):
        mix, *_ = make_mixture(n=3, h=2, t=20.0)
        assert np.abs(mix.centers).max() <= 1e-6

    def test_order_preserving(self):
        pts = np.arange(10, dtype=float)[:, None]
        mix, ds, params, s0, pol = make_mixture(n=2, h=1, t=0.3, points=pts)
        e = expm_at(params, 0.3)
        for k in range(10):
            want = np.kron(e, np.eye(1)) @ ds.lifted(params, pol)[k]
            assert np.allclose(mix.centers[k], want, atol=1e-12, rtol=0)

    def test_empty_dataset_rejected(self):
        params = critically_damped_params(2)
        ds = Dataset(np.zeros((0, 1)))
        s0 = initial_covariance(params, Marginalized())
        with pytest.raises(ValueError):
            mixture_at(ds, params, s0, Marginalized(), 0.5)


class TestResponsibilities:
    def test_midpoint_symmetric(self):
        mix, *_ = make_mixture(n=2, h=1, t=0.5)
        w = responsibilities(mix, np.zeros(2))
        assert np.allclose(w, [0.5, 0.5], atol=1e-12, rtol=0)

    def test_far_centers_one_hot(self):
        # Second center 20+ Mahalanobis units away: weight concentrates.
        params = ou_params()
        ds = Dataset(np.array([[0.0], [50.0]]))
        s0 = initial_covariance(params, Marginalized())
        mix = mixture_at(ds, params, s0, Marginalized(), 1.0)
        at_first = responsibilities(mix, mix.centers[0])
        assert at_first[0] >= 1.0 - 1e-80

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((6, 2)) * 3.0
        mix, *_ = make_mixture(n=3, h=2, t=0.4, points=pts)
        batch = rng.standard_normal((40, 6))
        w = responsibilities(mix, batch)
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (3, 1)])
    def test_wrong_state_length_rejected(self, shape):
        mix, *_ = make_mixture(n=2, h=1, t=0.5)
        for fn in (responsibilities, score_full, log_density_shifted):
            with pytest.raises(ValueError, match="state shape"):
                fn(mix, np.ones(shape))

    def test_huge_separation_no_nan(self):
        params = ou_params()
        ds = Dataset(np.array([[0.0], [1e4]]))
        s0 = initial_covariance(params, Marginalized())
        mix = mixture_at(ds, params, s0, Marginalized(), 1.0)
        for probe in (0.0, 1e4, 5e3):
            w = responsibilities(mix, np.array([probe]))
            assert np.all(np.isfinite(w))
            s = score_full(mix, np.array([probe]))
            assert np.all(np.isfinite(s))


class TestScoreFull:
    def test_single_center_gaussian_score(self):
        params = critically_damped_params(2)
        pol = Marginalized()
        ds = Dataset(np.array([[2.0]]))
        s0 = initial_covariance(params, pol)
        mix = mixture_at(ds, params, s0, pol, 0.7)
        u = np.array([0.3, -0.4])
        got = score_full(mix, u)
        want = np.linalg.solve(covariance_at(params, s0, 0.7).small, mix.centers[0] - u)
        assert np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("n,h", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_gradient_matches_finite_differences(self, n, h):
        rng = np.random.default_rng(100 * n + h)
        pts = rng.standard_normal((5, h)) * 2.0
        pol = FixedPerSample(seed=5)
        mix, ds, params, s0, _ = make_mixture(n=n, h=h, t=0.0, points=pts, policy=pol)
        for t in rng.uniform(0.05, 2.0, size=4):
            mix = mixture_at(ds, params, s0, pol, float(t))
            u = rng.standard_normal(n * h) * 1.5
            grad = score_full(mix, u)
            eps = 1e-5
            for j in range(n * h):
                up, dn = u.copy(), u.copy()
                up[j] += eps
                dn[j] -= eps
                fd = (
                    log_density_shifted(mix, up) - log_density_shifted(mix, dn)
                ) / (2 * eps)
                assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(grad[j]))

    def test_symmetric_mean_score(self):
        mix, ds, params, s0, pol = make_mixture(n=2, h=1, t=0.5)
        u = np.zeros(2)
        got = score_full(mix, u)
        sigma = covariance_at(params, s0, 0.5).small
        want = np.linalg.solve(sigma, mix.centers.mean(axis=0) - u)
        assert np.abs(got - want).max() <= 1e-10


class TestScoreLastBlock:
    def test_slice_consistency(self):
        mix, *_ = make_mixture(n=3, h=2, t=0.6)
        u = np.arange(6, dtype=float) * 0.3
        assert np.array_equal(score_last_block(mix, u), score_full(mix, u)[-2:])

    def test_order1_reduces_to_full(self):
        mix, *_ = make_mixture(n=1, h=2, t=0.6)
        u = np.array([0.2, -0.7])
        assert np.array_equal(score_last_block(mix, u), score_full(mix, u))

    def test_order1_matches_ou_score(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((6, 2))
        mix, ds, params, s0, pol = make_mixture(n=1, h=2, t=0.9, points=pts)
        for _ in range(10):
            x = rng.standard_normal(2)
            a = score_last_block(mix, x)
            b = ou_score(x, ds, xi=1.0, l_inv=1.0, t=0.9)
            assert np.abs(a - b).max() <= 1e-12


class TestOuScore:
    """Order-1 closed forms, reached through the one mixture kernel."""

    @staticmethod
    def score(points, x, xi, l_inv, t):
        params = ou_params(xi=xi, l_inv=l_inv)
        pol = Marginalized()
        ds = Dataset(np.asarray(points, dtype=float))
        mix = mixture_at(ds, params, initial_covariance(params, pol), pol, t)
        return score_last_block(mix, x)

    def test_singleton_closed_form(self):
        xi, l_inv, t = 1.5, 0.8, 0.6
        x = np.array([0.4])
        got = self.score([[2.0]], x, xi, l_inv, t)
        var = l_inv * (1.0 - math.exp(-2 * xi * t))
        want = -(x - math.exp(-xi * t) * 2.0) / var
        assert np.abs(got - want).max() <= 1e-12

    def test_large_t_prior_score(self):
        x = np.array([0.7])
        got = self.score([[1.0], [-2.0], [0.5]], x, xi=1.0, l_inv=2.0, t=40.0)
        assert np.abs(got - (-x / 2.0)).max() <= 1e-10

    def test_symmetry_zero(self):
        for t in (0.1, 0.5, 2.0):
            got = self.score([[1.0], [-1.0]], np.array([0.0]), xi=2.0, l_inv=1.0, t=t)
            assert abs(got[0]) <= 1e-12


def loss_weight(params, sigma0, t):
    """Bottom-right entry of the block Cholesky factor of Sigma_t: by the
    Kronecker structure the noise scale multiplying the score in the loss."""
    return cholesky_block(covariance_at(params, sigma0, t))[0][-1, -1]


class TestLossWeight:
    def test_order1_closed_form(self):
        p = ou_params(xi=2.0, l_inv=0.5)
        s0 = initial_covariance(p, Marginalized())
        for t in (0.05, 0.3, 1.0):
            want = math.sqrt(0.5 * (1.0 - math.exp(-4.0 * t)))
            assert abs(loss_weight(p, s0, t) - want) <= 1e-12

    def test_large_t_limit(self):
        p = critically_damped_params(3, l_inv=2.0)
        s0 = initial_covariance(p, Marginalized())
        assert abs(loss_weight(p, s0, 25.0) - math.sqrt(2.0)) <= 1e-6

    def test_n2_small_t_vanishes(self):
        p = critically_damped_params(2)
        s0 = initial_covariance(p, FixedPerSample(seed=0))
        # The bottom-right factor entry is the conditional std of the last
        # block: sqrt(det Sigma / Sigma_11), which opens like sqrt(t).
        t = 1e-4
        got = loss_weight(p, s0, t)
        sig = covariance_at(p, s0, t).small
        want = math.sqrt(np.linalg.det(sig) / sig[0, 0])
        assert abs(got - want) <= 1e-10
        assert abs(got - math.sqrt(t)) <= 1e-3 * math.sqrt(t)
        weights = [loss_weight(p, s0, tt) for tt in (1e-2, 1e-3, 1e-4)]
        assert weights[0] > weights[1] > weights[2] > 0.0


def mc_loss_loop(score_fn, dataset, params, sigma0, policy, n_mc, rng_seed):
    """The per-sample loss loop mc_loss replaced: one draw, one single-time
    factor and one single-point score call per sample.  Returns the loss
    and the number of samples whose factor was floored."""
    n, h = params.order, dataset.h
    lifted = dataset.lifted(params, policy)
    rng = np.random.default_rng(rng_seed)
    total, floored = 0.0, 0
    for _ in range(n_mc):
        t = rng.uniform(T_EPS, 1.0)
        k = int(rng.integers(dataset.n_train))
        eps = rng.standard_normal(n * h)
        e = expm_at(params, t)
        factor, delta = cholesky_block(covariance_at(params, sigma0, t))
        floored += delta > 0
        u_t = kron_apply(e, lifted[k], h) + kron_apply(factor, eps, h)
        s = np.asarray(score_fn(u_t, t), dtype=float).reshape(-1)
        resid = eps[-h:] + s * factor[-1, -1]
        total += float(resid @ resid)
    return total / n_mc, floored


def criterion07_setup(n):
    """Dataset, params, sigma0 and policy of acceptance criterion 07."""
    ds = Dataset(np.random.default_rng(2024).standard_normal((8, 2)) * 3.0)
    params = ou_params() if n == 1 else critically_damped_params(n)
    pol = FixedPerSample(seed=77)
    return ds, params, initial_covariance(params, pol), pol


class TestMcLoss:
    def test_zero_score_gives_h(self):
        params = critically_damped_params(2)
        pol = FixedPerSample(seed=9)
        ds = Dataset(np.random.default_rng(1).standard_normal((4, 2)) * 3)
        s0 = initial_covariance(params, pol)
        loss = mc_loss(lambda u, t: np.zeros(2), ds, params, s0, pol, 20_000, 7)
        assert abs(loss - 2.0) <= 0.06

    def test_seed_determinism(self):
        params = critically_damped_params(2)
        pol = Marginalized()
        ds = Dataset(np.array([[1.0], [-1.0]]))
        s0 = initial_covariance(params, pol)
        fn = lambda u, t: np.zeros(1)
        assert mc_loss(fn, ds, params, s0, pol, 500, 3) == mc_loss(
            fn, ds, params, s0, pol, 500, 3
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_optimal_beats_constant_shift(self, n):
        params = ou_params() if n == 1 else critically_damped_params(n)
        pol = FixedPerSample(seed=2)
        rng = np.random.default_rng(40 + n)
        ds = Dataset(rng.standard_normal((8, 2)) * 3.0)
        s0 = initial_covariance(params, pol)

        def opt(u, t):
            return score_last_block(mixture_at(ds, params, s0, pol, t), u)

        def shifted(u, t):
            return opt(u, t) + np.array([0.1, 0.0])

        base = mc_loss(opt, ds, params, s0, pol, 10_000, 11)
        worse = mc_loss(shifted, ds, params, s0, pol, 10_000, 11)
        assert base < worse


class TestMcLossBlocks:
    """The blocked loss against the per-sample loop, on the same draws.

    Bound: 1e-12 relative.  Inputs, factors and states are bit-identical
    to the loop's; only the kernel's batch shape and the summation order
    differ.
    """

    BLOCK = score_module._MC_BLOCK

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_criterion07_setups(self, n):
        ds, params, s0, pol = criterion07_setup(n)
        opt = empirical_score_fn(ds, params, s0, pol)
        shift = np.array([0.06, -0.08])
        for fn in (opt, lambda u, t: opt(u, t) + shift):
            got = mc_loss(fn, ds, params, s0, pol, 2 * self.BLOCK + 37, rng_seed=501)
            want, _ = mc_loss_loop(fn, ds, params, s0, pol, 2 * self.BLOCK + 37, 501)
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n_mc", [1, BLOCK - 1, BLOCK + 1])
    def test_marginalized_order8_with_floors(self, n_mc):
        # Marginalized order 8 floors about 2 % of t ~ U(1e-3, 1): the
        # E Sigma_0 E^T term loses the smallest eigenvalue (ROADMAP), so
        # the blocks take the per-slice factor fallback.
        ds = criterion07_setup(2)[0]
        params, pol = critically_damped_params(8), Marginalized()
        s0 = initial_covariance(params, pol)
        opt = empirical_score_fn(ds, params, s0, pol)
        fn = lambda u, t: opt(u, t) + np.array([0.06, -0.08])
        got = mc_loss(fn, ds, params, s0, pol, n_mc, rng_seed=502)
        want, floored = mc_loss_loop(fn, ds, params, s0, pol, n_mc, 502)
        assert abs(got - want) <= 1e-12 * want
        if n_mc > 1:
            assert floored > 0

    def test_each_block_is_factored_once(self, monkeypatch):
        # mc_loss and the exact score it calls share the block's schedule.
        ds, params, s0, pol = criterion07_setup(3)
        opt = empirical_score_fn(ds, params, s0, pol)
        stacks = []
        real = forward.cholesky_stack

        def counting(cov, *args):
            stacks.append(len(cov.t))
            return real(cov, *args)

        monkeypatch.setattr(forward, "cholesky_stack", counting)
        forward._schedule.cache_clear()
        mc_loss(opt, ds, params, s0, pol, 2 * self.BLOCK + 37, rng_seed=501)
        assert stacks == [self.BLOCK, self.BLOCK, 37]

    def test_callback_sees_batches_of_times(self):
        ds, params, s0, pol = criterion07_setup(2)
        seen = []

        def fn(u, t):
            seen.append((u.shape, t.shape))
            return np.zeros(2)

        mc_loss(fn, ds, params, s0, pol, self.BLOCK + 5, rng_seed=3)
        assert seen == [((self.BLOCK, 4), (self.BLOCK,)), ((5, 4), (5,))]


class TestBatchedTimes:
    """A (B,) array of times: row b is scored against the time-t[b] mixture."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_match_single_time_mixtures(self, n):
        params = ou_params() if n == 1 else critically_damped_params(n)
        pol = FixedPerSample(seed=4)
        rng = np.random.default_rng(60 + n)
        ds = Dataset(2.0 * rng.standard_normal((6, 2)))
        s0 = initial_covariance(params, pol)
        times = np.array([T_EPS, 1e-2, 0.3, 1.0, 1e-2])
        mix = mixture_at(ds, params, s0, pol, times)
        assert mix.n_components == 6
        assert mix.white_centers.shape == (5, 6, 2 * n)
        u = mix.centers[:, 1] + kron_apply(mix.chol, rng.standard_normal((5, 2 * n)), 2)
        score, w = score_full(mix, u), responsibilities(mix, u)
        logp = log_density_shifted(mix, u)
        for b, t in enumerate(times):
            one = mixture_at(ds, params, s0, pol, float(t))
            assert np.array_equal(mix.chol[b], one.chol)
            assert np.array_equal(mix.white_centers[b], one.white_centers)
            assert np.array_equal(mix.chol_inv[b], one.chol_inv)
            want = score_full(one, u[b])
            assert np.abs(score[b] - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(w[b] - responsibilities(one, u[b])).max() <= 1e-12
            assert abs(logp[b] - log_density_shifted(one, u[b])) <= 1e-12 * max(
                1.0, abs(logp[b])
            )


class TestResponsibilityCollapse:
    def test_one_hot_near_time_floor(self):
        # Well-separated data, point-mass lift: at u = exp(Ft) u0_j the
        # responsibilities concentrate on component j as t drops to T_EPS.
        params = critically_damped_params(2)
        pol = FixedPerSample(seed=21)
        ds = Dataset(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]]))
        s0 = initial_covariance(params, pol)
        mix = mixture_at(ds, params, s0, pol, T_EPS)
        for j in range(4):
            w = responsibilities(mix, mix.centers[j])
            assert w[j] >= 0.999


def reference_kernel(mix, batch):
    """Per-pair solve kernel: (squared distances, weights, log p, score).

    One triangular system per (point, center) pair against the block factor
    gives the squared Mahalanobis distances; the score comes from a dense
    (Sigma x I_h) solve, with Sigma = L L^T the covariance the factor
    represents (Sigma_t + delta I of the schedule).
    """
    n, h = mix.order, mix.block_dim
    diffs = batch[:, None, :] - mix.centers[None, :, :]
    y = np.linalg.solve(mix.chol, diffs.reshape(-1, n, h))
    sq = (y * y).sum(axis=(1, 2)).reshape(batch.shape[0], -1)
    lw = -0.5 * sq
    m = lw.max(axis=1)
    e = np.exp(lw - m[:, None])
    w = e / e.sum(axis=1, keepdims=True)
    logp = m + np.log(e.sum(axis=1))
    sigma = mix.chol @ mix.chol.T
    dense = np.kron(sigma, np.eye(h))
    score = np.linalg.solve(dense, (w @ mix.centers - batch).T).T
    return sq, w, logp, score


def forward_probes(mix, rng, count):
    """Forward samples around random centers plus a few prior-scale draws."""
    nh = mix.order * mix.block_dim
    k = rng.integers(mix.n_components, size=count)
    eps = rng.standard_normal((count, nh))
    near = mix.centers[k] + kron_apply(mix.chol, eps, mix.block_dim)
    return np.vstack([near, rng.standard_normal((8, nh))])


class TestKernelOracle:
    """The whitened kernel against the per-pair solve reference.

    Bound: relative error at most max(1e-10, 1e-18 * cond(Sigma_t)), i.e.
    1e-10 wherever Sigma_t is well conditioned (cond <= 1e8); past that
    both kernels lose digits in proportion to the condition number.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("t", [1.0, 0.1, 1e-2])
    @pytest.mark.parametrize("policy", [FixedPerSample(seed=3), Marginalized()])
    def test_matches_per_pair_solve(self, n, t, policy):
        params = ou_params() if n == 1 else critically_damped_params(n)
        s0 = initial_covariance(params, policy)
        rng = np.random.default_rng(17 * n)
        for n_train in (1, 8, 256):
            ds = Dataset(3.0 * rng.standard_normal((n_train, 2)))
            mix = mixture_at(ds, params, s0, policy, t)
            sigma = schedule(params, s0, [t]).cov.small[0]
            bound = max(1e-10, 1e-18 * np.linalg.cond(sigma))
            u = forward_probes(mix, rng, 24)
            _, w_ref, logp_ref, score_ref = reference_kernel(mix, u)
            score = score_full(mix, u)
            rel = np.linalg.norm(score - score_ref, axis=1) / np.linalg.norm(
                score_ref, axis=1
            )
            assert rel.max() <= bound, (n_train, rel.max())
            assert np.abs(responsibilities(mix, u) - w_ref).max() <= bound
            logp = log_density_shifted(mix, u)
            rel_logp = np.abs(logp - logp_ref) / np.maximum(1.0, np.abs(logp_ref))
            assert rel_logp.max() <= bound, (n_train, rel_logp.max())

    def test_nearest_center_distance_without_cancellation(self):
        # Order 3 at t = 1e-3: the whitened centers have squared norms near
        # 1e17, so an expanded |y|^2 + |c|^2 - 2 y.c form loses every digit
        # (off by ~1e2 here).  Probes sit next to their own center with
        # one-hot responsibilities, so -2 log p is the nearest-center
        # squared Mahalanobis distance.
        params = critically_damped_params(3)
        pol = FixedPerSample(seed=7)
        ds = Dataset(training_points(GaussianMixtureSpec(k=8, spread=6.0), 8, 7))
        s0 = initial_covariance(params, pol)
        mix = mixture_at(ds, params, s0, pol, 1e-3)
        rng = np.random.default_rng(0)
        u = mix.centers + kron_apply(mix.chol, rng.standard_normal((8, 6)), 2)
        sq_ref, *_ = reference_kernel(mix, u)
        nearest = sq_ref.min(axis=1)
        assert np.all(nearest < 20.0)
        assert np.array_equal(responsibilities(mix, u), np.eye(8))
        assert np.abs(-2.0 * log_density_shifted(mix, u) - nearest).max() <= 1e-5


class TestScoreMemo:
    def _setup(self):
        params = critically_damped_params(3)
        pol = Marginalized()
        ds = Dataset(np.random.default_rng(4).standard_normal((8, 2)) * 3.0)
        return ds, params, initial_covariance(params, pol), pol

    def test_interleaved_times_bit_identical(self):
        ds, params, s0, pol = self._setup()
        fn = empirical_score_fn(ds, params, s0, pol)
        rng = np.random.default_rng(9)
        for t in [1.0, 0.5, 0.5, 0.25, 1.0, 0.25, 0.5, 1e-3, 1e-3, 0.25]:
            u = rng.standard_normal((5, 6))
            fresh = score_last_block(mixture_at(ds, params, s0, pol, t), u)
            assert np.array_equal(fn(u, t), fresh)

    def test_array_times_bypass_memo(self, monkeypatch):
        # An array-time call builds its own mixture and leaves the mixture
        # of the last scalar time alone.
        ds, params, s0, pol = self._setup()
        real = score_module.mixture_at
        built = []

        def counting(*args):
            built.append(np.ndim(args[-1]))
            return real(*args)

        monkeypatch.setattr(score_module, "mixture_at", counting)
        fn = empirical_score_fn(ds, params, s0, pol)
        u = np.random.default_rng(2).standard_normal((3, 6))
        times = np.array([0.2, 0.4, 0.6])
        for t in (1.0, times, 1.0, times):
            fn(u, t)
        assert built == [0, 1, 1]
        singles = [real(ds, params, s0, pol, t) for t in times]
        want = np.stack([score_last_block(m, row) for m, row in zip(singles, u)])
        assert np.abs(fn(u, times) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("builds", [41], ids=["heun-41"])
    def test_one_build_per_grid_time(self, monkeypatch, builds):
        # A k-step Heun pass evaluates 2k times at k + 1 distinct times.
        ds, params, s0, pol = self._setup()
        real = score_module.mixture_at
        times, live = [], []

        def counting(*args):
            assert sum(ref() is not None for ref in live) <= 2
            mix = real(*args)
            times.append(args[-1])
            live.append(weakref.ref(mix))
            return mix

        monkeypatch.setattr(score_module, "mixture_at", counting)
        fn = empirical_score_fn(ds, params, s0, pol)
        grid = TimeGrid(steps=40)
        pf_ode_endpoints(params, fn, grid, rng_seed=5, h=2, runs=6)
        assert len(times) == builds
        assert times == [float(t) for t in grid.times()[:builds]]
        assert sum(ref() is not None for ref in live) <= 2


def rowmajor_kernel(mix, batch):
    """The (B, N, n*h) kernel that the component-major one replaced.

    Returns (score, responsibilities, log p, scale), where scale is
    |L^{-T} mean| + |L^{-T} y| per row: the two terms whose difference is
    the score, before they cancel.
    """
    h, inv_t = mix.block_dim, mix.chol_inv.swapaxes(-1, -2)
    y = kron_apply(mix.chol_inv, batch, h)
    diffs = y[:, None, :] - mix.white_centers
    lw = -0.5 * np.einsum("bkj,bkj->bk", diffs, diffs)
    m = lw.max(axis=1)
    lw = lw - m[:, None]
    w = np.exp(lw)
    w /= w.sum(axis=1, keepdims=True)
    logp = m + np.log(np.exp(lw).sum(axis=1))
    white = mix.white_centers
    mean = w @ white if white.ndim == 2 else (w[:, None, :] @ white)[:, 0]
    score = kron_apply(inv_t, mean - y, h)
    scale = np.linalg.norm(kron_apply(inv_t, mean, h), axis=1) + np.linalg.norm(
        kron_apply(inv_t, y, h), axis=1
    )
    return score, w, logp, scale


class TestComponentMajorKernel:
    """The component-major kernel against the row-major one it replaced.

    Only the order of the sums over coordinates and components differs.
    Bounds, all 1e-14 (measured at most 6.4e-16, 5.6e-16 and 8.9e-16): the
    score relative to ``scale``, the responsibilities absolutely, log p
    relative to max(1, |log p|).  With one component, and with one-hot
    weights (N = 8 at t = 1e-3), the score and the weights were equal to the
    bit, and must stay so.
    """

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 10.0])
    @pytest.mark.parametrize("n_train", [1, 8, 256])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_rowmajor_kernel(self, n, n_train, t, shared):
        params = ou_params() if n == 1 else critically_damped_params(n)
        pol = FixedPerSample(seed=3)
        s0 = initial_covariance(params, pol)
        rng = np.random.default_rng([n, n_train])
        ds = Dataset(3.0 * rng.standard_normal((n_train, 2)))
        batch = 40
        pick = rng.integers(n_train, size=batch)
        eps = rng.standard_normal((batch, 2 * n))
        if shared:
            mix = mixture_at(ds, params, s0, pol, t)
            near = mix.centers[pick]
        else:
            times = t * rng.uniform(0.5, 2.0, size=batch)
            mix = mixture_at(ds, params, s0, pol, times)
            near = mix.centers[np.arange(batch), pick]
        u = near + kron_apply(mix.chol, eps, 2)
        score_ref, w_ref, logp_ref, scale = rowmajor_kernel(mix, u)
        score, w = score_full(mix, u), responsibilities(mix, u)
        logp = log_density_shifted(mix, u)
        assert score.shape == u.shape and w.shape == (batch, n_train)
        assert (np.linalg.norm(score - score_ref, axis=1) / scale).max() <= 1e-14
        assert np.abs(w - w_ref).max() <= 1e-14
        rel_logp = np.abs(logp - logp_ref) / np.maximum(1.0, np.abs(logp_ref))
        assert rel_logp.max() <= 1e-14
        if n_train == 1 or (n_train == 8 and t == 1e-3):
            assert np.array_equal(score, score_ref)
            assert np.array_equal(w, w_ref)


def scalar_pieces(ds, params, s0, pol, t):
    """A single-time mixture's fields as built before schedules (scalar
    ``expm_at``, ``cholesky_block`` and inverse), then Sigma_t and the floor."""
    h = ds.h
    centers = kron_apply(expm_at(params, t)[None], ds.lifted(params, pol), h)
    cov = covariance_at(params, s0, t)
    factor, shift = cholesky_block(cov)
    inv = np.linalg.inv(factor)
    white = kron_apply(inv[None], centers, h)
    return (centers, factor, inv, white), (cov.small, shift)


class TestScheduledMixture:
    @pytest.mark.parametrize("policy", [FixedPerSample(seed=3), Marginalized()])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fields_equal_scalar_mixture_bit_for_bit(self, n, policy):
        params = ou_params() if n == 1 else critically_damped_params(n)
        s0 = initial_covariance(params, policy)
        ds = Dataset(np.random.default_rng(n).standard_normal((8, 2)) * 3.0)
        quadratic = TimeGrid(t_end=1e-3, steps=100, spacing="quadratic")
        for times in (TimeGrid(steps=100).times(), quadratic.times()):
            sched = schedule(params, s0, times)
            for k, t in enumerate(times.tolist()):
                mix = score_module._mixture(ds, params, policy, sched, k)
                one = mixture_at(ds, params, s0, policy, t)
                want, (sigma, shift) = scalar_pieces(ds, params, s0, policy, t)
                for m in (mix, one):
                    got = (m.centers, m.chol, m.chol_inv, m.white_centers)
                    assert all(np.array_equal(a, b) for a, b in zip(got, want))
                # Sigma_t and its floor live on the schedule, not the mixture.
                assert sched.times[k] == t and sched.delta[k] == shift
                assert np.array_equal(sched.cov.small[k], sigma)

    def test_mixture_holds_only_what_the_kernel_reads(self):
        names = [f.name for f in dataclasses.fields(EmpiricalMixture)]
        assert names == [
            "order", "block_dim", "centers", "chol", "chol_inv", "white_centers"
        ]
        mix, *_ = make_mixture(n=2, h=1, t=0.5)
        for gone in ("cov", "t", "chol_shift"):
            assert not hasattr(mix, gone), gone

    def test_score_fn_builds_each_grid_time_once_from_the_schedule(self, monkeypatch):
        ds, params, s0, pol = criterion07_setup(3)
        grid = TimeGrid(steps=40)
        sched = schedule(params, s0, grid.times())
        built = []
        real = score_module._mixture
        monkeypatch.setattr(
            score_module, "_mixture", lambda *a: built.append(a[-1]) or real(*a)
        )
        monkeypatch.setattr(score_module, "mixture_at", None)  # never reached
        fn = empirical_score_fn(ds, params, s0, pol, schedule=sched)
        got, *_ = pf_ode_endpoints(params, fn, grid, rng_seed=5, h=2, runs=6)
        assert built == list(range(41))
        monkeypatch.undo()
        fallback = empirical_score_fn(ds, params, s0, pol)
        want, *_ = pf_ode_endpoints(params, fallback, grid, rng_seed=5, h=2, runs=6)
        assert np.array_equal(got, want)
