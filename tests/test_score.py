"""Empirical-score tests: mixtures, responsibilities, gradients, loss."""

import math
import weakref

import numpy as np
import pytest

from holdlab import (
    Dataset,
    FixedPerSample,
    HoldParams,
    LiftedState,
    Marginalized,
    T_EPS,
    TimeGrid,
    covariance_at,
    critically_damped_params,
    empirical_score_fn,
    initial_covariance,
    kron_apply,
    loss_weight,
    mc_loss,
    mixture_at,
    pf_ode_endpoints,
    responsibilities,
    score_full,
    score_last_block,
)
from holdlab import score as score_module
from holdlab.core import expm_at
from holdlab.datasets import GaussianMixtureSpec, training_points
from holdlab.score import log_density_shifted
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
        assert np.array_equal(mix.cov.small, np.zeros((2, 2)))

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
        mid = LiftedState(2, 1, np.zeros(2))
        w = responsibilities(mix, mid)
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
        u = LiftedState(2, 1, np.array([0.3, -0.4]))
        got = score_full(mix, u)
        want = np.linalg.solve(mix.cov.small, mix.centers[0] - u.data)
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
        want = np.linalg.solve(mix.cov.small, mix.centers.mean(axis=0) - u)
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
    (Sigma x I_h) solve, with Sigma the covariance the factor represents.
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
    sigma = mix.cov.small + mix.chol_shift * np.eye(n)
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
            bound = max(1e-10, 1e-18 * np.linalg.cond(mix.cov.small))
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

    @pytest.mark.parametrize("method, builds", [("heun", 41), ("euler", 40)])
    def test_one_build_per_grid_time(self, monkeypatch, method, builds):
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
        pf_ode_endpoints(params, fn, grid, rng_seed=5, h=2, runs=6, method=method)
        assert len(times) == builds
        assert times == [float(t) for t in grid.times()[:builds]]
        assert sum(ref() is not None for ref in live) <= 2
