"""Empirical-score tests: mixtures, responsibilities, gradients, loss."""

import dataclasses
import math
import types
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
    mc_loss,
    mixture_at,
    pf_ode_endpoints,
    responsibilities,
    score_full,
    score_last_block,
)
from holdlab import forward
from holdlab import score as score_module
from holdlab.core import _order_params, expm_at, kron_apply
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


def pieces(ds, params, s0, pol, t):
    """The unwhitened pieces of the time-t mixture, read off
    ``forward.schedule`` and ``Dataset.lifted``: the centers exp(Ft) u0^(k)
    (built as (n*h, N) columns by the product that ``_mixtures``' ``at``
    uses and held as their (N, n*h) transposes), the factor ``chol`` and
    ``chol_inv``.  Like the mixture's fields, every array carries a leading
    time axis: G = 1 at a float t, G = B at (B,) times."""
    sched = schedule(params, s0, np.atleast_1d(t))
    lifted = ds.lifted(params, pol)
    cols = sched.expm @ lifted.T.reshape(params.order, -1)
    centers = cols.reshape(len(cols), *lifted.T.shape).swapaxes(-1, -2)
    return types.SimpleNamespace(
        order=params.order,
        block_dim=ds.h,
        centers=centers,
        chol=sched.chol,
        chol_inv=sched.chol_inv,
    )


def full_white(ref):
    """The (G, N, n*h) whitened centers L^{-1} c_k of ``pieces``, built as
    ``_mixtures``' ``at`` builds an unreflected mixture's."""
    cols = ref.centers.swapaxes(-1, -2)
    white = ref.chol_inv @ cols.reshape(len(cols), ref.order, -1)
    return white.reshape(cols.shape).swapaxes(-1, -2)


class TestMixtureAt:
    def test_single_point_at_zero_time(self):
        params = critically_damped_params(2)
        ds = Dataset(np.array([[1.5]]))
        pol = FixedPerSample(seed=1)
        s0 = initial_covariance(params, pol)
        mix = mixture_at(ds, params, s0, pol, 0.0)
        assert mix.n_components == 1
        ref = pieces(ds, params, s0, pol, 0.0)
        assert np.array_equal(ref.centers[0, 0], ds.lifted(params, pol)[0])
        # A zero covariance: the factor is that of the 1e-12 floor.
        sched = schedule(params, s0, [0.0])
        assert not sched.cov.small.any() and sched.delta[0] == 1e-12
        assert np.array_equal(mix.whiten, sched.chol_inv)
        assert np.array_equal(mix.white_centers, full_white(ref))

    def test_centers_decay_at_large_t(self):
        _, ds, params, s0, pol = make_mixture(n=3, h=2, t=20.0)
        assert np.abs(pieces(ds, params, s0, pol, 20.0).centers).max() <= 1e-6

    def test_order_preserving(self):
        pts = np.arange(10, dtype=float)[:, None]
        _, ds, params, s0, pol = make_mixture(n=2, h=1, t=0.3, points=pts)
        centers = pieces(ds, params, s0, pol, 0.3).centers[0]
        e = expm_at(params, 0.3)
        for k in range(10):
            want = np.kron(e, np.eye(1)) @ ds.lifted(params, pol)[k]
            assert np.allclose(centers[k], want, atol=1e-12, rtol=0)

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
        first = pieces(ds, params, s0, Marginalized(), 1.0).centers[0, 0]
        at_first = responsibilities(mix, first)
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
        center = pieces(ds, params, s0, pol, 0.7).centers[0, 0]
        want = np.linalg.solve(covariance_at(params, s0, 0.7).small, center - u)
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
        centers = pieces(ds, params, s0, pol, 0.5).centers[0]
        want = np.linalg.solve(sigma, centers.mean(axis=0) - u)
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
    """The per-sample loss loop mc_loss replaced: on mc_loss's three draws,
    one single-time factor and one single-point score call per sample.
    Returns the loss and the number of samples whose factor was floored."""
    n, h = params.order, dataset.h
    lifted = dataset.lifted(params, policy)
    rng = np.random.default_rng(rng_seed)
    times = rng.uniform(T_EPS, 1.0, n_mc)
    picks = rng.integers(dataset.n_train, size=n_mc)
    noise = rng.standard_normal((n_mc, n * h))
    total, floored = 0.0, 0
    for t, k, eps in zip(times.tolist(), picks.tolist(), noise):
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

    def test_mc_loss_rejects_a_missing_seed(self):
        ds, params, s0, pol = criterion07_setup(2)
        with pytest.raises(ValueError, match="rng_seed"):
            mc_loss(lambda u, t: np.zeros(2), ds, params, s0, pol, 4, None)


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
        ref = pieces(ds, params, s0, pol, times)
        u = ref.centers[:, 1] + kron_apply(ref.chol, rng.standard_normal((5, 2 * n)), 2)
        score, w = score_full(mix, u), responsibilities(mix, u)
        logp = log_density_shifted(mix, u)
        for b, t in enumerate(times):
            one = mixture_at(ds, params, s0, pol, float(t))
            assert np.array_equal(ref.chol[b], pieces(ds, params, s0, pol, float(t)).chol[0])
            assert np.array_equal(mix.white_centers[b], one.white_centers[0])
            assert np.array_equal(mix.whiten[b], one.whiten[0])
            want = score_full(one, u[b])
            assert np.abs(score[b] - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(w[b] - responsibilities(one, u[b])).max() <= 1e-12
            assert abs(logp[b] - log_density_shifted(one, u[b])) <= 1e-12 * max(
                1.0, abs(logp[b])
            )

    def test_batch_must_match_the_time_stack(self):
        # A mixture at G > 1 times takes G rows; at one time, any batch.
        # 4 rows would otherwise fold into the 2 times' columns unchecked.
        params, pol = critically_damped_params(2), FixedPerSample(seed=4)
        ds = Dataset(np.random.default_rng(5).standard_normal((3, 2)))
        s0 = initial_covariance(params, pol)
        mix = mixture_at(ds, params, s0, pol, np.array([0.2, 0.4]))
        for u in (np.ones((4, 4)), np.ones((3, 4)), np.ones((1, 4)), np.ones(4)):
            rows = len(np.atleast_2d(u))
            for fn in (score_full, responsibilities, log_density_shifted):
                with pytest.raises(ValueError, match=f"2 times .* {rows} rows"):
                    fn(mix, u)
        one = mixture_at(ds, params, s0, pol, np.array([0.2]))
        assert score_full(one, np.ones((4, 4))).shape == (4, 4)


class TestResponsibilityCollapse:
    def test_one_hot_near_time_floor(self):
        # Well-separated data, point-mass lift: at u = exp(Ft) u0_j the
        # responsibilities concentrate on component j as t drops to T_EPS.
        params = critically_damped_params(2)
        pol = FixedPerSample(seed=21)
        ds = Dataset(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]]))
        s0 = initial_covariance(params, pol)
        mix = mixture_at(ds, params, s0, pol, T_EPS)
        centers = pieces(ds, params, s0, pol, T_EPS).centers[0]
        for j in range(4):
            w = responsibilities(mix, centers[j])
            assert w[j] >= 0.999


def reference_kernel(ref, batch):
    """Per-pair solve kernel on the ``pieces`` of a mixture at one time:
    (squared distances, weights, log p, score).

    One triangular system per (point, center) pair against the block factor
    gives the squared Mahalanobis distances; the score comes from a dense
    (Sigma x I_h) solve, with Sigma = L L^T the covariance the factor
    represents (Sigma_t + delta I of the schedule).
    """
    n, h, centers, chol = ref.order, ref.block_dim, ref.centers[0], ref.chol[0]
    diffs = batch[:, None, :] - centers[None, :, :]
    y = np.linalg.solve(chol, diffs.reshape(-1, n, h))
    sq = (y * y).sum(axis=(1, 2)).reshape(batch.shape[0], -1)
    lw = -0.5 * sq
    m = lw.max(axis=1)
    e = np.exp(lw - m[:, None])
    w = e / e.sum(axis=1, keepdims=True)
    logp = m + np.log(e.sum(axis=1))
    sigma = chol @ chol.T
    dense = np.kron(sigma, np.eye(h))
    score = np.linalg.solve(dense, (w @ centers - batch).T).T
    return sq, w, logp, score


def forward_probes(ref, rng, count):
    """Forward samples around random centers of a mixture at one time, plus
    a few prior-scale draws."""
    nh, centers = ref.order * ref.block_dim, ref.centers[0]
    k = rng.integers(len(centers), size=count)
    eps = rng.standard_normal((count, nh))
    near = centers[k] + kron_apply(ref.chol, eps, ref.block_dim)
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
            ref = pieces(ds, params, s0, policy, t)
            sigma = schedule(params, s0, [t]).cov.small[0]
            bound = max(1e-10, 1e-18 * np.linalg.cond(sigma))
            u = forward_probes(ref, rng, 24)
            _, w_ref, logp_ref, score_ref = reference_kernel(ref, u)
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
        ref = pieces(ds, params, s0, pol, 1e-3)
        rng = np.random.default_rng(0)
        u = ref.centers[0] + kron_apply(ref.chol, rng.standard_normal((8, 6)), 2)
        sq_ref, *_ = reference_kernel(ref, u)
        nearest = sq_ref.min(axis=1)
        assert np.all(nearest < 20.0)
        assert np.array_equal(responsibilities(mix, u), np.eye(8))
        assert np.abs(-2.0 * log_density_shifted(mix, u) - nearest).max() <= 1e-5

    @pytest.mark.parametrize("n, bound", [(3, 1e-5), (4, 1e-3)])
    def test_nearest_center_distance_on_the_axis(self, n, bound):
        # The Marginalized twin: distances are taken in the h coordinates
        # the reflection leaves to the centers, and the rows beyond them
        # enter log p alone.  |a|^2 is 2.4e14 at order 3 and 1.4e20 at
        # order 4, where one float64 difference of whitened coordinates near
        # 1e11 errs by about 1e-5: the direct kernel misses the per-pair
        # reference there by 1.5e-4 and this one by 9.4e-5, so order 4 takes
        # the wider bound.
        params = critically_damped_params(n)
        pol = Marginalized()
        ds = Dataset(training_points(GaussianMixtureSpec(k=8, spread=6.0), 8, 7))
        s0 = initial_covariance(params, pol)
        mix = mixture_at(ds, params, s0, pol, 1e-3)
        assert mix.white_centers.shape == (1, 8, 2)
        ref = pieces(ds, params, s0, pol, 1e-3)
        rng = np.random.default_rng(0)
        u = ref.centers[0] + kron_apply(ref.chol, rng.standard_normal((8, 2 * n)), 2)
        sq_ref, *_ = reference_kernel(ref, u)
        nearest = sq_ref.min(axis=1)
        assert np.all(nearest < 20.0)
        assert np.array_equal(responsibilities(mix, u), np.eye(8))
        assert np.abs(-2.0 * log_density_shifted(mix, u) - nearest).max() <= bound


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


def rowmajor_kernel(ref, batch):
    """The (B, N, n*h) kernel that the component-major one replaced, on the
    ``pieces`` of a mixture.

    Returns (score, responsibilities, log p, scale), where scale is
    |L^{-T} mean| + |L^{-T} y| per row: the two terms whose difference is
    the score, before they cancel.
    """
    h, inv_t = ref.block_dim, ref.chol_inv.swapaxes(-1, -2)
    white = full_white(ref)
    y = kron_apply(ref.chol_inv, batch, h)
    diffs = y[:, None, :] - white
    lw = -0.5 * np.einsum("bkj,bkj->bk", diffs, diffs)
    m = lw.max(axis=1)
    lw = lw - m[:, None]
    w = np.exp(lw)
    w /= w.sum(axis=1, keepdims=True)
    logp = m + np.log(np.exp(lw).sum(axis=1))
    mean = (w[:, None, :] @ white)[:, 0]
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
        times = t if shared else t * rng.uniform(0.5, 2.0, size=batch)
        mix = mixture_at(ds, params, s0, pol, times)
        ref = pieces(ds, params, s0, pol, times)
        rows = 0 if shared else np.arange(batch)
        u = ref.centers[rows, pick] + kron_apply(ref.chol, eps, 2)
        score_ref, w_ref, logp_ref, scale = rowmajor_kernel(ref, u)
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


def direct_kernel(ref, batch):
    """The kernel over all n*h coordinates whitened by L^{-1}, on the
    ``pieces`` of a mixture: (score, responsibilities, log p, scale, kappa).

    scale_b = |L^{-T} mean_b| + |L^{-T} y_b|, the two terms whose difference
    is the score, before they cancel.  kappa_b = eps (1 + |y_b|)(1 + d_b),
    with y_b the whitened probe and d_b its whitened distance to the nearest
    center, is the rounding scale of the direct differences y_b - c~_k that
    both kernels take.
    """
    h, white = ref.block_dim, full_white(ref)
    times, n_comp, r = white.shape
    y = score_module._block_apply(ref.chol_inv, batch.T)
    sq = np.zeros((n_comp, len(batch)))
    diff = np.empty_like(sq)
    for y_row, c_row in zip(y, white.T):
        np.subtract(y_row, c_row, out=diff)
        diff *= diff
        sq += diff
    lw = -0.5 * sq
    m = lw.max(axis=0)
    lw -= m
    # The unnormalized weights e make the weighted sum, and the (r, B) mean
    # is that sum over sum_k e_k: at a shared time both come from one GEMM
    # with the centers and a row of ones.
    e, w = score_module._exp_weights(lw), score_module._weights(lw)
    logp = m + np.log(np.exp(lw).sum(axis=0))
    inv_t = ref.chol_inv.swapaxes(-1, -2)
    if times == 1:
        sums = np.vstack([white[0].T, np.ones(n_comp)]) @ e
        mean = sums[:r] / sums[r]
    else:
        mean = white.swapaxes(-1, -2) @ e.reshape(n_comp, times, -1).swapaxes(0, 1)
        mean = mean.swapaxes(0, 1).reshape(r, -1) / (np.ones(n_comp) @ e)
    score = score_module._block_apply(inv_t, mean - y).T
    mean = mean.T
    scale = np.linalg.norm(kron_apply(inv_t, mean, h), axis=1) + np.linalg.norm(
        kron_apply(inv_t, np.ascontiguousarray(y.T), h), axis=1
    )
    eps = np.finfo(float).eps
    kappa = eps * (1.0 + np.linalg.norm(y, axis=0)) * (1.0 + np.sqrt(-2.0 * m))
    return score, w.T, logp, scale, kappa


class TestAxisKernel:
    """Marginalized mixtures (order >= 2) are whitened by the reflection
    Q L^{-1} and measure distances in its first h coordinates; the result
    must match the direct kernel over all n*h coordinates whitened by L^{-1}.

    Both kernels round differences of whitened coordinates of size |y|, so
    they can differ by a multiple of kappa (see ``direct_kernel``), per
    probe: in the score relative to scale, in the weights and in log p.
    Measured over the grid below: at most 5.95 kappa in the score, 0.99 in
    the weights and 7.9 in log p, so the bound is 64 kappa.  kappa is
    below 1e-11 wherever t >= 1, and below 1.1e-2 on the probes next to a
    center; between two centers at t <= 1e-2 it passes 1 and the weights
    are decided by rounding, in both kernels alike.
    """

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "stacked"])
    @pytest.mark.parametrize("h", [1, 2, 16])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_direct_kernel(self, n, h, shared):
        params, pol = critically_damped_params(n), Marginalized()
        s0 = initial_covariance(params, pol)
        batch = 32
        for n_train in (1, 8, 256):
            rng = np.random.default_rng([n, h, n_train])
            ds = Dataset(3.0 * rng.standard_normal((n_train, h)))
            for t in (10.0, 1.0, 1e-2, 1e-3):
                pick = rng.integers(n_train, size=(2, batch))
                times = t if shared else t * rng.uniform(0.5, 2.0, size=batch)
                mix = mixture_at(ds, params, s0, pol, times)
                ref = pieces(ds, params, s0, pol, times)
                rows = 0 if shared else np.arange(batch)
                ends = ref.centers[rows, pick]
                assert mix.white_centers.shape == (len(ref.centers), n_train, h)
                eps = rng.standard_normal((batch, n * h))
                near = ends[0] + kron_apply(ref.chol, eps, h)
                for u in (near, 0.5 * (ends[0] + ends[1])):
                    score_ref, w_ref, logp_ref, scale, kappa = direct_kernel(ref, u)
                    bound = 64.0 * kappa
                    err = np.linalg.norm(score_full(mix, u) - score_ref, axis=1)
                    assert np.all(err <= bound * scale)
                    w = responsibilities(mix, u)
                    assert np.all(np.abs(w - w_ref).max(axis=1) <= bound)
                    assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-14)
                    logp = log_density_shifted(mix, u)
                    assert np.all(np.abs(logp - logp_ref) <= bound)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "stacked"])
    @pytest.mark.parametrize(
        "n, policy",
        [(1, Marginalized()), (1, FixedPerSample(seed=3))]
        + [(n, FixedPerSample(seed=3)) for n in (2, 3, 4)],
    )
    def test_other_mixtures_keep_the_direct_kernel(self, n, policy, shared):
        params = ou_params() if n == 1 else critically_damped_params(n)
        s0 = initial_covariance(params, policy)
        rng = np.random.default_rng(n)
        ds = Dataset(3.0 * rng.standard_normal((8, 2)))
        for t in (1.0, 1e-3):
            times = t if shared else t * rng.uniform(0.5, 2.0, size=16)
            mix = mixture_at(ds, params, s0, policy, times)
            ref = pieces(ds, params, s0, policy, times)
            assert np.array_equal(mix.whiten, ref.chol_inv)
            assert mix.white_centers.shape[-1] == 2 * n
            u = rng.standard_normal((16, 2 * n))
            score_ref, w_ref, logp_ref, *_ = direct_kernel(ref, u)
            assert np.array_equal(score_full(mix, u), score_ref)
            assert np.array_equal(responsibilities(mix, u), w_ref)
            assert np.array_equal(log_density_shifted(mix, u), logp_ref)


class TestReflection:
    """A marginalized mixture of order >= 2 whitens by W = Q L^{-1}, where
    the Householder reflection Q maps the center axis a = L^{-1} exp(Ft) e_0
    to -sign(a_0) |a| e_0.

    Each check is relative to its scale: W^T W against L^{-T} L^{-1}
    (largest entry), and the whitened centers (W x I_h) c_k against the
    largest of them.  Measured over the grid below, with both signs of a_0:
    at most 9.2e-16 for W^T W, 2.9e-16 for the rows past h, which must
    vanish, and 5.3e-16 for ``white_centers`` against the first h rows (0
    against -sign(a_0) |a| x_k); the bound is 4e-15.
    """

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "stacked"])
    @pytest.mark.parametrize("h", [1, 2, 16])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reflects_the_center_axis_onto_e0(self, n, h, shared):
        params, pol = critically_damped_params(n), Marginalized()
        s0 = initial_covariance(params, pol)
        rng = np.random.default_rng([n, h])
        ds = Dataset(3.0 * rng.standard_normal((8, h)))
        lifted = ds.lifted(params, pol)
        for t in (10.0, 1.0, 1e-2, 1e-3):
            times = [t] if shared else t * rng.uniform(0.5, 2.0, size=5)
            base = schedule(params, s0, times)
            # A negated exp(Ft) flips a, so both signs of a_0 are reached.
            for sign in (1.0, -1.0):
                sched = dataclasses.replace(base, expm=sign * base.expm)
                mix = score_module._mixtures(ds, params, pol, sched)(slice(None))
                inv, whiten, expm = sched.chol_inv, mix.whiten, sched.expm
                gram = inv.swapaxes(-1, -2) @ inv
                err = whiten.swapaxes(-1, -2) @ whiten - gram
                rel = np.abs(err).max(axis=(-2, -1)) / np.abs(gram).max(axis=(-2, -1))
                assert rel.max() <= 4e-15
                cols = whiten @ (expm @ lifted.T.reshape(n, -1))
                white = cols.reshape(len(cols), n * h, -1).swapaxes(-1, -2)
                scale = np.abs(white).max(axis=(-2, -1), keepdims=True)
                assert (np.abs(white[..., h:]) / scale).max() <= 4e-15
                got = mix.white_centers
                assert (np.abs(got - white[..., :h]) / scale).max() <= 4e-15
                a = (inv @ expm[..., :1])[..., 0]
                s = np.where(a[..., 0] < 0, -1.0, 1.0)
                assert np.all(s == sign)
                on_e0 = (-s * np.linalg.norm(a, axis=-1))[..., None, None] * ds.points
                assert (np.abs(got - on_e0) / scale).max() <= 4e-15


def scalar_pieces(ds, params, s0, pol, t):
    """A single-time mixture's whitening matrix and whitened centers as
    built before schedules (scalar ``expm_at``, ``cholesky_block`` and
    inverse; a marginalized mixture of order >= 2 as the reflection of its
    axis vector), then the factor, Sigma_t and the floor."""
    h, e = ds.h, expm_at(params, t)
    cov = covariance_at(params, s0, t)
    factor, shift = cholesky_block(cov)
    inv = np.linalg.inv(factor)
    if isinstance(pol, Marginalized) and params.order > 1:
        a = inv @ e[:, :1]
        s = -1.0 if a[0, 0] < 0 else 1.0
        norm = math.sqrt((a * a).sum())
        v = a.copy()
        v[0] += s * norm
        q = np.eye(params.order) - 2.0 / (v.T @ v) * (v @ v.T)
        whiten, white = q @ inv, -s * norm * ds.points
    else:
        centers = kron_apply(e[None], ds.lifted(params, pol), h)
        whiten, white = inv, kron_apply(inv[None], centers, h)
    return (whiten, white), (factor, cov.small, shift)


class TestScheduledMixture:
    @pytest.mark.parametrize("policy", [FixedPerSample(seed=3), Marginalized()])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_fields_equal_scalar_mixture_bit_for_bit(self, n, policy):
        # The grid's whitening is built by one stacked call over all times;
        # each of its slices must equal the single-time mixture.
        params = ou_params() if n == 1 else critically_damped_params(n)
        s0 = initial_covariance(params, policy)
        ds = Dataset(np.random.default_rng(n).standard_normal((8, 2)) * 3.0)
        quadratic = TimeGrid(t_end=1e-3, steps=100, spacing="quadratic")
        for times in (TimeGrid(steps=100).times(), quadratic.times()):
            sched = schedule(params, s0, times)
            grid = score_module._mixtures(ds, params, policy, sched)
            for k, t in enumerate(times.tolist()):
                mix = grid(slice(k, k + 1))
                one = mixture_at(ds, params, s0, policy, t)
                want, (factor, sigma, shift) = scalar_pieces(ds, params, s0, policy, t)
                for m in (mix, one):
                    got = (m.whiten, m.white_centers)
                    assert all(np.array_equal(a, b[None]) for a, b in zip(got, want))
                # The factor, Sigma_t and its floor live on the schedule.
                assert sched.times[k] == t and sched.delta[k] == shift
                assert np.array_equal(sched.chol[k], factor)
                assert np.array_equal(sched.cov.small[k], sigma)

    def test_mixture_holds_only_what_the_kernel_reads(self):
        names = [f.name for f in dataclasses.fields(EmpiricalMixture)]
        assert names == ["order", "block_dim", "whiten", "white_centers"]
        mix, *_ = make_mixture(n=2, h=1, t=0.5)
        for gone in ("cov", "t", "chol_shift", "centers", "chol", "points", "axis"):
            assert not hasattr(mix, gone), gone

    def test_score_fn_builds_each_grid_time_once_from_the_schedule(self, monkeypatch):
        # One stacked whitening per score function (a sampler cell), then
        # one slice of it per grid time, under both policies.
        ds, params, _, _ = criterion07_setup(3)
        grid = TimeGrid(steps=40)
        real = score_module._mixtures
        for pol in (FixedPerSample(seed=3), Marginalized()):
            s0 = initial_covariance(params, pol)
            sched = schedule(params, s0, grid.times())
            stacks, built = [], []

            def counting(*args):
                stacks.append(args[-1])
                at = real(*args)
                return lambda k: built.append(k) or at(k)

            monkeypatch.setattr(score_module, "_mixtures", counting)
            monkeypatch.setattr(score_module, "mixture_at", None)  # never reached
            fn = empirical_score_fn(ds, params, s0, pol, schedule=sched)
            got, *_ = pf_ode_endpoints(params, fn, grid, rng_seed=5, h=2, runs=6)
            assert len(stacks) == 1 and stacks[0] is sched
            assert built == [slice(k, k + 1) for k in range(41)]
            monkeypatch.undo()
            fallback = empirical_score_fn(ds, params, s0, pol)
            want, *_ = pf_ode_endpoints(params, fallback, grid, rng_seed=5, h=2, runs=6)
            assert np.array_equal(got, want)


def plain_weights(lw):
    """Normalized exp over axis 0, exp applied to every entry."""
    w = np.exp(lw)
    return w / w.sum(axis=0)


def assert_plain_but_subnormal(got, lw):
    """The ``_weights`` contract: an entry at or below ``_EXP_ZERO``, whose
    exp is below the smallest normal float, is 0 (NaN in a column holding a
    NaN); every other entry, and so the normalising sum, has the bits of
    plain exp normalisation."""
    want = plain_weights(lw)
    skipped = lw <= score_module._EXP_ZERO
    assert not (want[skipped] >= np.finfo(float).tiny).any()
    assert np.array_equal(got, np.where(skipped, 0.0 * want, want), equal_nan=True)


class TestWeightsSkipUnderflow:
    """``_weights`` does not call exp at or below ``_EXP_ZERO`` = -708.4,
    where exp is subnormal (numpy's slow path) or 0; those weights are 0
    and every other weight keeps the bits of plain exp normalisation."""

    def test_bound_is_below_the_smallest_normal(self):
        tiny = np.finfo(float).tiny
        bound = score_module._EXP_ZERO
        assert np.exp(bound) < tiny and bound < math.log(tiny)
        assert np.exp(np.nextafter(bound, 0.0)) < tiny  # a few stay subnormal
        assert np.exp(-708.39) >= tiny

    def test_equals_plain_exp_on_synthetic_log_weights(self):
        rng = np.random.default_rng(16)
        shape = (64, 48)
        span = -np.exp(rng.uniform(math.log(1e-3), math.log(1e6), shape))
        band = -rng.uniform(700.0, 750.0, shape)  # the subnormal band and past it
        lw = np.where(rng.random(shape) < 0.5, span, band)
        lw[:, :8] = -rng.uniform(708.4, 1e6, (64, 8))  # all 0 but the max
        bound = score_module._EXP_ZERO
        edges = [
            -708.0, -708.39, np.nextafter(bound, 0.0), bound, -745.13, -745.14,
            np.nextafter(-746.0, 0.0), -746.0, -np.inf,
        ]
        lw[1:, 8] = -1e3
        lw[1 : 1 + len(edges), 8] = edges
        lw[7, 9] = np.nan
        lw[0] = 0.0  # each column's maximum, as _log_weights leaves it
        want = plain_weights(lw)
        tiny = np.finfo(float).tiny
        skipped = lw <= bound
        assert ((want > 0) & (want < tiny) & skipped).sum() >= 10  # subnormals
        assert skipped.mean() > 0.3
        got = score_module._weights(lw)
        assert_plain_but_subnormal(got, lw)
        assert np.all(got[0, :8] == 1) and np.all(got[1:, :8] == 0)
        # Column 8 sums to 1, so its weights are exp(lw) themselves.
        column = got[1 : 1 + len(edges), 8]
        assert np.array_equal(column[:3], np.exp(edges[:3]))
        assert 0 < column[2] < tiny and np.all(column[3:] == 0)
        assert np.isnan(got[:, 9]).all() and not np.isnan(np.delete(got, 9, 1)).any()

    def test_stacked_times_path(self):
        ds, params, s0, pol = criterion07_setup(3)
        rng = np.random.default_rng(17)
        times = rng.uniform(T_EPS, 2e-2, 32)
        mix = mixture_at(ds, params, s0, pol, times)
        pick = rng.integers(ds.n_train, size=32)
        ref = pieces(ds, params, s0, pol, times)
        u = ref.centers[np.arange(32), pick]
        u = u + kron_apply(ref.chol, rng.standard_normal((32, 6)), 2)
        _, lw, _, _ = score_module._log_weights(mix, u)
        assert (lw <= -746).mean() > 0.5
        assert np.array_equal(responsibilities(mix, u), plain_weights(lw).T)
        assert_plain_but_subnormal(responsibilities(mix, u).T, lw)


def band_probes(mix, rng, anchors, gaps):
    """Points u whose whitened images y put the log-weight of every
    component k other than column b's anchor a at -gaps[k, b] below it.

    With D_k = c~_k - c~_a, the offset d = y - c~_a solves
    D_k . d = |D_k|^2 / 2 - gap_k for k != a (the minimum-norm solution),
    so |y - c~_k|^2 / 2 - |y - c~_a|^2 / 2 = gap_k; the rows beyond the
    centers are standard normal.  Returns (B, n*h) points."""
    white, (n, h) = mix.white_centers, (mix.order, mix.block_dim)
    count, r = len(anchors), white.shape[-1]
    y = rng.standard_normal((count, n * h))
    for b, a in enumerate(anchors):
        centers = white[b % len(white)]
        others = np.delete(np.arange(len(centers)), a)
        rel = centers[others] - centers[a]
        rhs = 0.5 * (rel * rel).sum(axis=1) - gaps[others, b]
        y[b, :r] = centers[a] + np.linalg.lstsq(rel, rhs, rcond=None)[0]
    return kron_apply(np.linalg.inv(mix.whiten), y, h)


class TestScoreSkipsSubnormalWeights:
    """``score_full`` through ``_exp_weights`` equals ``score_full`` with
    plain exp weights bit for bit, on batches whose log-weights crowd the
    band (-746, -708.4] where exp is subnormal: a dropped weight is below
    2.3e-308 next to the column maximum's 1, so it moves neither the sum of
    the weights nor, since its term e_k c~_k is far below an ulp of it, the
    weighted sum of the centers.

    Each dataset is a random 4-point set in R^3 scaled so that its whitened
    centers are about 40 apart at the given time (squared distances near
    2 x 727); the auxiliaries are drawn at alpha = 1e-24, so they do not
    move the centers."""

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "stacked"])
    @pytest.mark.parametrize("policy", [FixedPerSample(seed=5), Marginalized()])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_plain_exp_weights(self, monkeypatch, n, policy, shared):
        params = _order_params(n, alpha=1e-24)
        s0 = initial_covariance(params, policy)
        rng = np.random.default_rng([n, int(shared)])
        base = rng.standard_normal((4, 3))
        crowded = 0
        for t in (1.0, 0.1, 1e-2, T_EPS):
            times = t if shared else t * rng.uniform(1.0, 1.2, 64)
            white = mixture_at(Dataset(base), params, s0, policy, t).white_centers[0]
            dist = np.linalg.norm(white[:, None] - white, axis=-1)
            ds = Dataset(base * (40.0 / np.median(dist[~np.eye(4, dtype=bool)])))
            mix = mixture_at(ds, params, s0, policy, times)
            # One gap in eight is small, so that a bound set too high, which
            # would drop normal weights, moves the scores.
            near = rng.random((4, 64)) < 0.125
            gaps = np.where(near, 0.05, 1.0) * rng.uniform(700.0, 750.0, (4, 64))
            u = band_probes(mix, rng, rng.integers(4, size=64), gaps)
            _, lw, _, _ = score_module._log_weights(mix, u)
            band = (lw > -746.0) & (lw <= score_module._EXP_ZERO)
            crowded += band.sum()
            got = score_full(mix, u)
            with monkeypatch.context() as patch:
                patch.setattr(score_module, "_exp_weights", np.exp)
                want = score_full(mix, u)
            assert got.tobytes() == want.tobytes()
        assert crowded >= 0.4 * (4 * 64 * 3)  # of the off-anchor weights


def two_pass_score(mix, u):
    """``score_full`` as it was before the weights stayed unnormalized:
    normalized weights w_k = e_k / sum_j e_j, then the mean sum_k w_k c~_k.
    Returns (score, scale), scale_b = |(W^T x I_h) mean_b| + |(W^T x I_h) y_b|,
    the two terms whose difference is the score, before they cancel."""
    y, lw, _, _ = score_module._log_weights(mix, u)
    w = score_module._weights(lw)
    white = mix.white_centers
    times, n_comp, r = white.shape
    mean = white.swapaxes(-1, -2) @ w.reshape(n_comp, times, -1).swapaxes(0, 1)
    mean = mean.swapaxes(0, 1).reshape(r, -1)
    back = -mix.whiten.swapaxes(-1, -2)
    scale = np.linalg.norm(score_module._block_apply(back, y), axis=0)
    y[:r] -= mean
    full = np.zeros_like(y)
    full[:r] = mean
    scale += np.linalg.norm(score_module._block_apply(back, full), axis=0)
    return score_module._block_apply(back, y).T, scale


class TestRowDifferenceGemm:
    """At one shared time row i's (N, B) differences are the rank-2 GEMM
    [c~_i | 1] @ [1; -y_i]: each entry sums two exact products and is
    rounded once, so it equals -(y_i - c~_i) bit for bit, at B = 1 (where
    BLAS may take its GEMV route) as at any other width, for huge and
    tiny magnitudes (a difference of one ulp near 1e-300 is subnormal),
    and for infinite and NaN points."""

    @pytest.mark.parametrize("batch", [1, 24, 512])
    @pytest.mark.parametrize("n_comp", [1, 8, 256])
    def test_equals_the_subtraction(self, n_comp, batch):
        rng = np.random.default_rng([n_comp, batch])
        r = 3
        for c_scale, y_scale in [(1e8, 1e8), (1e-300, 1e-300), (1e8, 1e-300), (1e-300, 1e8)]:
            white = c_scale * rng.standard_normal((1, n_comp, r))
            mix = EmpiricalMixture(r, 1, np.eye(r)[None], white)
            y = y_scale * rng.standard_normal((r, batch))
            y[:, -1] = np.nextafter(white[0, 0], np.inf)  # one ulp from center 0
            y[0, batch // 2] = white[0, -1, 0]
            y[0, 0], y[1, -1], y[2, batch // 2] = np.inf, -np.inf, np.nan
            got = [d.copy() for d in score_module._row_differences(mix, y)]
            assert len(got) == r
            for i, block in enumerate(got):
                want = np.subtract(y[i], white[0, :, i, None])
                assert np.array_equal(-block, want, equal_nan=True)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(block), nan)
                assert (block * block)[~nan].tobytes() == (want * want)[~nan].tobytes()
            if c_scale == y_scale == 1e-300 and batch > 1:
                tiny = np.finfo(float).tiny
                assert 0 < np.abs(got[0][0, -1]) < tiny  # subnormal, not flushed

    def test_stacked_times_subtract(self):
        # G = B mixtures keep the plain subtraction: their center rows are
        # already (N, B).
        mix, *_ = make_mixture(n=2, h=1, t=np.array([0.1, 0.2, 0.3]))
        assert mix._rows is None and len(mix.white_centers) == 3
        shared, *_ = make_mixture(n=2, h=1, t=0.1)
        assert shared._rows.shape == (2, 2) and np.all(shared._rows[-1] == 1.0)
        assert np.shares_memory(shared.white_centers, shared._rows)


class TestNonFiniteRows:
    """A NaN or infinite point spoils its own row and no other, in the
    kernel and in the sampler, which freezes exactly those runs."""

    def test_score_full_rows(self):
        ds, params, s0, pol = criterion07_setup(3)
        mix = mixture_at(ds, params, s0, pol, 0.1)
        u = np.random.default_rng(21).standard_normal((16, 6))
        bad = u.copy()
        bad[3, 1], bad[7, 0] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            got = score_full(mix, bad)
            w = responsibilities(mix, bad)
        assert np.array_equal(np.flatnonzero(~np.isfinite(got).all(axis=1)), [3, 7])
        assert np.array_equal(np.flatnonzero(np.isnan(w).any(axis=1)), [3, 7])
        keep = np.setdiff1d(np.arange(16), [3, 7])
        assert score_full(mix, u)[keep].tobytes() == got[keep].tobytes()

    def test_sampler_freezes_those_runs(self):
        ds, params, s0, pol = criterion07_setup(3)
        grid = TimeGrid(steps=40)
        sched = schedule(params, s0, grid.times())
        fn = empirical_score_fn(ds, params, s0, pol, schedule=sched)
        t_bad = float(grid.times()[10])
        seen = []

        def spoiled(u, t):
            # The second call at t_bad is step 10's first: its start state.
            seen.extend([np.array(u, copy=True)] if t == t_bad else [])
            if len(seen) == 2 and t == t_bad:
                u = u.copy()
                u[1, 0], u[4, 2] = np.nan, np.inf
            return fn(u, t)

        with np.errstate(invalid="ignore"):
            got, ok, failures = pf_ode_endpoints(params, spoiled, grid, rng_seed=5, h=2, runs=6)
        want, want_ok, _ = pf_ode_endpoints(params, fn, grid, rng_seed=5, h=2, runs=6)
        assert want_ok.all() and failures == [(1, 10), (4, 10)]
        assert np.array_equal(ok, [True, False, True, True, False, True])
        assert got[ok].tobytes() == want[ok].tobytes()
        assert np.array_equal(got[~ok], seen[1][~ok, :2])


class TestPostMeanNormalization:
    """``score_full`` divides the weighted sum of the centers by the sum of
    the unnormalized weights, where the form before it normalized the
    weights and then took the mean (``two_pass_score``).  Only rounding
    differs: measured over the grid below, 1183 of 7680 rows differ, by at
    most 6.7e-16 relative to the scale of ``TestComponentMajorKernel``, so
    the bound is 1e-14, as there.  A row with one component, or whose
    weights are one-hot (4622 rows), has sum 1 either way and must be equal
    to the bit."""

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "stacked"])
    @pytest.mark.parametrize("policy", [FixedPerSample(seed=3), Marginalized()])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_two_pass_form(self, n, policy, shared):
        params = _order_params(n)
        s0 = initial_covariance(params, policy)
        batch, one_hot_rows = 40, 0
        for n_train in (1, 8, 256):
            rng = np.random.default_rng([n, n_train, int(shared)])
            ds = Dataset(3.0 * rng.standard_normal((n_train, 2)))
            for t in (1e-3, 1e-2, 1.0, 10.0):
                times = t if shared else t * rng.uniform(0.5, 2.0, size=batch)
                mix = mixture_at(ds, params, s0, policy, times)
                ref = pieces(ds, params, s0, policy, times)
                rows = 0 if shared else np.arange(batch)
                pick = rng.integers(n_train, size=batch)
                eps = rng.standard_normal((batch, 2 * n))
                u = ref.centers[rows, pick] + kron_apply(ref.chol, eps, 2)
                got = score_full(mix, u)
                want, scale = two_pass_score(mix, u)
                assert (np.linalg.norm(got - want, axis=1) / scale).max() <= 1e-14
                _, lw, _, _ = score_module._log_weights(mix, u)
                exact = (score_module._exp_weights(lw) > 0).sum(axis=0) == 1
                one_hot_rows += exact.sum()
                assert got[exact].tobytes() == want[exact].tobytes()
        assert one_hot_rows >= batch * 4  # every single-component row at least
