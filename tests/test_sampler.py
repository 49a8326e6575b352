"""Reverse-sampler tests: grids, priors, the batched integrator, failures."""

import inspect
import math

import numpy as np
import pytest

from holdlab import (
    Dataset,
    FixedPerSample,
    HoldParams,
    TimeGrid,
    build_forward_matrix,
    critically_damped_params,
    empirical_score_fn,
    initial_covariance,
    kron_apply,
    pf_ode_endpoints,
    sample_prior,
)
from holdlab import sampler
from holdlab.core import expm_at


def zero_score(h):
    def fn(u, t):
        u = np.asarray(u)
        return np.zeros(u.shape[:-1] + (h,))

    return fn


def flow_state(params, grid, rng_seed):
    """Full lifted endpoint of one zero-score flow run (drift F u) started
    from the prior draw of ``rng_seed``."""
    fmat = build_forward_matrix(params).entries
    start = sample_prior(params, 1, rng_seed)[None]
    state, ok, failures = sampler._integrate(
        lambda u, t: kron_apply(fmat, u, 1), grid.times(), start
    )
    assert ok.all() and not failures
    return state[0]


def heun_single_run(params, score_fn, grid, rng_seed, h):
    """Reference: one probability-flow run integrated on its own with Heun."""
    fmat = build_forward_matrix(params).entries
    gain = params.xi * params.l_inv

    def drift(u, t):
        out = kron_apply(fmat, u, h)
        out[..., -h:] -= gain * np.asarray(score_fn(u, t), dtype=float)
        return out

    y = sample_prior(params, h, rng_seed)
    times = grid.times()
    for k in range(len(times) - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        dt = t1 - t0
        f0 = drift(y, t0)
        pred = y + dt * f0
        y = y + 0.5 * dt * (f0 + drift(pred, t1))
    return y


def ou_score(x, dataset: Dataset, xi: float, l_inv: float, t: float) -> np.ndarray:
    """Closed-form first-order empirical score (the order-1 oracle).

    -(x - exp(-xi t) * weighted mean) / sigma_t^2 with
    sigma_t^2 = l_inv (1 - exp(-2 xi t)) and softmax weights over the
    scaled squared distances, computed in the log domain.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    batch = arr[None, :] if single else arr
    decay = math.exp(-xi * t)
    var = l_inv * -math.expm1(-2.0 * xi * t)
    sq = ((batch[:, None, :] - decay * dataset.points[None, :, :]) ** 2).sum(axis=2)
    lw = -0.5 * sq / var
    lw -= lw.max(axis=1, keepdims=True)
    w = np.exp(lw)
    w /= w.sum(axis=1, keepdims=True)
    out = -(batch - decay * (w @ dataset.points)) / var
    return out[0] if single else out


class TestTimeGrid:
    def test_defaults(self):
        g = TimeGrid()
        times = g.times()
        assert times[0] == 1.0 and times[-1] == 1e-3
        assert len(times) == 1001
        assert np.all(np.diff(times) < 0)

    def test_quadratic_concentrates_at_end(self):
        g = TimeGrid(steps=100, spacing="quadratic")
        times = g.times()
        assert times[0] == pytest.approx(1.0)
        assert times[-1] == pytest.approx(1e-3)
        gaps = -np.diff(times)
        assert gaps[-1] < gaps[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t_start=0.5, t_end=0.5)
        with pytest.raises(ValueError):
            TimeGrid(t_end=0.0)
        with pytest.raises(ValueError):
            TimeGrid(steps=0)
        with pytest.raises(ValueError):
            TimeGrid(spacing="cubic")

    @pytest.mark.parametrize("t_start", [math.inf, math.nan])
    def test_t_start_must_be_finite(self, t_start):
        with pytest.raises(ValueError, match="finite t_start"):
            TimeGrid(t_start=t_start)


class TestSamplePrior:
    def test_moments(self):
        params = critically_damped_params(2, l_inv=1.0)
        draws = np.stack([sample_prior(params, 1, [9, i]) for i in range(100_000)])
        assert np.abs(draws.mean(axis=0)).max() <= 4.0 / math.sqrt(100_000)
        assert np.abs(draws.var(axis=0) - 1.0).max() <= 0.03

    def test_determinism(self):
        params = critically_damped_params(3)
        a = sample_prior(params, 2, 42)
        b = sample_prior(params, 2, 42)
        assert type(a) is np.ndarray and a.shape == (6,)
        assert np.array_equal(a, b)

    def test_l_inv_scaling(self):
        params = critically_damped_params(2, l_inv=4.0)
        draws = np.stack([sample_prior(params, 1, [3, i]) for i in range(20_000)])
        assert np.abs(draws.var(axis=0) - 4.0).max() <= 0.2


class TestPfOdeGenerate:
    def test_zero_score_matches_homogeneous_flow(self):
        params = critically_damped_params(2)
        grid = TimeGrid(steps=1000)
        end = flow_state(params, grid, 5)
        u_start = sample_prior(params, 1, 5)
        e = expm_at(params, grid.t_end - grid.t_start)
        want = e @ u_start
        err = np.linalg.norm(end - want) / np.linalg.norm(want)
        assert err <= 1e-5

    def test_singleton_memorization(self):
        params = critically_damped_params(2)
        pol = FixedPerSample(seed=0)
        ds = Dataset(np.array([[1.5]]))
        s0 = initial_covariance(params, pol)
        fn = empirical_score_fn(ds, params, s0, pol)
        ends, ok, _ = pf_ode_endpoints(params, fn, TimeGrid(), rng_seed=8, h=1, runs=1)
        assert ok.all()
        assert abs(ends[0, 0] - 1.5) <= 1e-2

    def test_determinism(self):
        params = critically_damped_params(2)
        grid = TimeGrid(steps=50)
        a = flow_state(params, grid, 3)
        b = flow_state(params, grid, 3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("slope", [-2.0], ids=["heun--2.0"])
    def test_integrator_order(self, slope):
        params = critically_damped_params(2)
        u_ref = None
        errors = []
        step_counts = [250, 500, 1000, 2000]
        for steps in step_counts:
            grid = TimeGrid(steps=steps)
            end = flow_state(params, grid, 6)
            if u_ref is None:
                start = sample_prior(params, 1, 6)
                e = expm_at(params, grid.t_end - grid.t_start)
                u_ref = e @ start
            errors.append(np.linalg.norm(end - u_ref))
        fit = np.polyfit(np.log(step_counts), np.log(errors), 1)[0]
        assert abs(fit - slope) <= 0.3


class TestOuSamplers:
    def test_ou_pf_zero_score_homogeneous(self):
        grid = TimeGrid(steps=1000)
        xi = 1.3
        params = HoldParams(order=1, gammas=(), xi=xi, l_inv=1.0)
        ends, ok, _ = pf_ode_endpoints(
            params, zero_score(1), grid, rng_seed=44, h=1, runs=1
        )
        assert ok.all()
        x_start = sample_prior(params, 1, [44, 0])
        want = math.exp(-xi * (grid.t_end - grid.t_start)) * x_start
        assert np.abs(ends[0] - want).max() <= 1e-4 * np.abs(want).max()

    def test_singleton_error_decreases_with_steps(self):
        ds = Dataset(np.array([[1.0]]))
        params = HoldParams(order=1, gammas=(), xi=2.0, l_inv=1.0)

        def fn(x, t):
            return ou_score(np.asarray(x), ds, 2.0, 1.0, t)

        errs = []
        for steps in (1, 1000):
            ends, ok, _ = pf_ode_endpoints(
                params, fn, TimeGrid(steps=steps), rng_seed=2, h=1, runs=1
            )
            assert ok.all()
            errs.append(abs(ends[0, 0] - 1.0))
        assert errs[1] < errs[0]


class TestBatchEndpoints:
    def test_matches_single_runs(self):
        params = critically_damped_params(2)
        pol = FixedPerSample(seed=1)
        ds = Dataset(np.array([[2.0], [-2.0]]))
        s0 = initial_covariance(params, pol)
        fn = empirical_score_fn(ds, params, s0, pol)
        grid = TimeGrid(steps=200)
        batch, ok, failures = pf_ode_endpoints(
            params, fn, grid, rng_seed=9, h=1, runs=4
        )
        assert ok.all() and not failures
        for i in range(4):
            single = heun_single_run(params, fn, grid, [9, i], h=1)
            assert np.abs(batch[i] - single[:1]).max() <= 1e-9

    @pytest.mark.parametrize("per_step", [2], ids=["heun-2"])
    def test_score_calls_per_step(self, per_step):
        params = critically_damped_params(3)
        pol = FixedPerSample(seed=4)
        ds = Dataset(np.array([[2.0, 0.0], [-2.0, 1.0], [0.0, -2.0]]))
        base = empirical_score_fn(ds, params, initial_covariance(params, pol), pol)
        calls = []

        def fn(u, t):
            calls.append(t)
            return base(u, t)

        pf_ode_endpoints(params, fn, TimeGrid(steps=30), rng_seed=6, h=2, runs=3)
        assert len(calls) == 30 * per_step

    def test_heun_is_the_only_scheme(self):
        # No scheme to choose: a method keyword is an unknown argument.
        with pytest.raises(TypeError):
            pf_ode_endpoints(
                critically_damped_params(2), zero_score(1), TimeGrid(steps=10),
                rng_seed=1, h=1, runs=2, method="heun",
            )
        assert "method" not in inspect.signature(sampler._integrate).parameters

    def test_failures_reported_and_frozen(self):
        params = critically_damped_params(2)

        def explode_late(u, t):
            u = np.asarray(u)
            out = np.zeros(u.shape[:-1] + (1,))
            if t < 0.5:
                out[..., :] = 1e9
            return out

        batch, ok, failures = pf_ode_endpoints(
            params, explode_late, TimeGrid(steps=100), rng_seed=3, h=1, runs=6
        )
        assert not ok.any()
        assert len(failures) == 6
        assert np.all(np.isfinite(batch))

    @pytest.mark.parametrize("per_step", [2], ids=["heun-2"])
    def test_failed_runs_stay_frozen(self, per_step):
        # A score that blows up only on 0.5 < t < 0.52: a run that fails there
        # must not resume once the forcing is back within the guard.
        params = critically_damped_params(2)
        starts = []

        def spike(u, t):
            starts.append(np.array(u, copy=True))
            out = np.zeros(np.shape(u)[:-1] + (1,))
            if 0.5 < t < 0.52:
                out[...] = 1e9
            return out

        batch, ok, failures = pf_ode_endpoints(
            params, spike, TimeGrid(), rng_seed=3, h=1, runs=4
        )
        assert not ok.any() and len(failures) == 4
        for run, step in failures:
            # The first score call of each step sees the step's start state.
            assert np.array_equal(batch[run], starts[per_step * step][run, :1])

    def test_memorization_weak_ordering(self):
        # Desk-scale endpoint property: memorized fraction is non-increasing
        # in the order (ties allowed; with the exact score all orders
        # collapse onto the training points).
        from holdlab import fmem

        rng = np.random.default_rng(123)
        while True:
            pts = rng.standard_normal((8, 2)) * 6.0
            d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
            np.fill_diagonal(d, np.inf)
            if d.min() >= 6.0:
                break
        fractions = []
        for order in (1, 2, 3):
            if order == 1:
                params = HoldParams(order=1, gammas=(), xi=1.0, l_inv=1.0)
            else:
                params = critically_damped_params(order)
            pol = FixedPerSample(seed=55)
            ds = Dataset(pts)
            s0 = initial_covariance(params, pol)
            fn = empirical_score_fn(ds, params, s0, pol)
            ends, ok, _ = pf_ode_endpoints(
                params, fn, TimeGrid(), rng_seed=[55, order], h=2, runs=512
            )
            fractions.append(fmem(ends[ok], pts).fraction)
        assert fractions[0] >= fractions[1] >= fractions[2]
