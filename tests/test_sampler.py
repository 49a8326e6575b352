"""Reverse-sampler tests: grids, priors, integrators, divergence handling."""

import math

import numpy as np
import pytest

from holdlab import (
    Dataset,
    DivergenceError,
    FixedPerSample,
    HoldParams,
    TimeGrid,
    build_forward_matrix,
    critically_damped_params,
    empirical_score_fn,
    initial_covariance,
    matrix_exponential,
    ou_pf_ode_generate,
    ou_reverse_sde_generate,
    pf_ode_endpoints,
    pf_ode_generate,
    sample_prior,
)


def zero_score(h):
    def fn(u, t):
        u = np.asarray(u)
        return np.zeros(u.shape[:-1] + (h,))

    return fn


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


class TestSamplePrior:
    def test_moments(self):
        params = critically_damped_params(2, l_inv=1.0)
        draws = np.stack(
            [sample_prior(params, 1, [9, i]).data for i in range(100_000)]
        )
        assert np.abs(draws.mean(axis=0)).max() <= 4.0 / math.sqrt(100_000)
        assert np.abs(draws.var(axis=0) - 1.0).max() <= 0.03

    def test_determinism(self):
        params = critically_damped_params(3)
        a = sample_prior(params, 2, 42)
        b = sample_prior(params, 2, 42)
        assert np.array_equal(a.data, b.data)

    def test_l_inv_scaling(self):
        params = critically_damped_params(2, l_inv=4.0)
        draws = np.stack([sample_prior(params, 1, [3, i]).data for i in range(20_000)])
        assert np.abs(draws.var(axis=0) - 4.0).max() <= 0.2


class TestPfOdeGenerate:
    def test_zero_score_matches_homogeneous_flow(self):
        params = critically_damped_params(2)
        grid = TimeGrid(steps=1000)
        traj = pf_ode_generate(params, zero_score(1), grid, rng_seed=5, h=1)
        u_start = sample_prior(params, 1, 5).data
        e = matrix_exponential(
            build_forward_matrix(params), grid.t_end - grid.t_start
        ).entries
        want = e @ u_start
        err = np.linalg.norm(traj.endpoint.data - want) / np.linalg.norm(want)
        assert err <= 1e-5

    def test_singleton_memorization(self):
        params = critically_damped_params(2)
        pol = FixedPerSample(seed=0)
        ds = Dataset(np.array([[1.5]]))
        s0 = initial_covariance(params, pol)
        fn = empirical_score_fn(ds, params, s0, pol)
        traj = pf_ode_generate(params, fn, TimeGrid(), rng_seed=8, h=1)
        assert abs(traj.endpoint.position[0] - 1.5) <= 1e-2

    def test_determinism(self):
        params = critically_damped_params(2)
        grid = TimeGrid(steps=50)
        a = pf_ode_generate(params, zero_score(1), grid, rng_seed=3, h=1)
        b = pf_ode_generate(params, zero_score(1), grid, rng_seed=3, h=1)
        assert np.array_equal(a.endpoint.data, b.endpoint.data)

    def test_record_keeps_path_and_scores(self):
        params = critically_damped_params(2)
        grid = TimeGrid(steps=20)
        traj = pf_ode_generate(
            params, zero_score(1), grid, rng_seed=3, h=1, record=True
        )
        assert len(traj.times) == 21
        assert len(traj.states) == 21
        assert len(traj.score_evals) == 20
        assert np.all(np.diff(traj.times) < 0)

    @pytest.mark.parametrize("method, per_step", [("heun", 2), ("euler", 1)])
    def test_record_reuses_integrator_scores(self, method, per_step):
        # The recorded scores are the step-start evaluations the integrator
        # made, so recording costs no extra score calls.
        params = critically_damped_params(3)
        pol = FixedPerSample(seed=4)
        ds = Dataset(np.array([[2.0, 0.0], [-2.0, 1.0], [0.0, -2.0]]))
        base = empirical_score_fn(ds, params, initial_covariance(params, pol), pol)
        calls = []

        def fn(u, t):
            calls.append(t)
            return base(u, t)

        grid = TimeGrid(steps=30)
        plain = pf_ode_generate(params, fn, grid, rng_seed=6, h=2, method=method)
        assert len(calls) == 30 * per_step
        calls.clear()
        traj = pf_ode_generate(
            params, fn, grid, rng_seed=6, h=2, record=True, method=method
        )
        assert len(calls) == 30 * per_step
        assert np.array_equal(traj.endpoint.data, plain.endpoint.data)
        recomputed = [
            np.asarray(base(st.data, float(t)), dtype=float)
            for st, t in zip(traj.states[:-1], traj.times[:-1])
        ]
        assert len(traj.score_evals) == 30
        for got, want in zip(traj.score_evals, recomputed):
            assert np.array_equal(got, want)

    def test_divergence_guard(self):
        params = critically_damped_params(2)

        def explode(u, t):
            return np.full(np.shape(u)[:-1] + (1,), 1e9)

        with pytest.raises(DivergenceError) as info:
            pf_ode_generate(params, explode, TimeGrid(steps=10), rng_seed=1, h=1)
        assert info.value.step is not None

    @pytest.mark.parametrize("method,slope", [("heun", -2.0), ("euler", -1.0)])
    def test_integrator_order(self, method, slope):
        params = critically_damped_params(2)
        u_ref = None
        errors = []
        step_counts = [250, 500, 1000, 2000]
        for steps in step_counts:
            grid = TimeGrid(steps=steps)
            traj = pf_ode_generate(
                params, zero_score(1), grid, rng_seed=6, h=1, method=method
            )
            if u_ref is None:
                start = sample_prior(params, 1, 6).data
                e = matrix_exponential(
                    build_forward_matrix(params), grid.t_end - grid.t_start
                ).entries
                u_ref = e @ start
            errors.append(np.linalg.norm(traj.endpoint.data - u_ref))
        fit = np.polyfit(np.log(step_counts), np.log(errors), 1)[0]
        assert abs(fit - slope) <= 0.3


class TestOuSamplers:
    def test_ou_pf_zero_score_homogeneous(self):
        grid = TimeGrid(steps=1000)
        xi = 1.3
        traj = ou_pf_ode_generate(xi, 1.0, zero_score(1), grid, rng_seed=44, h=1)
        x_start = sample_prior(
            HoldParams(order=1, gammas=(), xi=xi, l_inv=1.0), 1, 44
        ).data
        want = math.exp(-xi * (grid.t_end - grid.t_start)) * x_start
        assert np.abs(traj.endpoint.data - want).max() <= 1e-4 * np.abs(want).max()

    def test_sde_stationary_under_prior_score(self):
        xi, l_inv = 2.0, 1.0
        grid = TimeGrid(steps=400)
        prior_score = lambda x, t: -np.asarray(x) / l_inv
        ends = np.concatenate(
            [
                ou_reverse_sde_generate(
                    xi, l_inv, prior_score, grid, rng_seed=[7, i], h=1
                ).endpoint.data
                for i in range(4096)
            ]
        )
        assert abs(ends.var() - l_inv) <= 0.05 * l_inv

    def test_sde_two_point_clusters(self):
        ds = Dataset(np.array([[1.0], [-1.0]]))
        xi, l_inv = 2.0, 1.0

        def fn(x, t):
            from holdlab import ou_score

            return ou_score(np.asarray(x), ds, xi, l_inv, t)

        ends = np.array(
            [
                ou_reverse_sde_generate(
                    xi, l_inv, fn, TimeGrid(), rng_seed=[13, i], h=1
                ).endpoint.data[0]
                for i in range(2048)
            ]
        )
        pos = ends[ends > 0]
        neg = ends[ends < 0]
        assert len(pos) > 100 and len(neg) > 100
        assert abs(pos.mean() - 1.0) <= 0.05
        assert abs(neg.mean() + 1.0) <= 0.05

    def test_sde_determinism(self):
        fn = zero_score(1)
        a = ou_reverse_sde_generate(1.0, 1.0, fn, TimeGrid(steps=30), 5, h=1)
        b = ou_reverse_sde_generate(1.0, 1.0, fn, TimeGrid(steps=30), 5, h=1)
        assert np.array_equal(a.endpoint.data, b.endpoint.data)

    def test_singleton_error_decreases_with_steps(self):
        ds = Dataset(np.array([[1.0]]))

        def fn(x, t):
            from holdlab import ou_score

            return ou_score(np.asarray(x), ds, 2.0, 1.0, t)

        errs = []
        for steps in (1, 1000):
            traj = ou_reverse_sde_generate(
                2.0, 1.0, fn, TimeGrid(steps=steps), rng_seed=2, h=1
            )
            errs.append(abs(traj.endpoint.data[0] - 1.0))
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
            single = pf_ode_generate(params, fn, grid, rng_seed=[9, i], h=1)
            assert np.abs(batch[i] - single.endpoint.position).max() <= 1e-9

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
