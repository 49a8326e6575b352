"""Reverse-sampler tests: grids, priors, the batched integrator, failures."""

import inspect
import math

import numpy as np
import pytest

from holdlab import (
    Dataset,
    FixedPerSample,
    HoldParams,
    Marginalized,
    TimeGrid,
    build_forward_matrix,
    critically_damped_params,
    empirical_score_fn,
    initial_covariance,
    mc_loss,
    pf_ode_endpoints,
    sample_prior,
)
from holdlab import cli, sampler
from holdlab.core import _order_params, expm_at, kron_apply
from holdlab.datasets import GaussianMixtureSpec, training_points
from holdlab.forward import schedule


def zero_score(h):
    def fn(u, t):
        u = np.asarray(u)
        return np.zeros(u.shape[:-1] + (h,))

    return fn


def flow_state(params, grid, rng_seed):
    """Full lifted endpoint of one zero-score flow run (drift F u) started
    from the prior draw of ``rng_seed``, integrated as one (n, 1) column."""
    fmat = build_forward_matrix(params).entries
    start = sample_prior(params, 1, rng_seed)[:, None]
    state, ok, failures = sampler._integrate(
        lambda u, t: fmat @ u, grid.times(), start
    )
    assert ok.all() and not failures
    return state[:, 0]


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


def rowmajor_endpoints(params, score_fn, grid, rng_seed, h, runs):
    """Reference: the row-major Heun that the column layout replaced.

    The batch is a (runs, n*h) array, F is applied per run by ``kron_apply``,
    and the freeze runs on every step.
    """
    fmat = build_forward_matrix(params).entries
    gain = params.xi * params.l_inv

    def drift(u, t):
        out = kron_apply(fmat, u, h)
        out[..., -h:] -= gain * np.asarray(score_fn(u, t), dtype=float)
        return out

    chain = list(rng_seed) if isinstance(rng_seed, (list, tuple)) else [rng_seed]
    state = np.stack([sample_prior(params, h, chain + [i]) for i in range(runs)])
    ok = np.ones(runs, dtype=bool)
    failures = []
    times = grid.times()
    for k in range(len(times) - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        dt = t1 - t0
        f0 = drift(state, t0)
        pred = state + dt * f0
        nxt = state + 0.5 * dt * (f0 + drift(pred, t1))
        bad = ~(np.abs(nxt) <= sampler.DIVERGENCE_GUARD).all(axis=1)
        failures.extend((int(i), k) for i in np.flatnonzero(bad & ok))
        ok &= ~bad
        state = np.where(ok[:, None], nxt, state)
    return state[:, :h], ok, failures


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

    def test_rejects_a_missing_seed(self):
        # None would draw OS entropy: two draws would differ.
        with pytest.raises(ValueError, match="rng_seed"):
            sample_prior(critically_damped_params(2), 1, None)

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

    def test_rejects_a_missing_seed(self):
        params = critically_damped_params(2)
        with pytest.raises(ValueError, match="rng_seed"):
            pf_ode_endpoints(params, lambda u, t: np.zeros((len(u), 1)), TimeGrid(steps=2),
                             rng_seed=None, h=1, runs=2)

    def test_determinism(self):
        params = critically_damped_params(2)
        grid = TimeGrid(steps=50)
        a = flow_state(params, grid, 3)
        b = flow_state(params, grid, 3)
        assert np.array_equal(a, b)

    # Entries below 2**32 seed run i from row i of one uint32 array; a larger
    # entry sends every run through sample_prior.
    @pytest.mark.parametrize("runs", [1, 2, 513])
    @pytest.mark.parametrize(
        "chain, per_run",
        [([0], False), ([2**32 - 1, 5], False), ([2**32], True), ([2**70, 3], True),
         ([np.uint64(7)], False)],
        ids=["0", "2^32-1,5", "2^32", "2^70,3", "uint64-7"],
    )
    def test_both_seed_routes_match_per_run_draws(self, monkeypatch, chain, per_run, runs):
        params, fn, grid = TestColumnLayout.setup_case(2, FixedPerSample(seed=2), "quadratic", 2)
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_prior(*args)

        monkeypatch.setattr(sampler, "sample_prior", counted)
        got = pf_ode_endpoints(params, fn, grid, rng_seed=chain, h=2, runs=runs)
        want = rowmajor_endpoints(params, fn, grid, chain, 2, runs)
        assert len(calls) == (runs if per_run else 0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    def test_int_seed_is_its_one_element_list(self):
        # An int seed s and [s] seed the same stream (s, i) for run i.
        params, fn, grid = TestColumnLayout.setup_case(3, FixedPerSample(seed=2), "quadratic", 2)
        a = pf_ode_endpoints(params, fn, grid, rng_seed=5, h=2, runs=6)
        b = pf_ode_endpoints(params, fn, grid, rng_seed=[5], h=2, runs=6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]

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


@pytest.mark.parametrize(
    "make",
    [
        np.random.default_rng,
        np.random.PCG64,
        lambda s: [s + 0.5],
        lambda s: [-s],
        lambda s: [s, np.int64(-s)],
        lambda s: [True],
        lambda s: True,
    ],
    ids=["Generator", "BitGenerator", "float-entry", "negative-entry",
         "negative-numpy-entry", "bool-entry", "bool"],
)
@pytest.mark.parametrize("entry", ["mc_loss", "sample_prior", "pf_ode_endpoints"])
def test_seeded_entry_points_refuse_a_generator(entry, make):
    # The draw would advance the caller's generator: two calls would differ.
    # An entry that is not a non-negative int is refused by the same rule:
    # numpy would raise its own error for a float or a negative entry, and
    # would seed the stream [1] from [True].
    params, pol = critically_damped_params(2), Marginalized()
    s0 = initial_covariance(params, pol)
    ds = Dataset(np.array([[1.0], [-1.0]]))
    calls = {
        "mc_loss": lambda seed: mc_loss(zero_score(1), ds, params, s0, pol, 4, seed),
        "sample_prior": lambda seed: sample_prior(params, 1, seed),
        "pf_ode_endpoints": lambda seed: pf_ode_endpoints(
            params, zero_score(1), TimeGrid(steps=2), rng_seed=seed, h=1, runs=2),
    }
    with pytest.raises(ValueError, match="rng_seed"):
        calls[entry](make(3))


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

    def test_one_run_first_diverges_on_the_last_step(self):
        # No run has failed before the last step, so the whole-batch maximum
        # decides alone until then; on the last step it fails and the
        # per-column check must freeze run 1 alone at its last good state.
        params = critically_damped_params(2)
        grid = TimeGrid(steps=100)
        starts = []

        def spike_last(u, t):
            starts.append(np.array(u, copy=True))
            out = np.zeros(np.shape(u)[:-1] + (2,))
            if t == grid.t_end:
                out[1] = 1e12
            return out

        got = pf_ode_endpoints(params, spike_last, grid, rng_seed=3, h=2, runs=3)
        want = rowmajor_endpoints(params, spike_last, grid, 3, 2, 3)
        assert got[2] == want[2] == [(1, grid.steps - 1)]
        assert np.array_equal(got[1], [True, False, True])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(got[0][1], starts[-2][1, :2])

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


class TestColumnLayout:
    """``pf_ode_endpoints`` keeps its batch as (n*h, runs) columns; it must
    return what the row-major Heun it replaced returns, bit for bit.

    F as one GEMM rounds like the per-run GEMMs of ``kron_apply`` when
    h >= 2.  At h = 1 ``kron_apply`` goes through BLAS's matrix-vector
    routine, which rounds differently; there the endpoints agree to 1e-13
    relative (measured at most 4.3e-15 over 250 steps).
    """

    @staticmethod
    def setup_case(order, policy, spacing, dim):
        params = _order_params(order, 1.0, 1.0, 1.0)
        spec = GaussianMixtureSpec(k=8 if dim > 1 else 3, spread=6.0, dim=dim)
        ds = Dataset(training_points(spec, 8, 0))
        s0 = initial_covariance(params, policy)
        grid = TimeGrid(t_end=1e-3, steps=60, spacing=spacing)
        score_fn = empirical_score_fn(
            ds, params, s0, policy, schedule=schedule(params, s0, grid.times())
        )
        return params, score_fn, grid

    @pytest.mark.parametrize("spacing", ["uniform", "quadratic"])
    @pytest.mark.parametrize(
        "policy", [FixedPerSample(seed=2), Marginalized()], ids=["fixed", "marg"]
    )
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_rowmajor_heun(self, order, policy, spacing):
        params, base, grid = self.setup_case(order, policy, spacing, dim=2)
        batches = []

        def fn(u, t):
            batches.append(np.shape(u))
            return base(u, t)

        runs, seed = 24, [3, order]
        got = pf_ode_endpoints(params, fn, grid, rng_seed=seed, h=2, runs=runs)
        want = rowmajor_endpoints(params, base, grid, seed, 2, runs)
        assert set(batches) == {(runs, 2 * order)}
        assert got[0].shape == (runs, 2) and got[0].flags.c_contiguous
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_h1_agrees_to_rounding(self, order):
        params, fn, grid = self.setup_case(order, FixedPerSample(seed=2), "uniform", 1)
        got = pf_ode_endpoints(params, fn, grid, rng_seed=[4], h=1, runs=24)
        want = rowmajor_endpoints(params, fn, grid, [4], 1, 24)
        assert np.abs(got[0] - want[0]).max() <= 1e-13 * np.abs(want[0]).max()
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]

    def test_failed_run_stays_frozen_when_later_steps_are_good(self):
        # Run 0 gets a NaN score on one step only: its later steps from the
        # frozen state are finite, and it must stay frozen all the same.
        params = critically_damped_params(2)

        def nan_once(u, t):
            out = np.zeros(np.shape(u)[:-1] + (2,))
            if 0.5 < t < 0.5015:
                out[0] = np.nan
            return out

        grid = TimeGrid(steps=1000)
        got = pf_ode_endpoints(params, nan_once, grid, rng_seed=3, h=2, runs=3)
        want = rowmajor_endpoints(params, nan_once, grid, 3, 2, 3)
        assert got[2] == want[2] and [run for run, _ in got[2]] == [0]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_diverging_generate_matches_rowmajor(self, tmp_path, monkeypatch):
        # From t_start = 10 in 40 quadratic steps, half of the runs diverge,
        # so the freeze and the failure list are compared too.
        real, cells = cli.pf_ode_endpoints, []

        def both(params, score_fn, grid, *, h, runs, rng_seed):
            got = real(params, score_fn, grid, h=h, runs=runs, rng_seed=rng_seed)
            want = rowmajor_endpoints(params, score_fn, grid, rng_seed, h, runs)
            cells.append((got, want))
            return got

        monkeypatch.setattr(cli, "pf_ode_endpoints", both)
        argv = ["generate", "--orders", "2,3", "--spacing", "quadratic"]
        argv += ["--t-start", "10", "--steps", "40", "--runs", "128"]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 3
        assert len(cells) == 2
        assert sum(len(got[2]) for got, _ in cells) == 128
        for got, want in cells:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2] == want[2]
