"""Filter-analysis tests: kernels, transfer functions, convolution identity."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from holdlab import (
    HoldFilter,
    HoldParams,
    LiftedState,
    PoleError,
    build_forward_matrix,
    convolution_reconstruct,
    critically_damped_params,
    forced_ode_positions,
    frequency_magnitude,
    impulse_response,
    natural_response,
    pf_ode_endpoints,
    sample_prior,
    transfer_function,
    TimeGrid,
)
from holdlab.core import _expm_rows, expm_at


def hold(n):
    """Filter of the critically damped order-n chain (l_inv = 1)."""
    return HoldFilter.from_params(critically_damped_params(n))


def ou(xi):
    """Filter of the first-order process with friction xi (l_inv = 1)."""
    return HoldFilter.from_params(HoldParams(order=1, gammas=(), xi=xi, l_inv=1.0))


class TestImpulseResponse:
    def test_hold2_at_one(self):
        spec = hold(2)
        assert abs(impulse_response(spec, 1.0) - (-2.0 * math.exp(-1.0))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_at_origin(self, n):
        assert impulse_response(hold(n), 0.0) == 0.0

    def test_ou_at_origin(self):
        assert impulse_response(ou(1.0), 0.0) == -1.0

    def test_causal(self):
        for spec in (hold(3), ou(2.0)):
            assert impulse_response(spec, -0.5) == 0.0
            out = impulse_response(spec, np.array([-1.0, 0.5]))
            assert out[0] == 0.0 and out[1] != 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_chain_response(self, n):
        # The kernel is -xi * l_inv times the (1, n) entry of exp(Ft).
        if n == 1:
            params = HoldParams(order=1, gammas=(), xi=2.0, l_inv=1.0)
        else:
            params = critically_damped_params(n)
        spec = HoldFilter.from_params(params)
        for t in (0.3, 0.9, 2.2):
            want = -params.xi * params.l_inv * expm_at(params, t)[0, n - 1]
            assert abs(impulse_response(spec, t) - want) <= 1e-12 * max(1, abs(want))


class TestTransferFunction:
    def test_hold2_at_zero(self):
        assert transfer_function(hold(2), 0.0) == pytest.approx(-2.0)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            transfer_function(hold(2), -1.0)
        with pytest.raises(PoleError):
            transfer_function(ou(1.5), -1.5)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_laplace_quadrature(self, n):
        # Numerical Laplace transform of the kernel at s = 1.
        spec = hold(n)
        got, _ = quad(
            lambda t: impulse_response(spec, t) * math.exp(-t), 0.0, np.inf
        )
        want = transfer_function(spec, 1.0).real
        assert abs(got - want) <= 1e-6

    def test_laplace_quadrature_ou(self):
        spec = ou(2.0)
        got, _ = quad(
            lambda t: impulse_response(spec, t) * math.exp(-t), 0.0, np.inf
        )
        assert abs(got - transfer_function(spec, 1.0).real) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_denominator_is_char_poly(self, n):
        params = critically_damped_params(n)
        spec = HoldFilter.from_params(params)
        f = build_forward_matrix(params)
        rng = np.random.default_rng(n)
        for _ in range(5):
            s = complex(rng.uniform(-0.5, 2), rng.uniform(-2, 2))
            denom = -spec.gamma_bar * spec.xi * spec.l_inv / transfer_function(spec, s)
            want = complex(np.linalg.det(s * np.eye(n, dtype=complex) - f.entries))
            assert abs(denom - want) <= 1e-10 * max(1.0, abs(want))


class TestFrequencyMagnitude:
    def test_hold2_dc(self):
        assert frequency_magnitude(hold(2), 0.0) == pytest.approx(2.0)

    def test_ou_dc(self):
        assert frequency_magnitude(ou(1.0), 0.0) == pytest.approx(1.0)

    def test_monotone_nonincreasing(self):
        omegas = np.linspace(0.0, 50.0, 400)
        for spec in (hold(2), hold(4), ou(1.0)):
            mags = frequency_magnitude(spec, omegas)
            assert np.all(np.diff(mags) <= 1e-15)

    def test_matches_transfer_function(self):
        omegas = np.logspace(-2, 3, 40)
        for spec in (hold(2), hold(3), ou(1.0)):
            for w in omegas:
                want = abs(transfer_function(spec, 1j * w))
                assert abs(frequency_magnitude(spec, w) - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_high_frequency_slope(self, n):
        omegas = np.logspace(2, 4, 50)
        mags = frequency_magnitude(hold(n), omegas)
        slope = np.polyfit(np.log(omegas), np.log(mags), 1)[0]
        assert abs(slope - (-n)) <= 0.05

    def test_ou_slope(self):
        omegas = np.logspace(2, 4, 50)
        mags = frequency_magnitude(ou(1.0), omegas)
        slope = np.polyfit(np.log(omegas), np.log(mags), 1)[0]
        assert abs(slope - (-1.0)) <= 0.05

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_low_frequency_dominance_over_ou(self, n):
        omegas = np.linspace(0.0, 1.0, 50)
        hold_mags = frequency_magnitude(hold(n), omegas)
        ou_mags = frequency_magnitude(ou(1.0), omegas)
        assert np.all(hold_mags > ou_mags)

    def test_detuned_friction_leaks_high_frequencies(self):
        # Raising xi off the critical value splits the double pole into two
        # real poles, one slower than the critical eigenvalue, and the
        # resulting magnitude exceeds the critically damped one at high
        # frequency.
        crit = critically_damped_params(2)
        xi_off = 1.1 * crit.xi
        roots = np.roots([1.0, xi_off, crit.gammas[0] ** 2])
        assert max(roots.real) > -1.0
        omega = 1e3
        mag_off = (
            crit.gamma_bar
            * xi_off
            / (abs(1j * omega - roots[0]) * abs(1j * omega - roots[1]))
        )
        mag_crit = frequency_magnitude(hold(2), omega)
        assert mag_off > mag_crit


class TestNaturalResponse:
    def test_initial_value(self):
        params = critically_damped_params(3)
        u0 = LiftedState(3, 2, [1.0, -2.0, 0.1, 0.2, 0.0, 0.3])
        assert np.allclose(
            natural_response(params, u0, 0.0), [1.0, -2.0], atol=1e-14, rtol=0
        )

    def test_zero_state(self):
        params = critically_damped_params(2)
        u0 = LiftedState(2, 1, np.zeros(2))
        for t in (0.0, 0.5, 3.0):
            assert natural_response(params, u0, t)[0] == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vector_times_equal_single_times(self, n):
        params = critically_damped_params(n)
        u0 = LiftedState(n, 2, np.random.default_rng(n).standard_normal(2 * n))
        times = np.linspace(0.0, 5.0, 101)
        got = natural_response(params, u0, times)
        want = np.stack([natural_response(params, u0, float(t)) for t in times])
        assert got.shape == (101, 2)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_builds_only_the_rows_it_reads(self, n):
        # natural_response builds row 0 of exp(Ft) alone, by the arithmetic
        # of expm_at, so rows and positions keep the bits of the full stack.
        ou_params = HoldParams(order=1, gammas=(), xi=1.5, l_inv=1.0)
        params = ou_params if n == 1 else critically_damped_params(n)
        u0 = LiftedState(n, 3, np.random.default_rng(n).standard_normal(3 * n))
        data = u0.data.reshape(n, 3)
        for t in (np.linspace(0.0, 7.0, 301), np.array([]), 0.0, 0.37, 40.0):
            full = expm_at(params, t)
            assert np.array_equal(_expm_rows(params, t, slice(1)), full[..., :1, :])
            mid = slice(n // 2, n)
            assert np.array_equal(_expm_rows(params, t, mid), full[..., mid, :])
            old = (full[..., :1, :] @ data)[..., 0, :]
            assert natural_response(params, u0, t).tobytes() == old.tobytes()

    def test_matches_zero_score_flow(self):
        params = critically_damped_params(2)
        grid = TimeGrid(t_start=1.0, t_end=0.2, steps=2000)
        ends, ok, _ = pf_ode_endpoints(
            params, lambda u, t: np.zeros(1), grid, rng_seed=12, h=1, runs=1
        )
        assert ok.all()
        u_start = LiftedState(2, 1, sample_prior(params, 1, [12, 0]))
        want = natural_response(params, u_start, grid.t_end - grid.t_start)
        assert abs(ends[0, 0] - want[0]) <= 1e-5 * max(1.0, abs(want[0]))


def uniform_grid(t_max=5.0, steps=10_000):
    return np.linspace(0.0, t_max, steps + 1)


class TestConvolutionReconstruct:
    def test_zero_forcing_is_natural(self):
        params = critically_damped_params(2)
        spec = HoldFilter.from_params(params)
        u0 = LiftedState(2, 1, np.array([1.0, 0.5]))
        times = uniform_grid(steps=500)
        out = convolution_reconstruct(spec, params, u0, np.zeros_like(times), times)
        want = np.stack([natural_response(params, u0, float(t)) for t in times])
        assert np.array_equal(out, want)

    def test_hold2_sine_forcing_vs_ode(self):
        params = critically_damped_params(2)
        spec = HoldFilter.from_params(params)
        u0 = LiftedState(2, 1, np.array([1.0, 0.5]))
        times = uniform_grid()
        forcing = np.sin(3.0 * times)
        recon = convolution_reconstruct(spec, params, u0, forcing, times)
        oracle = forced_ode_positions(params, u0, forcing, times)
        err = np.linalg.norm(recon - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_forcings_vs_ode(self, n):
        params = critically_damped_params(n)
        spec = HoldFilter.from_params(params)
        u0 = LiftedState(n, 1, np.array([1.0] + [0.4] * (n - 1)))
        times = uniform_grid()
        rng = np.random.default_rng(60 + n)
        for _ in range(5):
            w = rng.uniform(0.5, 6.0)
            amp = rng.uniform(0.5, 2.0)
            kind = rng.integers(3)
            if kind == 0:
                forcing = amp * np.sin(w * times)
            elif kind == 1:
                forcing = amp * np.cos(w * times) * np.exp(-times)
            else:
                forcing = amp * np.exp(-w * times / 4.0)
            recon = convolution_reconstruct(spec, params, u0, forcing, times)
            oracle = forced_ode_positions(params, u0, forcing, times)
            err = np.linalg.norm(recon - oracle) / np.linalg.norm(oracle)
            assert err <= 1e-3

    def test_ou_exponential_forcing_vs_quadrature(self):
        xi = 2.0
        params = HoldParams(order=1, gammas=(), xi=xi, l_inv=1.0)
        spec = HoldFilter.from_params(params)
        u0 = LiftedState(1, 1, np.array([1.0]))
        times = uniform_grid()
        forcing = np.exp(-times)
        recon = convolution_reconstruct(spec, params, u0, forcing, times)
        for idx in (2000, 5000, 10_000):
            t = float(times[idx])
            integral, _ = quad(
                lambda tau: math.exp(-xi * (t - tau)) * math.exp(-tau), 0.0, t
            )
            want = math.exp(-xi * t) * 1.0 - xi * 1.0 * integral
            assert abs(recon[idx, 0] - want) <= 1e-6

    def test_nonuniform_grid_rejected(self):
        params = critically_damped_params(2)
        spec = HoldFilter.from_params(params)
        u0 = LiftedState(2, 1, np.array([1.0, 0.0]))
        times = np.array([0.0, 0.1, 0.3, 0.35])
        with pytest.raises(ValueError):
            convolution_reconstruct(spec, params, u0, np.zeros(4), times)
        with pytest.raises(ValueError, match="uniform"):
            forced_ode_positions(params, u0, np.ones(4), times)

    def test_grid_must_start_at_zero(self):
        params = critically_damped_params(2)
        spec = HoldFilter.from_params(params)
        u0 = LiftedState(2, 1, np.array([1.0, 0.0]))
        times = np.linspace(0.5, 1.5, 11)
        with pytest.raises(ValueError):
            convolution_reconstruct(spec, params, u0, np.zeros(11), times)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_forcing_rejected(self, bad):
        # One NaN would reach every output time through the FFT; the grid
        # check names the column instead.
        params = critically_damped_params(2)
        spec = HoldFilter.from_params(params)
        u0 = LiftedState(2, 3, np.ones(6))
        times = uniform_grid(t_max=1.0, steps=10)
        forcing = np.ones((11, 3))
        forcing[7, 1] = bad
        with pytest.raises(ValueError, match="column 1 is not finite at t = 0.7"):
            convolution_reconstruct(spec, params, u0, forcing, times)
        with pytest.raises(ValueError, match="column 1 is not finite at t = 0.7"):
            forced_ode_positions(params, u0, forcing, times)


def direct_reconstruct(spec, params, u0, forcing, times):
    """The direct O(T^2) trapezoid the FFT replaced: one ``np.convolve`` per
    column, with the same end corrections and natural response."""
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim == 1:
        forcing = forcing[:, None]
    step = float(times[1] - times[0])
    kernel = impulse_response(spec, times)
    nt = times.shape[0]
    conv = np.empty((nt, forcing.shape[1]))
    for j in range(forcing.shape[1]):
        full = np.convolve(kernel, forcing[:, j])[:nt]
        full -= 0.5 * kernel * forcing[0, j]
        full -= 0.5 * kernel[0] * forcing[:, j]
        conv[:, j] = step * full
    return conv + natural_response(params, u0, times)


def per_stage_rk4(params, u0, forcing, times):
    """The per-stage RK4 loop the affine oracle replaced: four right-hand
    sides per step, a per-step dt and the forcing interpolated at half steps."""
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim == 1:
        forcing = forcing[:, None]
    n, h = params.order, u0.block_dim
    fmat = build_forward_matrix(params).entries
    gain = params.xi * params.l_inv

    def rhs(state, force_val):
        out = (fmat @ state.reshape(n, h)).reshape(n * h)
        out[-h:] -= gain * force_val
        return out

    y = u0.data.copy()
    positions = np.empty((times.shape[0], h))
    positions[0] = y[:h]
    for k in range(times.shape[0] - 1):
        dt = float(times[k + 1] - times[k])
        f0, f1 = forcing[k], forcing[k + 1]
        fm = 0.5 * (f0 + f1)
        k1 = rhs(y, f0)
        k2 = rhs(y + 0.5 * dt * k1, fm)
        k3 = rhs(y + 0.5 * dt * k2, fm)
        k4 = rhs(y + dt * k3, f1)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        positions[k + 1] = y[:h]
    return positions


def order_params(n):
    if n == 1:
        return HoldParams(order=1, gammas=(), xi=2.0, l_inv=1.0)
    return critically_damped_params(n)


def sine_forcings(times, h, seed):
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.5, 6.0, h)
    return rng.uniform(0.5, 2.0, h) * np.sin(np.outer(times, freqs))


class TestFftConvolution:
    @pytest.mark.parametrize("h", [1, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("nt", [2, 3, 17, 1000, 1001, 4097])
    def test_matches_direct_trapezoid(self, nt, n, h):
        # Measured worst case over these 48 cases: 1.03e-15 of the largest
        # output (about 5 ulp); the bound leaves a factor of 3.
        params = order_params(n)
        spec = HoldFilter.from_params(params)
        times = uniform_grid(steps=nt - 1)
        rng = np.random.default_rng([80, n, h, nt])
        u0 = LiftedState(n, h, rng.standard_normal(n * h))
        forcing = sine_forcings(times, h, [81, n, h, nt])
        got = convolution_reconstruct(spec, params, u0, forcing, times)
        want = direct_reconstruct(spec, params, u0, forcing, times)
        assert got.shape == want.shape == (nt, h)
        assert np.abs(got - want).max() <= 3e-15 * np.abs(want).max()


class TestAffineOracle:
    # T = steps + 1 = 2, 3 and 5 points take one, two and three scan passes;
    # T = 10 001 is not a power of two and spans three scan blocks.
    @pytest.mark.parametrize("steps", [1, 2, 4, 1000, 10_000])
    @pytest.mark.parametrize("h", [1, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_per_stage_loop(self, n, h, steps):
        params = order_params(n)
        times = uniform_grid(steps=steps)
        rng = np.random.default_rng([70, n, h, steps])
        u0 = LiftedState(n, h, rng.standard_normal(n * h))
        forcing = sine_forcings(times, h, [71, n, h])
        got = forced_ode_positions(params, u0, forcing, times)
        want = per_stage_rk4(params, u0, forcing, times)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("t_max", [0.0, -1.0])
    def test_nonpositive_step_rejected(self, t_max):
        params = critically_damped_params(2)
        spec = HoldFilter.from_params(params)
        u0 = LiftedState(2, 1, np.array([1.0, 0.0]))
        times = np.linspace(0.0, t_max, 11)
        with pytest.raises(ValueError, match="step"):
            forced_ode_positions(params, u0, np.ones(11), times)
        with pytest.raises(ValueError, match="step"):
            convolution_reconstruct(spec, params, u0, np.ones(11), times)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_columns_match_single_forcings(self, n):
        # Stacking forcings as the columns of one lifted state (the
        # theorem1-check layout) changes no bit of the reconstruction.
        params = order_params(n)
        spec = HoldFilter.from_params(params)
        times = uniform_grid(steps=2000)
        forcing = sine_forcings(times, 4, [72, n])
        u0 = np.array([1.0] + [0.5] * (n - 1))
        stacked = convolution_reconstruct(
            spec, params, LiftedState(n, 4, np.repeat(u0, 4)), forcing, times
        )
        for j in range(4):
            single = convolution_reconstruct(
                spec, params, LiftedState(n, 1, u0), forcing[:, j], times
            )
            assert np.array_equal(stacked[:, j], single[:, 0])
