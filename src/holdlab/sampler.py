"""Reverse-time generation: probability-flow ODE and the first-order SDE.

Integration runs backward from the stationary prior at t_start down to a
small positive t_end.  The deterministic probability-flow route works for
every order (at order 1 it coincides with the first-order flow); the
stochastic route is implemented for the first-order baseline only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import HoldParams, LiftedState, T_EPS, build_forward_matrix, kron_apply
from .errors import DivergenceError

DIVERGENCE_GUARD = 1e6


@dataclass(frozen=True)
class TimeGrid:
    """Descending integration times from t_start to t_end.

    ``steps`` is the number of integration steps; the grid carries
    ``steps + 1`` points.  Quadratic spacing concentrates points near
    t_end, where the empirical score stiffens.
    """

    t_start: float = 1.0
    t_end: float = T_EPS
    steps: int = 1000
    spacing: str = "uniform"

    def __post_init__(self):
        if not (self.t_start > self.t_end > 0):
            raise ValueError("need t_start > t_end > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.spacing not in ("uniform", "quadratic"):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    def times(self) -> np.ndarray:
        if self.spacing == "uniform":
            return np.linspace(self.t_start, self.t_end, self.steps + 1)
        tau = np.linspace(1.0, 0.0, self.steps + 1)
        return self.t_end + (self.t_start - self.t_end) * tau**2


@dataclass
class Trajectory:
    """Times (descending) with matching states; optionally recorded scores."""

    times: np.ndarray
    states: list[LiftedState]
    score_evals: list[np.ndarray] | None = field(default=None)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")

    @property
    def endpoint(self) -> LiftedState:
        return self.states[-1]


def sample_prior(params: HoldParams, h: int, rng_seed) -> LiftedState:
    """Stationary prior draw u_T ~ N(0, l_inv I_{nh})."""
    n = params.order
    rng = np.random.default_rng(rng_seed)
    data = math.sqrt(params.l_inv) * rng.standard_normal(n * h)
    return LiftedState(n, h, data)


def _check_rows(state: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(state)) or np.max(np.abs(state)) > DIVERGENCE_GUARD:
        raise DivergenceError(
            f"state diverged at step {step} (NaN or norm above "
            f"{DIVERGENCE_GUARD:g})",
            step=step,
        )


def _integrate(drift, times: np.ndarray, y0: np.ndarray, method: str):
    """Backward-time integration over a descending grid.

    ``drift(u, t)`` returns (du/dt, score at (u, t)).  Yields each state
    with the score evaluated there as a step start (None at the endpoint).
    """
    y = y0
    for k in range(len(times) - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        dt = t1 - t0
        f0, s0 = drift(y, t0)
        yield y, s0
        if method == "euler":
            y = y + dt * f0
        elif method == "heun":
            pred = y + dt * f0
            y = y + 0.5 * dt * (f0 + drift(pred, t1)[0])
        else:
            raise ValueError(f"unknown integrator {method!r}")
        _check_rows(y, k)
    yield y, None


def pf_ode_generate(
    params: HoldParams,
    score_fn,
    grid: TimeGrid,
    rng_seed,
    h: int = 1,
    record: bool = False,
    method: str = "heun",
) -> Trajectory:
    """Integrate du = (F u - xi l_inv vec(0, s(u, t))) dt backward in time.

    The diffusion square 1/2 G G^T reduces to xi * l_inv on the last block,
    so the score forcing touches only the final h coordinates.  The initial
    state is a stationary prior draw; with ``record`` the whole path and the
    score evaluations the integrator made at each step start are kept,
    otherwise only the endpoint.
    """
    n = params.order
    fmat = build_forward_matrix(params).entries
    gain = params.xi * params.l_inv

    def drift(u, t):
        out = kron_apply(fmat, u, h)
        s = np.asarray(score_fn(u, t), dtype=float)
        out[..., -h:] -= gain * s
        return out, s

    u0 = sample_prior(params, h, rng_seed).data
    times = grid.times()
    states, evals = [], []
    for y, s in _integrate(drift, times, u0, method):
        if record:
            states.append(LiftedState(n, h, y))
            if s is not None:
                evals.append(s)
    if record:
        return Trajectory(times=times, states=states, score_evals=evals)
    return Trajectory(times=times[-1:], states=[LiftedState(n, h, y)], score_evals=None)


def ou_pf_ode_generate(
    xi: float,
    l_inv: float,
    score_fn,
    grid: TimeGrid,
    rng_seed,
    h: int = 1,
    record: bool = False,
    method: str = "heun",
) -> Trajectory:
    """Deterministic first-order flow dx = (-xi x - xi l_inv s(x, t)) dt."""
    params = HoldParams(order=1, gammas=(), xi=xi, l_inv=l_inv)
    return pf_ode_generate(params, score_fn, grid, rng_seed, h, record, method)


def ou_reverse_sde_generate(
    xi: float,
    l_inv: float,
    score_fn,
    grid: TimeGrid,
    rng_seed,
    h: int = 1,
    record: bool = False,
) -> Trajectory:
    """Euler-Maruyama on the first-order reverse SDE.

    Stepping t -> t - dt applies drift xi (x + 2 l_inv s(x, t)) dt plus
    noise sqrt(2 xi l_inv dt); started from x_T ~ N(0, l_inv I_h).
    """
    rng = np.random.default_rng(rng_seed)
    x = math.sqrt(l_inv) * rng.standard_normal(h)
    times = grid.times()
    states = [LiftedState(1, h, x)]
    noise_scale = math.sqrt(2.0 * xi * l_inv)
    for k in range(len(times) - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        step = t0 - t1
        s = np.asarray(score_fn(x, t0), dtype=float).reshape(-1)
        x = x + xi * (x + 2.0 * l_inv * s) * step
        x = x + noise_scale * math.sqrt(step) * rng.standard_normal(h)
        _check_rows(x, k)
        if record:
            states.append(LiftedState(1, h, x))
    if record:
        return Trajectory(times=times, states=states)
    return Trajectory(times=times[-1:], states=[LiftedState(1, h, x)])


def pf_ode_endpoints(
    params: HoldParams,
    score_fn,
    grid: TimeGrid,
    rng_seed,
    h: int,
    runs: int,
    method: str = "heun",
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Endpoint positions for a batch of independent flow runs.

    Run i starts from the prior drawn with stream (rng_seed, i), so results
    do not depend on batching or scheduling.  Rows that go non-finite or
    exceed the divergence guard are frozen at their last finite value and
    reported as failures (run index, step index); the returned mask marks
    the runs that finished cleanly.

    Returns (positions (runs, h), ok mask (runs,), failures).
    """
    n = params.order
    fmat = build_forward_matrix(params).entries
    gain = params.xi * params.l_inv

    def drift(u, t):
        out = kron_apply(fmat, u, h)
        out[..., -h:] -= gain * np.asarray(score_fn(u, t), dtype=float)
        return out

    seed_chain = list(rng_seed) if isinstance(rng_seed, (list, tuple)) else [rng_seed]
    state = np.stack(
        [
            math.sqrt(params.l_inv)
            * np.random.default_rng(seed_chain + [i]).standard_normal(n * h)
            for i in range(runs)
        ]
    )
    ok = np.ones(runs, dtype=bool)
    failures: list[tuple[int, int]] = []
    times = grid.times()
    for k in range(len(times) - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        dt = t1 - t0
        f0 = drift(state, t0)
        if method == "euler":
            nxt = state + dt * f0
        else:
            pred = state + dt * f0
            nxt = state + 0.5 * dt * (f0 + drift(pred, t1))
        with np.errstate(invalid="ignore"):
            bad = ~np.isfinite(nxt).all(axis=1)
            bad |= np.nanmax(np.abs(np.where(np.isfinite(nxt), nxt, 0.0)), axis=1) > DIVERGENCE_GUARD
        newly = bad & ok
        for i in np.nonzero(newly)[0]:
            failures.append((int(i), k))
        nxt[bad] = state[bad]
        ok &= ~newly
        state = nxt
    return state[:, :h], ok, failures
