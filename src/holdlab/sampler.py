"""Reverse-time generation by the probability-flow ODE.

``pf_ode_endpoints`` integrates a batch of independent runs backward from
the stationary prior at t_start down to a small positive t_end, with Heun
steps of the batched core ``_integrate`` over plain (runs, n*h) arrays.
Every order takes the same route; the first-order process is
``HoldParams(order=1, gammas=(), xi=..., l_inv=...)``, the n = 1 case of
the same drift.  Run i draws its start from its own stream (rng_seed, i),
so results do not depend on batching.  A run that diverges is frozen at
its last good state and reported, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HoldParams, T_EPS, build_forward_matrix, kron_apply

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
        # Written so that NaN fails: every comparison with it is False.
        if not (math.inf > self.t_start > self.t_end > 0):
            raise ValueError("need a finite t_start > t_end > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.spacing not in ("uniform", "quadratic"):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    def times(self) -> np.ndarray:
        if self.spacing == "uniform":
            return np.linspace(self.t_start, self.t_end, self.steps + 1)
        tau = np.linspace(1.0, 0.0, self.steps + 1)
        return self.t_end + (self.t_start - self.t_end) * tau**2


def sample_prior(params: HoldParams, h: int, rng_seed) -> np.ndarray:
    """Stationary prior draw u_T ~ N(0, l_inv I_{nh}), an (n*h,) array."""
    rng = np.random.default_rng(rng_seed)
    return math.sqrt(params.l_inv) * rng.standard_normal(params.order * h)


def _integrate(drift, times: np.ndarray, state: np.ndarray):
    """Backward-time Heun integration of a (runs, d) batch over a descending
    grid.

    ``drift(u, t)`` returns du/dt for the whole batch.  A run whose state
    goes non-finite or exceeds DIVERGENCE_GUARD is held at its last good
    state from then on and reported once as (run index, step index).

    Returns (states (runs, d), ok mask (runs,), failures).
    """
    ok = np.ones(len(state), dtype=bool)
    failures: list[tuple[int, int]] = []
    for k in range(len(times) - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        dt = t1 - t0
        f0 = drift(state, t0)
        pred = state + dt * f0
        nxt = state + 0.5 * dt * (f0 + drift(pred, t1))
        # NaN fails the comparison, so it counts as diverged.
        bad = ~(np.abs(nxt) <= DIVERGENCE_GUARD).all(axis=1)
        failures.extend((int(i), k) for i in np.flatnonzero(bad & ok))
        ok &= ~bad
        state = np.where(ok[:, None], nxt, state)
    return state, ok, failures


def pf_ode_endpoints(
    params: HoldParams,
    score_fn,
    grid: TimeGrid,
    rng_seed,
    h: int,
    runs: int,
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Endpoint positions of a batch of probability-flow runs.

    Integrates du = (F u - xi l_inv vec(0, s(u, t))) dt backward in time.
    The diffusion square 1/2 G G^T reduces to xi * l_inv on the last block,
    so the score forcing touches only the final h coordinates.  Run i starts
    from the prior drawn with stream (rng_seed, i).  Runs that go non-finite
    or exceed the divergence guard are frozen at their last good state and
    reported as failures (run index, step index); the returned mask marks
    the runs that finished cleanly.

    Returns (positions (runs, h), ok mask (runs,), failures).
    """
    fmat = build_forward_matrix(params).entries
    gain = params.xi * params.l_inv

    def drift(u, t):
        out = kron_apply(fmat, u, h)
        out[..., -h:] -= gain * np.asarray(score_fn(u, t), dtype=float)
        return out

    chain = list(rng_seed) if isinstance(rng_seed, (list, tuple)) else [rng_seed]
    start = np.stack([sample_prior(params, h, chain + [i]) for i in range(runs)])
    state, ok, failures = _integrate(drift, grid.times(), start)
    return state[:, :h], ok, failures
