"""Reverse-time generation by the probability-flow ODE.

``pf_ode_endpoints`` integrates a batch of independent runs backward from
the stationary prior at t_start down to a small positive t_end, with Heun
steps of the batched core ``_integrate``.  The batch is held as (n*h, runs)
columns: F acts on all runs as one (n, n) @ (n, h*runs) GEMM, and the score
callback gets the (runs, n*h) transpose, a view, which the score kernel
whitens without a copy.
Every order takes the same route; the first-order process is
``HoldParams(order=1, gammas=(), xi=..., l_inv=...)``, the n = 1 case of
the same drift.  Run i draws its start from its own stream
[*rng_seed, i], whichever route builds it (one uint32 seed array when every
entry is below 2**32, ``sample_prior`` per run otherwise), so results do
not depend on batching.  A run that diverges is frozen at its last good
state and reported, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HoldParams, T_EPS, _block_apply, _require_seed, build_forward_matrix

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
    rng = np.random.default_rng(_require_seed(rng_seed))
    return math.sqrt(params.l_inv) * rng.standard_normal(params.order * h)


def _integrate(drift, times: np.ndarray, state: np.ndarray):
    """Backward-time Heun integration of (d, runs) columns over a descending
    grid.

    ``drift(u, t)`` returns du/dt for all the columns as a new array, which
    the step then updates in place.  A run whose state goes non-finite or
    exceeds DIVERGENCE_GUARD is held at its last good state from then on and
    reported once as (run index, step index).  While no run has failed, one
    scalar maximum over the whole batch stands for the per-column check.

    Returns (states (d, runs), ok mask (runs,), failures).
    """
    ok = np.ones(state.shape[1], dtype=bool)
    failures: list[tuple[int, int]] = []
    grid = times.tolist()
    for k, (t0, t1) in enumerate(zip(grid, grid[1:])):
        dt = t1 - t0
        f0 = drift(state, t0)
        pred = dt * f0
        pred += state
        # nxt = state + 0.5 dt (f0 + f1), built in f1: each in-place step
        # swaps the operands of one commutative operation, so the bits stay.
        nxt = drift(pred, t1)
        nxt += f0
        nxt *= 0.5 * dt
        nxt += state
        # The max of an array holding NaN is NaN, which fails the comparison.
        if failures or not np.abs(nxt).max() <= DIVERGENCE_GUARD:
            good = np.abs(nxt).max(axis=0) <= DIVERGENCE_GUARD
            failures.extend((int(i), k) for i in np.flatnonzero(ok & ~good))
            ok &= good
            nxt = np.where(ok, nxt, state)
        state = nxt
    return state, ok, failures


def _prior_columns(params: HoldParams, h: int, chain: list, runs: int) -> np.ndarray:
    """(n*h, runs) prior draws, column i drawn as ``sample_prior`` draws it
    from the stream [*chain, i].

    numpy seeds a list of ints below 2**32 with one uint32 word each, so
    when every entry fits (run indices do: 2**32 runs would not fit in
    memory), row i of one uint32 array seeds the same stream as
    chain + [i] and skips the per-entry conversion; a larger int takes
    several words, and there each run goes through ``sample_prior``.
    """
    if all(entry < 2**32 for entry in chain):
        seeds = np.empty((runs, len(chain) + 1), dtype=np.uint32)
        seeds[:, :-1] = chain
        seeds[:, -1] = np.arange(runs)
        draws = np.empty((runs, params.order * h))
        for row, out in zip(seeds, draws):
            np.random.default_rng(row).standard_normal(out=out)
        draws *= math.sqrt(params.l_inv)
    else:
        draws = np.stack([sample_prior(params, h, chain + [i]) for i in range(runs)])
    return np.ascontiguousarray(draws.T)


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
    from the prior drawn with stream [*rng_seed, i].  Runs that go non-finite
    or exceed the divergence guard are frozen at their last good state and
    reported as failures (run index, step index); the returned mask marks
    the runs that finished cleanly.

    ``score_fn`` is called with a (runs, n*h) batch and returns the (runs, h)
    last-block scores.

    Returns (positions (runs, h), ok mask (runs,), failures).
    """
    for name, value in (("runs", runs), ("h", h)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    fmat = build_forward_matrix(params).entries
    gain = params.xi * params.l_inv

    def drift(cols, t):
        out = _block_apply(fmat, cols)
        out[-h:] -= gain * np.asarray(score_fn(cols.T, t), dtype=float).T
        return out

    start = _prior_columns(params, h, _require_seed(rng_seed), runs)
    state, ok, failures = _integrate(drift, grid.times(), start)
    return np.ascontiguousarray(state[:h].T), ok, failures
