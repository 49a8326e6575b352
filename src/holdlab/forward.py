"""Forward diffusion: covariance propagation, factorization, and sampling.

Initial covariances are block-scalar, so the time-t covariance keeps the
form (n x n matrix) x I_h for all t.  Everything is therefore computed and
factored at n x n scale and Kronecker-lifted; the full n*h x n*h covariance
is never materialized.  Every function also takes a (T,) array of times
and then works on a (T, n, n) stack whose slices equal the single-time
results bit for bit; ``cholesky_block`` is the single-time view of
``cholesky_stack``, and ``schedule`` gathers every stacked piece of an
array of times.  The small-t noise covariance is a cancellation-free sum.
Factors that need a floor get one fixed rule, 1e-12 of the largest
diagonal entry, and report the floor they added.  Lifted points are plain
(n*h,) arrays; ``sample_forward`` draws (n*h, B) columns from a schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import HoldParams, _block_apply, _nilpotent_terms, expm_at
from .errors import NotPositiveSemidefiniteError


@dataclass(frozen=True)
class BlockCovariance:
    """Symmetric n x n covariance at block scale, stamped with its time;
    or a (T, n, n) stack of them with a (T,) array of times."""

    order: int
    small: np.ndarray
    t: float | np.ndarray

    def __post_init__(self):
        m = np.asarray(self.small, dtype=float)
        if m.shape[-2:] != (self.order, self.order) or m.shape[:-2] != np.shape(self.t):
            raise ValueError(f"small must be {self.order}x{self.order}, one per time")
        # Written so that a NaN anywhere fails: NaN <= tol is False.
        if not np.abs(m - m.swapaxes(-1, -2)).max(initial=0.0) <= 1e-12:
            raise ValueError("covariance block must be symmetric to 1e-12")
        object.__setattr__(self, "small", m)


@dataclass(frozen=True)
class FixedPerSample:
    """Auxiliaries drawn once per training sample from a seeded stream.

    Each training point keeps the same auxiliary draw for its whole life, so
    the lifted dataset is a deterministic function of (seed, sample index).
    """

    seed: int = 0


@dataclass(frozen=True)
class Marginalized:
    """Auxiliaries folded into the initial covariance; centers carry zeros."""


AuxPolicy = FixedPerSample | Marginalized


def initial_covariance(params: HoldParams, policy: AuxPolicy) -> BlockCovariance:
    """Block-scale covariance of the lifted data distribution at t = 0.

    FixedPerSample treats every lifted sample as a point mass (zero
    covariance); Marginalized keeps the position deterministic and gives each
    auxiliary block variance alpha * l_inv.
    """
    n = params.order
    small = np.zeros((n, n))
    if isinstance(policy, Marginalized):
        for i in range(1, n):
            small[i, i] = params.alpha * params.l_inv
    return BlockCovariance(order=n, small=small, t=0.0)


# Natural time units below which the noise covariance is summed by quadrature.
QUADRATURE_SWITCH = 1.0


@lru_cache(maxsize=256)
def _noise_terms(params: HoldParams) -> tuple:
    """Cached, read-only ``(s*, coef, nodes, weights, t_switch)``: row k of
    ``coef`` is a_k = (N^k / k!) e_n, so exp(F tau) e_n = e^{s* tau} sum_k
    a_k tau^k; the (n + 10)-point Gauss-Legendre rule on [0, 1], weights
    times 2 xi l_inv; and QUADRATURE_SWITCH units of sqrt(|2n - 3|) / |s*|
    (1 / xi at order 1).  Below t_switch, x = -2 s* t < 2 sqrt(|2n - 3|) and
    the rule integrates e^{-x u} u^m, m < 2n - 1, to 1e-23 up to MAX_ORDER."""
    s_star, terms = _nilpotent_terms(params)
    n = params.order
    coef = np.array([term[:, -1] for term in terms])
    k = np.arange(1.0, n + 10)  # Golub-Welsch: eigenpairs of the Jacobi matrix
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    nodes = 0.5 * (nodes[:, None] + 1.0)  # columns: (m, 1)
    weights = 2.0 * params.xi * params.l_inv * vecs[:1].T ** 2
    for arr in (coef, nodes, weights):
        arr.flags.writeable = False
    t_switch = QUADRATURE_SWITCH * math.sqrt(abs(2 * n - 3)) / -s_star
    return s_star, coef, nodes, weights, t_switch


def covariance_at(params: HoldParams, sigma0: BlockCovariance, t) -> BlockCovariance:
    """Propagate the block covariance to time t in closed form.

    Sigma_t = exp(Ft) Sigma_0 exp(Ft)^T + Q_t solves dSigma/dt = F Sigma +
    (F Sigma)^T + 2 xi l_inv e_n e_n^T.  Below ``QUADRATURE_SWITCH`` natural
    time units Q_t = 2 xi l_inv int_0^t v v^T dtau, v = exp(F tau) e_n, is a
    Gauss-Legendre sum of positive multiples of v v^T: full precision as its
    smallest eigenvalue falls like t^{2n-1}.  Above, Q_t = l_inv (I - E E^T).
    Each time is computed alone, so it gives the same bits in a stack.
    """
    return _expm_and_covariance(params, sigma0, t)[1]


def _expm_and_covariance(params: HoldParams, sigma0: BlockCovariance, t):
    """``(exp(Ft), Sigma_t)``: ``covariance_at`` with the exp(Ft) it builds,
    so a ``schedule`` computes ``expm_at`` once per time."""
    t_arr = np.asarray(t, dtype=float)
    # Written so that NaN fails: every comparison with it is False.
    if not ((0 <= t_arr) & (t_arr < math.inf)).all():
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    if sigma0.order != params.order:
        raise ValueError("covariance order does not match params order")
    n = params.order
    e = expm_at(params, t)
    e_t = e.swapaxes(-1, -2)
    s_star, coef, nodes, weights, t_switch = _noise_terms(params)
    t_col = t_arr[..., None, None]
    tau = t_col * nodes  # (..., m, 1)
    vecs = tau ** np.arange(n) @ coef  # rows e^{-s* tau} v(tau)
    vecs *= np.exp(s_star * tau) * np.sqrt(weights * t_col)
    quad = vecs.swapaxes(-1, -2) @ vecs
    noise = np.where(t_col < t_switch, quad, params.l_inv * (np.eye(n) - e @ e_t))
    small = e @ sigma0.small @ e_t + noise
    small = 0.5 * (small + small.swapaxes(-1, -2))
    return e, BlockCovariance(order=n, small=small, t=t)


def cholesky_stack(cov: BlockCovariance) -> tuple[np.ndarray, np.ndarray]:
    """Lower-triangular factors of the covariance blocks, flooring if needed.

    Returns ``(L, delta)`` with L L^T = Sigma + delta I per time, where
    delta is 0 when the plain factorization succeeds and otherwise the
    floor actually added.  The floor is 1e-12 times the largest diagonal
    entry, with an absolute fallback of 1e-12 so the all-zero covariance
    (t = 0, point-mass initialization) still factors.  When the stack
    fails, its blocks are retried one by one: only those floor.
    """
    small, n = cov.small, cov.order
    delta = np.zeros(small.shape[:-2])
    try:
        return np.linalg.cholesky(small), delta
    except np.linalg.LinAlgError:
        pass
    diag = np.diagonal(small, axis1=-2, axis2=-1)
    floors = (1e-12 * np.maximum(diag.max(axis=-1), 1.0)).reshape(-1)
    factor = np.empty_like(small)
    # Contiguous reshapes are views: the loop fills factor and delta.
    factors, deltas = factor.reshape(-1, n, n), delta.reshape(-1)
    times = np.ravel(cov.t)
    for i, block in enumerate(small.reshape(-1, n, n)):
        try:
            factors[i] = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            deltas[i] = floors[i]
            try:
                factors[i] = np.linalg.cholesky(block + deltas[i] * np.eye(n))
            except np.linalg.LinAlgError:
                raise NotPositiveSemidefiniteError(
                    f"covariance at t={times[i]} is not positive semidefinite "
                    f"(flooring by {deltas[i]} did not help)"
                ) from None
    return factor, delta


def cholesky_block(cov: BlockCovariance) -> tuple[np.ndarray, float]:
    """``cholesky_stack`` for a single time: ``(L, delta)`` with a float delta."""
    if cov.small.ndim != 2:
        raise ValueError("cholesky_block factors one time; use cholesky_stack")
    factor, delta = cholesky_stack(cov)
    return factor, float(delta)


@dataclass(frozen=True)
class Schedule:
    """The n x n forward pieces at a (T,) array of times, as (T, n, n)
    stacks: ``expm`` = exp(Ft), ``cov`` = Sigma_t, its factor ``chol`` with
    ``chol @ chol^T = Sigma_t + delta I`` and the inverse ``chol_inv``."""

    expm: np.ndarray
    cov: BlockCovariance
    chol: np.ndarray
    chol_inv: np.ndarray
    delta: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.cov.t


def schedule(params: HoldParams, sigma0: BlockCovariance, times) -> Schedule:
    """Every n x n piece a consumer of times ``times`` needs, built by one
    stacked call per stage.  Slice k equals the single-time calls at
    ``times[k]`` bit for bit (``cholesky_block`` for the factor).

    The last schedule is kept, read-only: ``mc_loss`` and the exact score it
    calls ask for the same block of times, which is then factored once.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("schedule needs a (T,) array of times")
    small = np.asarray(sigma0.small, dtype=float)
    return _schedule(params, sigma0.order, small.tobytes(), times.tobytes())


@lru_cache(maxsize=1)
def _schedule(params: HoldParams, order: int, small: bytes, times: bytes) -> Schedule:
    sigma0 = BlockCovariance(order, np.frombuffer(small).reshape(order, order), 0.0)
    t = np.frombuffer(times)
    expm, cov = _expm_and_covariance(params, sigma0, t)
    factor, delta = cholesky_stack(cov)
    out = Schedule(expm, cov, factor, np.linalg.inv(factor), delta)
    for arr in (out.expm, cov.small, factor, out.chol_inv, delta):
        arr.flags.writeable = False
    return out


def sample_forward(sched: Schedule, starts: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Forward draws u_t = (exp(Ft) x I_h) u_0 + (L_t x I_h) eps as (n*h, B)
    columns, from (n*h, B) columns of starts u_0 and of standard normals.

    ``sched`` holds one time shared by the batch (G = 1) or one time per
    column (G = B); its factor L_t carries the floor recorded in ``delta``.
    """
    times = len(sched.expm)
    if starts.ndim != 2 or starts.shape != eps.shape or times not in (1, eps.shape[1]):
        raise ValueError(
            f"schedule at {times} times does not match starts {starts.shape}"
            f" and eps {eps.shape}"
        )
    return _block_apply(sched.expm, starts) + _block_apply(sched.chol, eps)


def lift_data(
    x0: np.ndarray,
    params: HoldParams,
    policy: AuxPolicy,
    index: int = 0,
) -> np.ndarray:
    """Lift a data point into an (n*h,) array by the auxiliary policy.

    Marginalized sets the auxiliaries to their mean 0 (their variance lives
    in the initial covariance).  FixedPerSample draws them once from
    N(0, alpha * l_inv I) with the stream (policy seed, index), so the
    same sample always receives the same auxiliaries.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n, h = params.order, x0.shape[0]
    data = np.zeros(n * h)
    data[:h] = x0
    if isinstance(policy, FixedPerSample) and n > 1:
        rng = np.random.default_rng([policy.seed, index])
        scale = math.sqrt(params.alpha * params.l_inv)
        data[h:] = scale * rng.standard_normal((n - 1) * h)
    return data
