"""Closed-form optimal empirical scores and the score-matching loss.

The time-t distribution of a lifted point-mass dataset is an equal-weight
Gaussian mixture: one component per training sample, all sharing the
block-scalar covariance Sigma_t.  Its log-density gradient is available in
closed form, which is the unconstrained minimizer of the denoising loss.
Points are whitened by the inverse block Cholesky factor and compared to
whitened centers by direct differences (the expanded Gram form cancels at
small t, where the whitened centers are huge).  Mixture weights are always
computed in the log domain with the per-point maximum subtracted; raw
densities underflow at exactly the separations where memorization happens.
One kernel serves every order: at order 1 (the Ornstein-Uhlenbeck process)
the mixture covariance is the scalar l_inv (1 - exp(-2 xi t)) and the same
code gives the first-order empirical score.

The kernel works component-major.  A (B, n*h) batch is whitened into
contiguous (n*h, B) columns by one (n, n) @ (n, h*B) GEMM; the squared
distances to the N whitened centers accumulate into an (N, B) array one
coordinate row at a time, the log-weights are reduced over the component
axis 0, and the mean sum_k w_k c~_k is one (n*h, N) @ (N, B) GEMM, mapped
back through L^{-T} by the same block GEMM.  Results keep the row-major
shapes: (B, n*h) scores, (B, N) responsibilities.

A mixture built at a (B,) array of times, one per row of a (B, n*h) batch,
carries a leading B axis on its factors and whitened centers, and the same
kernel broadcasts over it.  The n x n pieces of a mixture come from a
``forward.schedule``; ``empirical_score_fn`` takes the schedule of a whole
time grid, so a sampler factors its grid once.  Score callbacks are
``score_fn(u, t)`` -> (B, h) last-block scores for u of shape (B, n*h),
with t a float (the samplers) or a (B,) array (``mc_loss``); a single
(n*h,) point gives (h,).  Points are plain arrays throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import HoldParams, T_EPS, kron_apply
from .forward import AuxPolicy, BlockCovariance, Schedule, lift_data, schedule

# Samples per batched step of mc_loss: bounds the (B, N, n*h) whitened
# centers built per step (peak memory); larger blocks run no faster.
_MC_BLOCK = 256


@dataclass
class Dataset:
    """Training points in R^h with cached lifts per (params, policy)."""

    points: np.ndarray
    _lift_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("points must be a (n_train, h) array")
        self.points = pts

    @property
    def n_train(self) -> int:
        return self.points.shape[0]

    @property
    def h(self) -> int:
        return self.points.shape[1]

    def lifted(self, params: HoldParams, policy: AuxPolicy) -> np.ndarray:
        """Lifted training set as an (n_train, n*h) array."""
        key = (params, policy)
        cached = self._lift_cache.get(key)
        if cached is None:
            lifts = [lift_data(x, params, policy, k) for k, x in enumerate(self.points)]
            cached = np.stack(lifts)
            self._lift_cache[key] = cached
        return cached


@dataclass(frozen=True)
class EmpiricalMixture:
    """Equal-weight Gaussian mixture: N centers sharing one block covariance,
    held as its factor ``chol`` (``chol @ chol^T`` = Sigma_t + delta I of the
    schedule) and ``chol_inv``.  Built at (B,) times, all fields from
    ``centers`` on carry a leading B axis."""

    order: int
    block_dim: int
    centers: np.ndarray
    chol: np.ndarray
    chol_inv: np.ndarray
    white_centers: np.ndarray

    @property
    def n_components(self) -> int:
        return self.centers.shape[-2]


def mixture_at(
    dataset: Dataset,
    params: HoldParams,
    sigma0: BlockCovariance,
    policy: AuxPolicy,
    t,
) -> EmpiricalMixture:
    """Time-t empirical mixture: centers exp(Ft) u0^(k), covariance Sigma_t."""
    stack = np.ndim(t) > 0
    sched = schedule(params, sigma0, t if stack else [t])
    return _mixture(dataset, params, policy, sched, slice(None) if stack else 0)


def _mixture(
    dataset: Dataset, params: HoldParams, policy: AuxPolicy, sched: Schedule, k
) -> EmpiricalMixture:
    """The mixture at ``sched.times[k]``: one time for an integer k, the
    stack for a slice."""
    if dataset.n_train == 0:
        raise ValueError("dataset is empty")
    h, inv = dataset.h, sched.chol_inv[k]
    lifted = dataset.lifted(params, policy)
    centers = kron_apply(sched.expm[k][..., None, :, :], lifted, h)
    return EmpiricalMixture(
        order=params.order,
        block_dim=h,
        centers=centers,
        chol=sched.chol[k],
        chol_inv=inv,
        white_centers=kron_apply(inv[..., None, :, :], centers, h),
    )


def _as_batch(mix: EmpiricalMixture, u) -> tuple[np.ndarray, bool]:
    """A (B, n*h) batch, or one (n*h,) point as a batch of one."""
    arr = np.asarray(u, dtype=float)
    if arr.shape[-1:] != (mix.order * mix.block_dim,):
        raise ValueError("state shape does not match mixture")
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _block_apply(mat: np.ndarray, cols: np.ndarray, h: int) -> np.ndarray:
    """(mat x I_h) @ cols for (n*h, B) columns, as one (n, n) @ (n, h*B) GEMM."""
    return (mat @ cols.reshape(mat.shape[-1], -1)).reshape(cols.shape)


def _log_weights(mix: EmpiricalMixture, u):
    """(y, lw, m, single): the whitened batch as (n*h, B) columns, and the
    (N, B) log-weights less their column maxima m.

    lw[k, b] = -|y_b - c~_k|^2 / 2 - m_b over the whitened centers c~_k,
    summed one coordinate row at a time.
    """
    batch, single = _as_batch(mix, u)
    white = mix.white_centers
    if white.ndim == 2:
        y = _block_apply(mix.chol_inv, batch.T, mix.block_dim)
        rows = white.T[:, :, None]
    else:
        y = kron_apply(mix.chol_inv, batch, mix.block_dim).T
        rows = white.transpose(2, 1, 0)
    sq = np.zeros((white.shape[-2], len(batch)))
    diff = np.empty_like(sq)
    for y_row, c_row in zip(y, rows):
        np.subtract(y_row, c_row, out=diff)
        diff *= diff
        sq += diff
    lw = -0.5 * sq
    m = lw.max(axis=0)
    lw -= m
    return y, lw, m, single


def _weights(lw: np.ndarray) -> np.ndarray:
    w = np.exp(lw)
    w /= w.sum(axis=0)
    return w


def responsibilities(mix: EmpiricalMixture, u) -> np.ndarray:
    """Posterior component weights at u; rows sum to 1."""
    _, lw, _, single = _log_weights(mix, u)
    w = _weights(lw).T
    return w[0] if single else w


def log_density_shifted(mix: EmpiricalMixture, u) -> np.ndarray | float:
    """log p up to a u-independent constant (normalizer and 1/N dropped)."""
    _, lw, m, single = _log_weights(mix, u)
    out = m + np.log(np.exp(lw).sum(axis=0))
    return float(out[0]) if single else out


def score_full(mix: EmpiricalMixture, u) -> np.ndarray:
    """Gradient of the mixture log-density at u.

    Equals Sigma_t^{-1} (sum_k w_k c_k - u) with responsibilities w, taken
    as (L^{-T} x I_h)(sum_k w_k c~_k - y) from the whitened point y and
    whitened centers c~_k.
    """
    y, lw, _, single = _log_weights(mix, u)
    w = _weights(lw)
    white, inv_t, h = mix.white_centers, mix.chol_inv.swapaxes(-1, -2), mix.block_dim
    if white.ndim == 2:  # a shared time: two GEMMs on the columns
        out = _block_apply(inv_t, white.T @ w - y, h).T
    else:
        mean = (w.T[:, None, :] @ white)[:, 0]
        out = kron_apply(inv_t, mean - y.T, h)
    return out[0] if single else out


def score_last_block(mix: EmpiricalMixture, u) -> np.ndarray:
    """Final h coordinates of the full score (the learned target)."""
    full = score_full(mix, u)
    h = mix.block_dim
    return full[..., -h:]


def empirical_score_fn(
    dataset: Dataset,
    params: HoldParams,
    sigma0: BlockCovariance,
    policy: AuxPolicy,
    *,
    schedule: Schedule | None = None,
):
    """Callback (u, t) -> last-block score of the time-t empirical mixture.

    A float t held by ``schedule`` (exact equality: the samplers pass
    ``float(times[k])``) takes its n x n pieces from it; any other time
    builds them with ``mixture_at``.  The mixture of the last float time is
    kept: a Heun step starts where the previous one ended, so each grid
    time is built once.
    """
    times = [] if schedule is None else schedule.times.tolist()
    index = {t: k for k, t in enumerate(times)}
    last_t, last_mix = None, None

    def fn(u, t):
        nonlocal last_t, last_mix
        if np.ndim(t):
            return score_last_block(mixture_at(dataset, params, sigma0, policy, t), u)
        if t != last_t:
            k = index.get(t)
            if k is None:
                last_mix = mixture_at(dataset, params, sigma0, policy, t)
            else:
                last_mix = _mixture(dataset, params, policy, schedule, k)
            last_t = t
        return score_last_block(last_mix, u)

    return fn


def mc_loss(
    score_fn,
    dataset: Dataset,
    params: HoldParams,
    sigma0: BlockCovariance,
    policy: AuxPolicy,
    n_mc: int,
    rng_seed,
) -> float:
    """Monte Carlo estimate of the denoising loss E||eps_n + s(u_t, t) w_t||^2.

    Each sample draws t ~ U(T_EPS, 1), a training point, and a full noise
    vector; w_t is the bottom-right entry of the block Cholesky factor.
    Deterministic given ``rng_seed`` (one stream, fixed consumption order),
    so different score functions compare on matched noise.  ``score_fn``
    gets blocks of samples with their (B,) times; an (h,) return is
    broadcast over the block.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    n, h = params.order, dataset.h
    lifted = dataset.lifted(params, policy)
    rng = np.random.default_rng(rng_seed)
    times, picks = np.empty(n_mc), np.empty(n_mc, dtype=int)
    noise = np.empty((n_mc, n * h))
    for i in range(n_mc):
        times[i] = rng.uniform(T_EPS, 1.0)
        picks[i] = rng.integers(dataset.n_train)
        noise[i] = rng.standard_normal(n * h)
    total = 0.0
    for lo in range(0, n_mc, _MC_BLOCK):
        block = slice(lo, lo + _MC_BLOCK)
        t, eps = times[block], noise[block]
        sched = schedule(params, sigma0, t)
        u_t = kron_apply(sched.expm, lifted[picks[block]], h)
        u_t += kron_apply(sched.chol, eps, h)
        s = np.broadcast_to(np.asarray(score_fn(u_t, t), dtype=float), (len(t), h))
        resid = eps[:, -h:] + s * sched.chol[:, -1:, -1]
        total += float(np.einsum("bj,bj->", resid, resid))
    return total / n_mc
