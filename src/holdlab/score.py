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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import HoldParams, LiftedState, T_EPS, expm_at, kron_apply
from .forward import (
    AuxPolicy,
    BlockCovariance,
    cholesky_block,
    covariance_at,
    lift_data,
)


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

    @classmethod
    def from_points(cls, points) -> "Dataset":
        return cls(np.asarray(points, dtype=float))

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
            cached = np.stack(
                [
                    lift_data(x, params, policy, index=k).data
                    for k, x in enumerate(self.points)
                ]
            )
            self._lift_cache[key] = cached
        return cached


@dataclass(frozen=True)
class EmpiricalMixture:
    """Equal-weight Gaussian mixture: N centers sharing one block covariance."""

    order: int
    block_dim: int
    centers: np.ndarray
    cov: BlockCovariance
    t: float
    chol: np.ndarray
    chol_shift: float
    chol_inv: np.ndarray
    white_centers: np.ndarray

    @property
    def n_components(self) -> int:
        return self.centers.shape[0]


def mixture_at(
    dataset: Dataset,
    params: HoldParams,
    sigma0: BlockCovariance,
    policy: AuxPolicy,
    t: float,
) -> EmpiricalMixture:
    """Time-t empirical mixture: centers exp(Ft) u0^(k), covariance Sigma_t."""
    if dataset.n_train == 0:
        raise ValueError("dataset is empty")
    n, h = params.order, dataset.h
    lifted = dataset.lifted(params, policy)
    e = expm_at(params, t)
    centers = kron_apply(e, lifted, h)
    cov = covariance_at(params, sigma0, t)
    factor, shift = cholesky_block(cov)
    inv = np.linalg.inv(factor)
    return EmpiricalMixture(
        order=n,
        block_dim=h,
        centers=centers,
        cov=cov,
        t=t,
        chol=factor,
        chol_shift=shift,
        chol_inv=inv,
        white_centers=kron_apply(inv, centers, h),
    )


def _as_batch(mix: EmpiricalMixture, u) -> tuple[np.ndarray, bool]:
    if isinstance(u, LiftedState):
        if u.order != mix.order or u.block_dim != mix.block_dim:
            raise ValueError("state shape does not match mixture")
        return u.data[None, :], True
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _log_weights(mix: EmpiricalMixture, u):
    """(y, lw, m, single): whitened batch, log-weights less row maxima m.

    lw[b, k] = -|y_b - c~_k|^2 / 2 - m_b over the whitened centers c~_k.
    """
    batch, single = _as_batch(mix, u)
    y = kron_apply(mix.chol_inv, batch, mix.block_dim)
    diffs = y[:, None, :] - mix.white_centers[None, :, :]
    lw = -0.5 * np.einsum("bkj,bkj->bk", diffs, diffs)
    m = lw.max(axis=1)
    return y, lw - m[:, None], m, single


def responsibilities(mix: EmpiricalMixture, u) -> np.ndarray:
    """Posterior component weights at u; rows sum to 1."""
    _, lw, _, single = _log_weights(mix, u)
    w = np.exp(lw)
    w /= w.sum(axis=1, keepdims=True)
    return w[0] if single else w


def log_density_shifted(mix: EmpiricalMixture, u) -> np.ndarray | float:
    """log p up to a u-independent constant (normalizer and 1/N dropped)."""
    _, lw, m, single = _log_weights(mix, u)
    out = m + np.log(np.exp(lw).sum(axis=1))
    return float(out[0]) if single else out


def score_full(mix: EmpiricalMixture, u) -> np.ndarray:
    """Gradient of the mixture log-density at u.

    Equals Sigma_t^{-1} (sum_k w_k c_k - u) with responsibilities w, taken
    as (L^{-T} x I_h)(sum_k w_k c~_k - y) from the whitened point y and
    whitened centers c~_k.
    """
    y, lw, _, single = _log_weights(mix, u)
    w = np.exp(lw)
    w /= w.sum(axis=1, keepdims=True)
    resid = w @ mix.white_centers - y
    out = kron_apply(mix.chol_inv.T, resid, mix.block_dim)
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
):
    """Callback (u, t) -> last-block score of the time-t empirical mixture.

    Keeps the mixtures of the last two times: a Heun step starts where the
    previous one ended, so each grid time is built once.
    """
    memo: dict[float, EmpiricalMixture] = {}

    def fn(u, t):
        mix = memo.get(t)
        if mix is None:
            mix = mixture_at(dataset, params, sigma0, policy, t)
            if len(memo) == 2:
                del memo[next(iter(memo))]
            memo[t] = mix
        return score_last_block(mix, u)

    return fn


def loss_weight(params: HoldParams, sigma0: BlockCovariance, t: float) -> float:
    """Bottom-right entry of the block Cholesky factor of Sigma_t.

    By the Kronecker structure this equals the (nh, nh) entry of the full
    factor, the noise scale multiplying the score in the training loss.
    """
    factor, _ = cholesky_block(covariance_at(params, sigma0, t))
    return float(factor[-1, -1])


def mc_loss(
    score_fn,
    dataset: Dataset,
    params: HoldParams,
    sigma0: BlockCovariance,
    policy: AuxPolicy,
    n_mc: int,
    rng_seed,
    t_min: float = T_EPS,
) -> float:
    """Monte Carlo estimate of the denoising loss E||eps_n + s(u_t, t) w_t||^2.

    Each sample draws t ~ U(t_min, 1), a training point, and a full noise
    vector; w_t is the bottom-right entry of the block Cholesky factor.
    Deterministic given ``rng_seed`` (one stream, fixed consumption order),
    so different score functions compare on matched noise.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    n, h = params.order, dataset.h
    lifted = dataset.lifted(params, policy)
    rng = np.random.default_rng(rng_seed)
    total = 0.0
    for _ in range(n_mc):
        t = rng.uniform(t_min, 1.0)
        k = int(rng.integers(dataset.n_train))
        eps = rng.standard_normal(n * h)
        e = expm_at(params, t)
        cov = covariance_at(params, sigma0, t)
        factor, _ = cholesky_block(cov)
        u_t = kron_apply(e, lifted[k], h) + kron_apply(factor, eps, h)
        s = np.asarray(score_fn(u_t, t), dtype=float).reshape(-1)
        resid = eps[-h:] + s * factor[-1, -1]
        total += float(resid @ resid)
    return total / n_mc
