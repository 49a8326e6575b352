"""Memorization and collapse diagnostics.

Fmem flags a generated sample as memorized when its nearest-to-second-
nearest training-distance ratio falls below a threshold; the determinant
ratio det(I - exp(Ft))^2 / det(I - exp(Ft) exp(Ft)^T) tracks how sharply
the time-t empirical distribution concentrates on training points as
t -> 0 (it vanishes for the first-order process, tends to 3/4 at order 2,
and diverges for higher orders).  A Gaussian 2-Wasserstein fit stands in
for feature-space quality scores at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import build_forward_matrix, critically_damped_params, expm_at

# Below this time the direct determinant evaluation loses digits to
# cancellation (the smallest eigenvalue scales like t^{2n-1}); switch to the
# noise-integral Taylor series with graded rescaling.
DET_SERIES_SWITCH = 0.05


@dataclass(frozen=True)
class FmemReport:
    """Memorized fraction with a normal-approximation 95% interval."""

    fraction: float
    ci_low: float
    ci_high: float
    batch_size: int
    threshold: float
    gap_ratios: np.ndarray
    nn_index: np.ndarray


def fmem(generated, train, tau: float = 0.333) -> FmemReport:
    """Fraction of generated samples whose gap ratio d1/d2 falls below tau.

    Exact brute-force L2 nearest and second-nearest neighbors; the interval
    is the sample-proportion normal approximation p +- 1.96 sqrt(p(1-p)/B),
    clamped to [0, 1].  An exact duplicate of a training point gets gap
    ratio 0 regardless of the second neighbor.
    """
    gen = np.asarray(generated, dtype=float)
    trn = np.asarray(train, dtype=float)
    if gen.ndim == 1:
        gen = gen[:, None]
    if trn.ndim == 1:
        trn = trn[:, None]
    if gen.shape[0] == 0:
        raise ValueError("generated set is empty")
    if trn.shape[0] < 2:
        raise ValueError("need at least two training points for a gap ratio")
    if gen.shape[1] != trn.shape[1]:
        raise ValueError("generated and training dimensions differ")

    dists = np.sqrt(((gen[:, None, :] - trn[None, :, :]) ** 2).sum(axis=2))
    nn_index = np.argmin(dists, axis=1)
    two = np.partition(dists, 1, axis=1)[:, :2]
    d1, d2 = two[:, 0], two[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(d1 == 0.0, 0.0, d1 / d2)
    memorized = ratios < tau
    b = gen.shape[0]
    p = float(memorized.mean())
    half = 1.96 * math.sqrt(p * (1.0 - p) / b)
    return FmemReport(
        fraction=p,
        ci_low=max(0.0, p - half),
        ci_high=min(1.0, p + half),
        batch_size=b,
        threshold=tau,
        gap_ratios=ratios,
        nn_index=nn_index,
    )


@lru_cache(maxsize=64)
def _series_vectors(n: int, depth: int) -> np.ndarray:
    """(depth, n) stack of F^j e_n / j! for the critically damped order-n
    drift; cached and read-only."""
    fmat = build_forward_matrix(critically_damped_params(n)).entries
    vecs = np.zeros((depth, n))
    vecs[0, -1] = 1.0
    for j in range(1, depth):
        vecs[j] = fmat @ vecs[j - 1] / j
    vecs.flags.writeable = False
    return vecs


def _gram_series(vecs: np.ndarray, t: float) -> np.ndarray:
    """sum_{j,k} v_j v_k^T t^{j+k+1} / (j+k+1) over the rows v_j of ``vecs``,
    as one Gram product V^T H V with H[j, k] = t^{j+k+1} / (j+k+1)."""
    depth = vecs.shape[0]
    power = np.arange(1, 2 * depth)
    hankel = (t**power / power)[np.add.outer(np.arange(depth), np.arange(depth))]
    return vecs.T @ hankel @ vecs


def _noise_covariance_series(n: int, t: float) -> np.ndarray:
    """Sigma_t = integral of exp(F tau) G G^T exp(F tau)^T for zero Sigma_0,
    l_inv = 1, as a truncated Taylor series in t: the Gram series of the
    vectors F^j e_n / j!.

    Entries come out with full relative precision for small ||F|| t, which
    the direct I - E E^T form cannot deliver (it subtracts O(1) terms).
    """
    params = critically_damped_params(n)
    fmat = build_forward_matrix(params).entries
    norm_ft = float(np.linalg.norm(fmat)) * t
    depth = max(30, int(math.ceil(3.0 * norm_ft)) + 30)
    return 2.0 * params.xi * _gram_series(_series_vectors(n, depth), t)


def _log_det_noise_cov(n: int, t: float) -> float:
    """log det(I - exp(Ft) exp(Ft)^T) through the graded series route.

    Rows and columns are rescaled by diag(t^{n-1}, ..., t, 1) so the scaled
    matrix is O(1) and well conditioned; the determinant then factors as
    t^{n^2} times an O(1) determinant.
    """
    sig = _noise_covariance_series(n, t)
    expo = np.array([n - 1 - i for i in range(n)], dtype=float)
    scaled = sig / t ** (expo[:, None] + expo[None, :] + 1.0)
    sign, logdet = np.linalg.slogdet(scaled)
    if sign <= 0:
        raise ArithmeticError(f"graded determinant lost positivity at t={t}")
    return logdet + n * n * math.log(t)


def det_ratio(n: int, t: float, xi: float | None = None) -> float:
    """det(I - exp(Ft))^2 / det(I - exp(Ft) exp(Ft)^T) for critical damping.

    n = 1 is the first-order scalar ratio (1 - e^{-xi t})^2 / (1 - e^{-2 xi t})
    = tanh(xi t / 2), with xi defaulting to 1 and required to be positive
    (a friction of 0 or below is no diffusion).  For n >= 2 the numerator uses
    the exact eigenvalue form (1 - e^{s* t})^{2n}; the denominator switches
    to a cancellation-safe series below t = 0.05 (and whenever the direct
    determinant loses positivity).
    """
    if t <= 0:
        raise ValueError(f"det_ratio needs t > 0, got {t}")
    if n < 1:
        raise ValueError("order must be >= 1")
    if xi is not None and xi <= 0:
        raise ValueError(f"friction xi must be positive, got {xi}")
    if n == 1:
        x = (1.0 if xi is None else xi) * t
        return math.tanh(0.5 * x)
    params = critically_damped_params(n)
    s_star = -math.sqrt(2 * n - 3)
    log_num = 2 * n * math.log(-math.expm1(s_star * t))
    if t < DET_SERIES_SWITCH:
        log_den = _log_det_noise_cov(n, t)
    else:
        e = expm_at(params, t)
        m = np.eye(n) - e @ e.T
        sign, log_den = np.linalg.slogdet(m)
        if sign <= 0:
            log_den = _log_det_noise_cov(n, t)
    return math.exp(log_num - log_den)


def collapse_curve(n_list, t_grid, xi: float = 1.0) -> list[tuple[int, float, float]]:
    """Determinant-ratio table over (order, time); rows ordered as given."""
    rows = []
    for n in n_list:
        for t in t_grid:
            rows.append((int(n), float(t), det_ratio(int(n), float(t), xi=xi)))
    return rows


def _fit_gaussian(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Sample mean and covariance; falls back to a diagonal fit when there
    are too few samples for a full-rank estimate."""
    count, dim = samples.shape
    mean = samples.mean(axis=0)
    if count >= dim + 1:
        cov = np.cov(samples, rowvar=False)
        cov = np.atleast_2d(cov)
        return mean, 0.5 * (cov + cov.T), True
    if count > 1:
        var = samples.var(axis=0, ddof=1)
    else:
        var = np.zeros(dim)
    return mean, np.diag(var), False


def gaussian_w2(samples_a, samples_b) -> float:
    """Squared 2-Wasserstein distance between Gaussian fits of two samples.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_b^{1/2} S_a S_b^{1/2})^{1/2}),
    with the matrix square roots taken by symmetric eigendecomposition.
    When either set is too small for a full-rank covariance both are fitted
    diagonally, for which the trace term reduces to sum (sqrt(va)-sqrt(vb))^2.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("both sample sets must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    mean_a, cov_a, full_a = _fit_gaussian(a)
    mean_b, cov_b, full_b = _fit_gaussian(b)
    gap = float(((mean_a - mean_b) ** 2).sum())
    if not (full_a and full_b):
        va = np.diag(cov_a)
        vb = np.diag(cov_b)
        return gap + float(((np.sqrt(va) - np.sqrt(vb)) ** 2).sum())
    vals_b, vecs_b = np.linalg.eigh(cov_b)
    root_b = vecs_b @ np.diag(np.sqrt(np.clip(vals_b, 0.0, None))) @ vecs_b.T
    inner = root_b @ cov_a @ root_b
    vals_i = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    cross = np.sqrt(np.clip(vals_i, 0.0, None)).sum()
    return gap + float(np.trace(cov_a) + np.trace(cov_b) - 2.0 * cross)
