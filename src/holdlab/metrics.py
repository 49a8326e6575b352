"""Memorization and collapse diagnostics.

Fmem flags a generated sample as memorized when its nearest-to-second-
nearest training-distance ratio falls below a threshold; the determinant
ratio det(I - exp(Ft))^2 / det(I - exp(Ft) exp(Ft)^T) tracks how sharply
the time-t empirical distribution concentrates on training points as
t -> 0 (it vanishes for the first-order process, tends to 3/4 at order 2,
and diverges for higher orders); its denominator is the noise covariance of
``forward.covariance_at``, factored once per array of times.  A Gaussian
2-Wasserstein fit stands in for feature-space quality scores at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _nilpotent_terms, _order_params
from .forward import BlockCovariance, cholesky_stack, covariance_at


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

    Exact brute-force L2 nearest and second-nearest neighbors among the
    distinct training points (a repeated point counts once, and
    ``nn_index`` names its first occurrence); the interval is the
    sample-proportion normal approximation p +- 1.96 sqrt(p(1-p)/B),
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
    if gen.shape[1] != trn.shape[1]:
        raise ValueError("generated and training dimensions differ")
    first = np.sort(np.unique(trn, axis=0, return_index=True)[1])
    if len(first) < 2:
        raise ValueError("need at least two distinct training points for a gap ratio")

    trn = trn[first]
    dists = np.sqrt(((gen[:, None, :] - trn[None, :, :]) ** 2).sum(axis=2))
    nn_index = first[np.argmin(dists, axis=1)]
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


def det_ratio(n: int, t, xi: float | None = None):
    """det(I - exp(Ft))^2 / det(I - exp(Ft) exp(Ft)^T) for critical damping.

    n = 1 is the first-order ratio (1 - e^{-xi t})^2 / (1 - e^{-2 xi t})
    = tanh(xi t / 2), xi defaulting to 1 and, at every order, required to
    be positive and finite (0 or below is no diffusion); orders >= 2 are
    critically damped with l_inv = 1.  The numerator is (1 - e^{s* t})^{2n}; the
    denominator's log is twice the log-diagonal sum of the Cholesky factor
    of ``covariance_at``.  ``t`` is a positive float or (T,) array, and so
    is the result.  Raises ``ValueError``, naming the order and time, when
    the factor needed a floor or the ratio leaves the float range.
    """
    times = np.asarray(t, dtype=float)
    if not (times > 0).all():
        raise ValueError(f"det_ratio needs t > 0, got {t}")
    if n < 1:
        raise ValueError("order must be >= 1")
    if xi is not None and not 0 < xi < math.inf:
        raise ValueError(f"friction xi must be positive and finite, got {xi}")
    params = _order_params(n, xi or 1.0)
    zero = BlockCovariance(n, np.zeros((n, n)), 0.0)
    factor, delta = cholesky_stack(covariance_at(params, zero, t))
    log_den = 2.0 * np.log(np.diagonal(factor, axis1=-2, axis2=-1)).sum(axis=-1)
    s_star, _ = _nilpotent_terms(params)
    log_num = 2 * n * np.log(-np.expm1(s_star * times))
    with np.errstate(over="ignore", under="ignore"):
        ratio = np.exp(log_num - log_den)
    bad, why = delta > 0, "the covariance factor needed a floor"
    if not bad.any():
        bad, why = ~(ratio > 0) | np.isinf(ratio), "the ratio leaves the float range"
    if bad.any():
        raise ValueError(f"det_ratio at order {n}, t={times[bad].flat[0]}: {why}")
    return float(ratio) if ratio.ndim == 0 else ratio


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
