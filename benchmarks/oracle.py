"""50-digit reference for the last-block empirical score.

For one (order, t) the oracle propagates the covariance as
E Sigma_0 E^T + l_inv (I - E E^T) with E = exp(F t) in mpmath, inverts it
and evaluates the score Sigma_t^{-1} (sum_k w_k c_k - u) of the equal-weight
mixture at a float probe u.  The cancellation in I - E E^T costs at most
log10(1 / t^(2n-1)) digits, far inside the working precision for the orders
and times the workloads use.

Probes are forward samples drawn with the oracle's own factor, so they
follow the true time-t distribution even where the float factor is floored.
Components whose weight lies below 1e-100 of the largest are skipped, using
the position-block bound d_k >= |u_pos - c_pos,k|^2 / Sigma_00, which holds
because a marginal Mahalanobis distance never exceeds the joint one.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from holdlab.core import build_forward_matrix

DIGITS = 50
SKIP_GAP = 2.0 * math.log(1e100)


def _matrix(arr) -> mp.matrix:
    return mp.matrix([[mp.mpf(float(x)) for x in row] for row in np.atleast_2d(arr)])


class ScoreOracle:
    """Exact mixture at one time for lifted centers (N, n*h)."""

    def __init__(self, params, sigma0, lifted: np.ndarray, h: int, t: float):
        with mp.workdps(DIGITS):
            n = params.order
            e = mp.expm(_matrix(build_forward_matrix(params).entries) * mp.mpf(t))
            cov = e * _matrix(sigma0.small) * e.T + mp.mpf(params.l_inv) * (
                mp.eye(n) - e * e.T
            )
            cov = (cov + cov.T) / 2
            self.prec = mp.inverse(cov)
            self.chol = mp.cholesky(cov)
            self.pos_var = float(cov[0, 0])
            self.centers = [
                [[mp.fsum(e[i, k] * mp.mpf(float(row[k * h + j])) for k in range(n))
                  for j in range(h)] for i in range(n)]
                for row in lifted
            ]
        self.n, self.h = n, h
        self.center_pos = np.array([[float(x) for x in c[0]] for c in self.centers])

    def probes(self, rng: np.random.Generator, count: int) -> list[np.ndarray]:
        """Forward samples c_k + (L x I_h) eps, rounded to float."""
        n, h = self.n, self.h
        out = []
        with mp.workdps(DIGITS):
            for _ in range(count):
                k = int(rng.integers(len(self.centers)))
                eps = rng.standard_normal((n, h))
                c = self.centers[k]
                out.append(np.array([
                    float(c[i][j] + mp.fsum(self.chol[i, l] * mp.mpf(float(eps[l, j]))
                                            for l in range(i + 1)))
                    for i in range(n) for j in range(h)
                ]))
        return out

    def _mahalanobis(self, u, k):
        c = self.centers[k]
        d = [[u[i][j] - c[i][j] for j in range(self.h)] for i in range(self.n)]
        return mp.fsum(
            self.prec[i, l] * mp.fsum(d[i][j] * d[l][j] for j in range(self.h))
            for i in range(self.n) for l in range(self.n)
        )

    def score_last(self, probe: np.ndarray) -> np.ndarray:
        n, h = self.n, self.h
        gap = ((self.center_pos - probe[:h]) ** 2).sum(axis=1) / self.pos_var
        with mp.workdps(DIGITS):
            u = [[mp.mpf(float(probe[i * h + j])) for j in range(h)] for i in range(n)]
            order = np.argsort(gap)
            d_min = self._mahalanobis(u, order[0])
            kept = [(d_min, order[0])]
            for k in order[1:]:
                if gap[k] - float(d_min) > SKIP_GAP:
                    break
                d = self._mahalanobis(u, k)
                kept.append((d, k))
                d_min = min(d_min, d)
            weights = [(mp.exp(-(d - d_min) / 2), k) for d, k in kept]
            total = mp.fsum(w for w, _ in weights)
            resid = [[mp.fsum(w * self.centers[k][i][j] for w, k in weights) / total
                      - u[i][j] for j in range(h)] for i in range(n)]
            return np.array([
                float(mp.fsum(self.prec[n - 1, l] * resid[l][j] for l in range(n)))
                for j in range(h)
            ])


def relative_errors(oracle: ScoreOracle, score_fn, t: float, probes) -> list[float]:
    """|s(u) - s_ref(u)| / |s_ref(u)| of the last-block score at each probe."""
    errs = []
    for u in probes:
        ref = oracle.score_last(u)
        got = np.asarray(score_fn(u, t), dtype=float).reshape(-1)
        errs.append(float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    return errs
