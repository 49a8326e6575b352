"""Linear dynamics of higher-order Langevin diffusion.

The forward process couples a data ("position") block to a chain of
auxiliary blocks through a skew-symmetric tridiagonal coupling with friction
on the last block only.  Order 1 is the Ornstein-Uhlenbeck process with its
own friction; higher orders are critically damped, which collapses the
spectrum of the drift matrix onto a single repeated eigenvalue, so the
shifted matrix is nilpotent and the matrix exponential ``expm_at`` is an
exact finite polynomial, evaluated over an array of times.

Everything here acts at block scale: an ``n x n`` matrix stands for its
Kronecker product with the ``h``-dimensional identity and is applied
blockwise to lifted states in ``R^{n*h}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidOrderError, NotCriticallyDampedError

# Hard cap on the model order; dense n x n storage is ample below this.
MAX_ORDER = 16

# Lower time cutoff used by downstream samplers and loss estimators.
T_EPS = 1e-3


@dataclass(frozen=True)
class HoldParams:
    """Algorithmic parameters of an order-n diffusion.

    ``order == 1`` is the plain Ornstein-Uhlenbeck process (no couplings,
    ``gammas`` empty); orders >= 2 add auxiliary blocks chained by
    ``gammas``.  ``alpha`` scales the variance of the auxiliary
    initialization, ``l_inv`` the stationary noise level.
    """

    order: int
    gammas: tuple[float, ...]
    xi: float
    l_inv: float
    alpha: float = 1.0

    def __post_init__(self):
        if not (1 <= self.order <= MAX_ORDER):
            raise InvalidOrderError(
                f"order must be in [1, {MAX_ORDER}], got {self.order}"
            )
        if len(self.gammas) != self.order - 1:
            raise ValueError(
                f"expected {self.order - 1} coupling constants, got {len(self.gammas)}"
            )
        # Written so that NaN fails: every comparison with it is False.
        if not all(0 < g < math.inf for g in self.gammas):
            raise ValueError("coupling constants must be positive and finite")
        if not 0 < self.xi < math.inf:
            raise ValueError("friction xi must be positive and finite")
        if not 0 < self.l_inv < math.inf:
            raise ValueError("noise scale l_inv must be positive and finite")
        if not 0 < self.alpha < math.inf:
            raise ValueError("auxiliary scale alpha must be positive and finite")

    @property
    def gamma_bar(self) -> float:
        """Product of the coupling constants (1 for an empty chain)."""
        return math.prod(self.gammas)


@dataclass(frozen=True)
class BlockMatrix:
    """An n x n matrix acting blockwise on R^{n*h} via an implicit Kronecker
    product with the h-dimensional identity."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.order, self.order):
            raise ValueError(f"entries must be {self.order}x{self.order}")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class LiftedState:
    """A point in R^{n*h}: position block followed by n-1 auxiliary blocks."""

    order: int
    block_dim: int
    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float).reshape(-1)
        if d.shape != (self.order * self.block_dim,):
            raise ValueError(
                f"data must have length {self.order * self.block_dim}, got {d.shape[0]}"
            )
        object.__setattr__(self, "data", d)


def kron_apply(mat: np.ndarray, data: np.ndarray, block_dim: int) -> np.ndarray:
    """Compute (mat x I_h) @ data blockwise.

    ``data`` may carry leading batch axes; the trailing axis has length
    ``n * block_dim``.  A stack of matrices (..., n, n) broadcasts against
    those axes as in ``np.matmul``: (B, n, n) applies matrix b to row b.
    """
    n = mat.shape[-1]
    blocks = data.reshape(*data.shape[:-1], n, block_dim)
    out = mat @ blocks
    return out.reshape(*out.shape[:-2], n * block_dim)


def _block_apply(mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(mat x I_h) @ cols for (n*h, B) columns; column b is one lifted state.

    An (n, n) matrix or a (1, n, n) stack is one (n, n) @ (n, h*B) GEMM, with
    no copy of C-contiguous columns; OpenBLAS rounds it like ``kron_apply``
    on the rows (one small GEMM per row) at h >= 2, but not at h = 1, where
    that takes the matrix-vector route.  A (B, n, n) stack applies matrix b
    to column b through ``kron_apply``, and equals it bit for bit.
    """
    n = mat.shape[-1]
    if mat.ndim == 2 or len(mat) == 1:
        return (mat @ cols.reshape(n, -1)).reshape(cols.shape)
    return kron_apply(mat, cols.T, len(cols) // n).T


def _require_seed(rng_seed) -> list:
    """``rng_seed`` as a list for ``np.random.default_rng``: an int s gives
    [s], which seeds the same stream as s, and a sequence of ints its list.
    None (OS entropy), a Generator and a BitGenerator (a draw would advance
    it) are refused, so every seeded draw is deterministic given its seed."""
    if isinstance(rng_seed, (int, np.integer)):
        return [rng_seed]
    if isinstance(rng_seed, (list, tuple, np.ndarray)):
        return list(rng_seed)
    raise ValueError(f"rng_seed must be an int or a sequence of ints, not {rng_seed!r}")


def critically_damped_params(
    n: int, l_inv: float = 1.0, alpha: float = 1.0
) -> HoldParams:
    """Coupling constants and friction giving a single geometric eigenvalue.

    gamma_{n-i} = sqrt(2n-3) * sqrt((n^2 - i^2) / (4 i^2 - 1)) with the
    scaling choice gamma_1 = 1, and friction xi = n * sqrt(2n-3).  The
    resulting drift matrix has the n-fold eigenvalue -sqrt(2n-3).
    """
    if n < 2:
        raise InvalidOrderError(
            "critical damping needs order >= 2; order 1 is the plain "
            "Ornstein-Uhlenbeck process"
        )
    if n > MAX_ORDER:
        raise InvalidOrderError(f"order must be <= {MAX_ORDER}, got {n}")
    root = math.sqrt(2 * n - 3)
    gammas = [0.0] * (n - 1)
    for i in range(1, n):
        gammas[n - i - 1] = root * math.sqrt((n * n - i * i) / (4 * i * i - 1))
    # The i = n-1 radical simplifies to 1 exactly; pin it to avoid last-ulp drift.
    gammas[0] = 1.0
    return HoldParams(
        order=n, gammas=tuple(gammas), xi=n * root, l_inv=l_inv, alpha=alpha
    )


def _order_params(
    order: int, xi: float = 1.0, l_inv: float = 1.0, alpha: float = 1.0
) -> HoldParams:
    """Order 1 is the OU process with friction xi; higher orders are
    critically damped, with their own friction."""
    if order == 1:
        return HoldParams(order=1, gammas=(), xi=xi, l_inv=l_inv, alpha=alpha)
    return critically_damped_params(order, l_inv=l_inv, alpha=alpha)


def build_forward_matrix(params: HoldParams) -> BlockMatrix:
    """Drift matrix: skew-symmetric tridiagonal coupling, friction at (n, n)."""
    n = params.order
    f = np.zeros((n, n))
    for i, g in enumerate(params.gammas):
        f[i, i + 1] = g
        f[i + 1, i] = -g
    f[n - 1, n - 1] = -params.xi
    return BlockMatrix(order=n, entries=f)


@lru_cache(maxsize=256)
def _nilpotent_terms(params: HoldParams) -> tuple[float, tuple[np.ndarray, ...]]:
    """Repeated eigenvalue s* and the Taylor terms N^k / k! (k < n) of the
    nilpotent shift N = F - s* I, cached for the hot paths (covariance
    propagation, mixtures, samplers); the arrays are treated as immutable.
    s* = trace(F) / n = -xi / n, the friction being F's one diagonal entry;
    it is ``HoldFilter.pole``."""
    entries, n = build_forward_matrix(params).entries, params.order
    s_star = -params.xi / n
    nilp = entries - s_star * np.eye(n)
    terms = [np.eye(n)]
    for k in range(1, n):
        terms.append(terms[-1] @ nilp / k)
    # terms[-1] is N^{n-1}/(n-1)!; undo the factorial to test ||N^n|| itself.
    residual = np.linalg.norm(terms[-1] @ nilp) * math.factorial(n - 1)
    scale = max(1.0, float(np.linalg.norm(entries)) ** n)
    if residual > 1e-8 * scale:
        raise NotCriticallyDampedError(
            "shifted drift matrix is not nilpotent; the matrix exponential "
            "series is not finite for these parameters"
        )
    return s_star, tuple(terms)


def expm_at(params: HoldParams, t) -> np.ndarray:
    """exp(F t) at block scale for the drift matrix of ``params``.

    Exact up to floating point when F has a single n-fold eigenvalue s*
    (order 1, and critical damping at orders >= 2): then F - s* I is
    nilpotent of index n and

        exp(F t) = exp(s* t) * sum_{k < n} (F - s* I)^k t^k / k!

    ``t`` is a (T,) array, giving (T, n, n), or a scalar, giving the (n, n)
    slice of the same arithmetic; each time is scaled by its own
    ``math.exp``, so a slice does not depend on the other times.

    Raises ``NotCriticallyDampedError`` when the nilpotency residual
    ||(F - s* I)^n|| exceeds 1e-8 * max(1, ||F||^n).
    """
    s_star, terms = _nilpotent_terms(params)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    acc = np.repeat(terms[0][None], len(times), axis=0)
    tk = np.ones_like(times)
    for term in terms[1:]:
        tk = tk * times
        acc += term * tk[:, None, None]
    scale = np.fromiter(map(math.exp, (s_star * times).tolist()), float, len(times))
    out = scale[:, None, None] * acc
    return out if np.ndim(t) else out[0]
