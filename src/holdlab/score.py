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
A log-weight at or below -708.4 is set to weight 0 without calling exp:
exp of such a value is subnormal or 0, and numpy computes it by a path
about 130 times slower than the normal one.  Near collapse many entries
land there; a dropped weight is below 2.3e-308 next to the column maximum's
1, so it moves neither the sum of the weights nor the weighted sum of the
centers.
One kernel serves every order: at order 1 (the Ornstein-Uhlenbeck process)
the mixture covariance is the scalar l_inv (1 - exp(-2 xi t)) and the same
code gives the first-order empirical score.

The policy is decided once, by the mixture builder.  A mixture holds
n x n whitening matrices W with W^T W = (L L^T)^{-1} and their whitened
centers, which cover the first r of the n*h whitened coordinates and are
0 beyond them; the kernel compares the first r rows of y = (W x I_h) u
with the centers, and the rows beyond them enter only log p.  Mixtures
take W = L^{-1} and r = n*h, except under the marginalized policy at
order n >= 2: there every lifted center is e_0 x x_k, every whitened
center lies on one axis a = L^{-1} exp(Ft) e_0, and W = Q L^{-1} with the
Householder reflection Q that maps a onto e_0, so r = h and the distances
are measured in the h data dimensions.

Every mixture carries a leading time axis of length G: G = 1 for one time
shared by the batch (the samplers), G = B for one time per row of a
(B, n*h) batch (``mc_loss``).  The kernel works component-major.  The
batch is whitened into (n*h, B) columns by ``core._block_apply`` (at G = 1
one (n, n) @ (n, h*B) GEMM, with no copy when the batch is the transpose of
C-contiguous columns, as the sampler passes it); the squared distances to
the N whitened centers accumulate into an (N, B) array one coordinate row
at a time, and the log-weights are reduced over the component axis 0.  At
G = 1 a row's (N, B) differences are one rank-2 GEMM against centers held
next to a row of ones, equal to the subtraction bit for bit; at G = B they
are a broadcast subtraction.  The weights e_k = exp(lw_k) stay
unnormalized: sum_k e_k c~_k, one (r, N) @ (N, B/G) product per time, is
divided by sum_k e_k (at G = 1 the ones row of the same product), and the
(r, B) mean is subtracted from the first r rows of y and mapped back
through W^T by the same block product.  Unreflected centers are built as
(n*h, N) columns and held as their (N, n*h) transposes.  Results keep the
row-major shapes: (B, n*h) scores, (B, N) responsibilities.

The n x n pieces of a mixture come from a ``forward.schedule``;
``empirical_score_fn`` takes the schedule of a whole time grid, so a
sampler factors its grid, and builds the whitening W of every grid time,
once.  Score callbacks are ``score_fn(u, t)`` -> (B, h) last-block scores
for u of shape (B, n*h), with t a float (the samplers) or a (B,) array
(``mc_loss``); a single (n*h,) point gives (h,).  Points are plain arrays
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import HoldParams, T_EPS, _block_apply, _require_seed
from .forward import (
    AuxPolicy,
    BlockCovariance,
    Marginalized,
    Schedule,
    lift_data,
    sample_forward,
    schedule,
)

# Samples per batched step of mc_loss.  Peak memory sets the value: it bounds
# the (B, N, n*h) whitened centers built per step.  Larger blocks run faster,
# but one 2000-sample block raised the analysis benchmark's peak RSS from
# 40.6 to 44.1 MB, over that metric's 5 % bound.
_MC_BLOCK = 256

# exp(x) is subnormal or 0 for every x below ln(tiny) = -708.396 (tiny the
# smallest normal float), and numpy's exp reaches such results by a path
# about 130 times slower than a normal one; at or below this bound a weight
# is 0 without exp.
_EXP_ZERO = -708.4


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
    """Equal-weight Gaussian mixture: N centers sharing one block covariance
    Sigma = L L^T (Sigma_t + delta I of the schedule), held whitened.

    ``whiten`` holds (G, n, n) matrices W with W^T W = Sigma^{-1}, one per
    time, and ``white_centers`` the (G, N, r) first r coordinates of the
    whitened centers (W x I_h) c_k, which are 0 beyond them.  W = L^{-1}
    and r = n*h, except for a marginalized mixture of order >= 2, where W
    also reflects the axis of the centers onto e_0 and r = h (see
    ``_mixtures``)."""

    order: int
    block_dim: int
    whiten: np.ndarray
    white_centers: np.ndarray

    def __post_init__(self):
        # At one shared time the centers are the first r rows of an
        # (r + 1, N) array whose last row is ones, and white_centers is a
        # (1, N, r) view of them.  Rows i and r are the left factor of row
        # i's difference GEMM (``_row_differences``); all r + 1 rows give
        # the weighted sum of the centers and the sum of the weights in one
        # GEMM (``score_full``).
        rows = None
        if len(self.white_centers) == 1:
            white = self.white_centers[0]
            rows = np.ones((white.shape[1] + 1, white.shape[0]))
            rows[:-1] = white.T
            object.__setattr__(self, "white_centers", rows[:-1].T[None])
        object.__setattr__(self, "_rows", rows)

    @property
    def n_components(self) -> int:
        return self.white_centers.shape[-2]


def mixture_at(
    dataset: Dataset,
    params: HoldParams,
    sigma0: BlockCovariance,
    policy: AuxPolicy,
    t,
) -> EmpiricalMixture:
    """Time-t empirical mixture: centers exp(Ft) u0^(k), covariance Sigma_t;
    G = 1 at a float t, G = B at a (B,) array of times."""
    sched = schedule(params, sigma0, np.atleast_1d(t))
    return _mixtures(dataset, params, policy, sched)(slice(None))


def _mixtures(dataset: Dataset, params: HoldParams, policy: AuxPolicy, sched: Schedule):
    """``at(k)``: the mixture at the G times ``sched.times[k]`` of a slice k.

    The whitening of every time of the schedule is built here, by one
    stacked call.  Under the marginalized policy at order n >= 2 every
    lifted center is e_0 x x_k, so every whitened center lies on the axis
    a = L^{-1} exp(Ft) e_0.  The Householder reflection
    Q = I - 2 v v^T / v^T v with v = a + s|a| e_0 (s = sign a_0, no
    cancellation) maps a to -s|a| e_0, so under W = Q L^{-1} the whitened
    centers are -s|a| x_k in the first h coordinates and 0 in the rest, and
    ``at`` takes a slice of W and scales the points.  Other mixtures take
    W = L^{-1} and build their (G, N, n*h) centers in ``at``: no table of
    centers over the schedule is held.
    """
    if dataset.n_train == 0:
        raise ValueError("dataset is empty")
    n, h, inv, expm = params.order, dataset.h, sched.chol_inv, sched.expm
    if isinstance(policy, Marginalized) and n > 1:
        a = inv @ expm[..., :1]
        norm = np.sqrt((a * a).sum(axis=-2, keepdims=True))
        s = np.where(a[..., :1, :] < 0.0, -1.0, 1.0)
        v = a + s * norm * np.eye(n, 1)
        vt = v.swapaxes(-1, -2)
        whiten = (np.eye(n) - 2.0 / (vt @ v) * (v @ vt)) @ inv
        scale = -s * norm

        def at(k: slice) -> EmpiricalMixture:
            white = scale[k] * dataset.points
            return EmpiricalMixture(n, h, whiten=whiten[k], white_centers=white)

    else:
        lifted = dataset.lifted(params, policy)

        def at(k: slice) -> EmpiricalMixture:
            cols = inv[k] @ (expm[k] @ lifted.T.reshape(n, -1))
            white = cols.reshape(len(cols), *lifted.T.shape).swapaxes(-1, -2)
            return EmpiricalMixture(n, h, whiten=inv[k], white_centers=white)

    return at


def _as_batch(mix: EmpiricalMixture, u) -> tuple[np.ndarray, bool]:
    """A (B, n*h) batch, or one (n*h,) point as a batch of one; a mixture
    at G > 1 times takes G rows."""
    arr = np.asarray(u, dtype=float)
    if arr.shape[-1:] != (mix.order * mix.block_dim,):
        raise ValueError("state shape does not match mixture")
    single, times = arr.ndim == 1, len(mix.whiten)
    batch = arr[None] if single else arr
    if times not in (1, len(batch)):
        raise ValueError(f"mixture at {times} times does not match {len(batch)} rows")
    return batch, single


def _row_differences(mix: EmpiricalMixture, y: np.ndarray):
    """For each coordinate row i the centers cover, the (N, B) differences
    between row i of the whitened batch y and the centers, up to sign,
    written into one buffer that each step reuses.

    At one shared time row i's block is one rank-2 GEMM,
    [c~_i | 1] (N, 2) @ [1; -y_i] (2, B).  Each entry c~_ik * 1 + 1 * -y_ib
    sums two exact products, so BLAS rounds it once, with or without FMA,
    and the block is -(y_i - c~_i) bit for bit.  A mixture at G = B times
    subtracts its (r, N, G) transposed centers row by row.
    """
    rows, white = mix._rows, mix.white_centers
    diff = np.empty((white.shape[-2], y.shape[1]))
    if rows is None:
        for y_row, c_row in zip(y, white.T):
            np.subtract(y_row, c_row, out=diff)
            yield diff
        return
    r = len(rows) - 1
    right = np.empty((r, 2, y.shape[1]))
    right[:, 0] = 1.0
    np.negative(y[:r], out=right[:, 1])
    for i, pair in enumerate(right):
        # rows[i :: r - i] holds exactly rows i and r: a strided view.
        np.matmul(rows[i :: r - i].T, pair, out=diff)
        yield diff


def _log_weights(mix: EmpiricalMixture, u):
    """(y, lw, m, single): the whitened batch as (n*h, B) columns, and the
    (N, B) log-weights less their column maxima m.

    lw[k, b] = -|y_b - c~_k|^2 / 2 - m_b over the whitened centers c~_k,
    summed one coordinate row at a time over the rows the centers cover
    (``_row_differences``).  lw + m leaves out -|rest|^2 / 2 of the rows
    beyond them, which every component shares.
    """
    batch, single = _as_batch(mix, u)
    y = _block_apply(mix.whiten, batch.T)
    diffs = _row_differences(mix, y)
    lw = np.square(next(diffs))
    for diff in diffs:
        diff *= diff
        lw += diff
    lw *= -0.5
    m = lw.max(axis=0)
    lw -= m
    return y, lw, m, single


def _exp_weights(lw: np.ndarray) -> np.ndarray:
    """Unnormalized weights exp(lw).

    exp runs only where lw is above _EXP_ZERO, or NaN; the other entries,
    whose exp is below the smallest normal float, are 0.  Each column of
    ``_log_weights`` holds its maximum as lw = 0, so its sum is at least 1
    and a dropped subnormal term cannot move it, nor any weighted sum of
    normal-sized terms.  The test reads not (lw <= _EXP_ZERO), so a NaN
    log-weight gives a NaN weight and spoils its column's sums quietly,
    where lw > _EXP_ZERO would drop it as 0.
    """
    e = np.zeros(lw.shape)
    np.exp(lw, out=e, where=~(lw <= _EXP_ZERO))
    return e


def _weights(lw: np.ndarray) -> np.ndarray:
    """Normalized exp(lw) over axis 0; every weight above _EXP_ZERO equals
    plain exp normalisation bit for bit (see ``_exp_weights``)."""
    w = _exp_weights(lw)
    w /= w.sum(axis=0)
    return w


def responsibilities(mix: EmpiricalMixture, u) -> np.ndarray:
    """Posterior component weights at u; rows sum to 1."""
    _, lw, _, single = _log_weights(mix, u)
    w = _weights(lw).T
    return w[0] if single else w


def log_density_shifted(mix: EmpiricalMixture, u) -> np.ndarray | float:
    """log p up to a u-independent constant (normalizer and 1/N dropped)."""
    y, lw, m, single = _log_weights(mix, u)
    rest = y[mix.white_centers.shape[-1] :]
    out = m + np.log(np.exp(lw).sum(axis=0)) - 0.5 * (rest * rest).sum(axis=0)
    return float(out[0]) if single else out


def score_full(mix: EmpiricalMixture, u) -> np.ndarray:
    """Gradient of the mixture log-density at u.

    Equals Sigma_t^{-1} (sum_k w_k c_k - u) with responsibilities w, taken
    as -(W^T x I_h)(y - sum_k w_k c~_k) from the whitened point y and
    whitened centers c~_k.  The weights stay unnormalized, e_k = exp(lw_k),
    and only the (r, B) mean is divided by sum_k e_k: at one shared time
    the (r + 1, N) centers-and-ones rows give sum_k e_k c~_k and sum_k e_k
    in one GEMM; at G = B times one (r, N) @ (N, 1) product per time gives
    the numerators and ones(N) @ e the sums.  The mean is subtracted in
    place from the rows the centers cover, and negating W^T keeps the bits
    of W^T (mean - y).
    """
    y, lw, _, single = _log_weights(mix, u)
    e = _exp_weights(lw)
    white = mix.white_centers
    times, n_comp, r = white.shape
    if mix._rows is None:
        mean = white.swapaxes(-1, -2) @ e.reshape(n_comp, times, -1).swapaxes(0, 1)
        mean = mean.swapaxes(0, 1).reshape(r, -1)
        mean /= np.ones(n_comp) @ e
    else:
        sums = mix._rows @ e
        mean = sums[:r]
        mean /= sums[r]
    y[:r] -= mean
    out = _block_apply(-mix.whiten.swapaxes(-1, -2), y).T
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
    ``float(times[k])``) takes its mixture from the schedule's whitening,
    built once for the whole grid here; any other time builds its own with
    ``mixture_at``.  The mixture of the last float time is kept: a Heun
    step starts where the previous one ended, so each grid time is built
    once.
    """
    times, grid = [], None
    if schedule is not None:
        times = schedule.times.tolist()
        grid = _mixtures(dataset, params, policy, schedule)
    index = {t: k for k, t in enumerate(times)}
    last_t, last_mix = None, None

    def fn(u, t):
        nonlocal last_t, last_mix
        if getattr(t, "ndim", 0):
            return score_last_block(mixture_at(dataset, params, sigma0, policy, t), u)
        if t != last_t:
            k = index.get(t)
            if k is None:
                last_mix = mixture_at(dataset, params, sigma0, policy, t)
            else:
                last_mix = grid(slice(k, k + 1))
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
    vector (three vectorized draws: all times, all indices, all noise);
    w_t is the bottom-right entry of the block Cholesky factor.  Seeds are
    ints and sequences of ints (None, Generator and BitGenerator are
    refused), so the loss is deterministic given ``rng_seed`` and different
    score functions compare on matched noise.  ``score_fn`` gets blocks of
    samples with their (B,) times; an (h,) return is broadcast over it.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    n, h = params.order, dataset.h
    lifted = dataset.lifted(params, policy)
    rng = np.random.default_rng(_require_seed(rng_seed))
    times = rng.uniform(T_EPS, 1.0, n_mc)
    picks = rng.integers(dataset.n_train, size=n_mc)
    noise = rng.standard_normal((n_mc, n * h))
    total = 0.0
    for lo in range(0, n_mc, _MC_BLOCK):
        block = slice(lo, lo + _MC_BLOCK)
        t, eps = times[block], noise[block]
        sched = schedule(params, sigma0, t)
        cols = sample_forward(sched, lifted[picks[block]].T, eps.T)
        s = np.broadcast_to(np.asarray(score_fn(cols.T, t), dtype=float), (len(t), h))
        resid = eps[:, -h:] + s * sched.chol[:, -1:, -1]
        total += float(np.einsum("bj,bj->", resid, resid))
    return total / n_mc
