"""Impulse responses, transfer functions, and convolution reconstruction.

The position variable of the reverse-time flow is a linear time-invariant
system driven by the score through the last block: its transfer function is
a single pole of multiplicity n at the repeated eigenvalue s* = -xi/n, so
the score is low-pass filtered with a roll-off that steepens with the order.
One filter class and one formula per quantity cover every order: the
first-order (Ornstein-Uhlenbeck) filter is the n = 1 case, a simple pole at
s* = -xi with gamma_bar = 1.  For a
scripted (state-independent) forcing the position solves

    x(t) = (kernel * forcing)(t) + natural(t),

which this module verifies by discrete convolution against direct ODE
integration.  Both take a uniform ascending grid of T points, stack h finite
forcings as the columns of one lifted state, and cost O(T log T): the
convolution is one real-FFT product over all columns.  The ODE oracle is
classical RK4, which on this linear time-invariant system is one affine map
per step, y <- P y + d_k; the recurrence is evaluated as a doubling scan,
ceil(log2 T) passes with P, P^2, P^4, ... in place of T steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HoldParams, LiftedState, _expm_rows, build_forward_matrix
from .errors import PoleError

# Time points per product of the ODE oracle's scan: bounds its temporary.
_SCAN_BLOCK = 4096


@dataclass(frozen=True)
class HoldFilter:
    """Position-channel filter of an order-n chain (n >= 1).

    The score enters at the last block and reaches the position through the
    chain of couplings: gain gamma_bar xi l_inv and one pole of multiplicity
    n at the drift's repeated eigenvalue.  Build it with ``from_params``.
    """

    order: int
    xi: float
    l_inv: float
    gamma_bar: float

    @classmethod
    def from_params(cls, params: HoldParams) -> "HoldFilter":
        return cls(
            order=params.order,
            xi=params.xi,
            l_inv=params.l_inv,
            gamma_bar=params.gamma_bar,
        )

    @property
    def pole(self) -> float:
        """s* = trace(F)/n = -xi/n: -xi at order 1, -sqrt(2n-3) under
        critical damping."""
        return -self.xi / self.order


def impulse_response(spec: HoldFilter, t):
    """Causal kernel through which the score drives the position.

        -gamma_bar xi l_inv t^{n-1} exp(s* t) / (n-1)!

    Zero for t < 0.  The 1/(n-1)! is the residue factor of the multiplicity-n
    pole; it makes the kernel the exact inverse Laplace transform of
    ``transfer_function`` and the exact (1, n) entry response of the chain.
    """
    t = np.asarray(t, dtype=float)
    n = spec.order
    amp = -spec.gamma_bar * spec.xi * spec.l_inv / math.factorial(n - 1)
    with np.errstate(over="ignore"):
        vals = amp * t ** (n - 1) * np.exp(spec.pole * t)
    out = np.where(t >= 0, vals, 0.0)
    return float(out) if out.ndim == 0 else out


def transfer_function(spec: HoldFilter, s: complex) -> complex:
    """Laplace transform of the kernel: -gamma_bar xi l_inv / (s - s*)^n.

    The denominator is the characteristic polynomial of the drift matrix, a
    single pole of multiplicity n at s*.
    """
    dist = complex(s) - spec.pole
    if dist == 0:
        raise PoleError(f"transfer function has a pole at s = {spec.pole}")
    return -spec.gamma_bar * spec.xi * spec.l_inv / dist**spec.order


def frequency_magnitude(spec: HoldFilter, omega):
    """|H(i omega)| in closed form; monotone non-increasing in |omega|."""
    omega = np.asarray(omega, dtype=float)
    out = (
        spec.gamma_bar
        * spec.xi
        * spec.l_inv
        / (omega**2 + spec.pole**2) ** (spec.order / 2)
    )
    return float(out) if out.ndim == 0 else out


def natural_response(params: HoldParams, u0: LiftedState, t) -> np.ndarray:
    """Position block of exp(Ft) u0, the unforced solution: shape (h,) for
    one time, (T, h) for a (T,) array of times.  Only the first row of
    exp(Ft) is built."""
    e = _expm_rows(params, t, slice(1))
    # One (1, n) @ (n, h) product per time, so that each row has the same
    # bits as a single-time call (a (T, n) @ (n, h) GEMM differs in the last ulp).
    return (e @ u0.data.reshape(params.order, u0.block_dim))[..., 0, :]


def _grid_forcing(
    times: np.ndarray, forcing: np.ndarray, h: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Check a finite forcing sampled on a uniform ascending grid: returns
    the grid, the forcing as (T, h) and the step; ValueError on any other
    grid or on a NaN or infinite forcing value (naming its column)."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise ValueError("times must be a 1-D grid with at least two points")
    dt = np.diff(times)
    step = float(dt[0])
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if not np.allclose(dt, step, rtol=1e-9, atol=1e-12):
        raise ValueError("times must be a uniform grid")
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim == 1:
        forcing = forcing[:, None]
    if forcing.shape != (times.shape[0], h):
        raise ValueError("forcing must be sampled on the grid with h columns")
    bad = ~np.isfinite(forcing)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(
            f"forcing column {col} is not finite at t = {times[row]:g}"
            f" ({forcing[row, col]})"
        )
    return times, forcing, step


def convolution_reconstruct(
    spec: HoldFilter,
    params: HoldParams,
    u0: LiftedState,
    forcing: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Kernel-convolve a scripted forcing and add the natural response.

    ``forcing`` holds the forcing values on ``times``, a uniform ascending
    grid starting at 0; shape (T,) or (T, h).  The causal convolution uses
    trapezoidal weights.  Its sums are one zero-padded real-FFT product of
    length L >= 2T - 1, so no wrap-around reaches the first T outputs, over
    all h columns at once: O(T log T), and each column's bits do not depend
    on the others.  Its rounding is relative to the largest output (about
    1e-15 of it in the tests), where a direct sum rounds each output
    relative to itself.  Returns the reconstructed positions, shape (T, h).
    """
    h = u0.block_dim
    times, forcing, step = _grid_forcing(times, forcing, h)
    if abs(times[0]) > 1e-12:
        raise ValueError("grid must start at t = 0")

    positions = natural_response(params, u0, times)
    kernel = impulse_response(spec, times)
    nt = times.shape[0]
    size = 1 << (2 * nt - 2).bit_length()  # a power of two >= 2T - 1
    spectrum = np.fft.rfft(forcing, size, axis=0)
    spectrum *= np.fft.rfft(kernel, size)[:, None]
    full = np.fft.irfft(spectrum, size, axis=0)[:nt]
    # Trapezoid end-point correction: half weight at tau = 0 and tau = t.
    full -= 0.5 * kernel[:, None] * forcing[0]
    full -= 0.5 * kernel[0] * forcing
    positions += step * full
    return positions


def forced_ode_positions(
    params: HoldParams,
    u0: LiftedState,
    forcing: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Direct integration oracle for the scripted-forcing linear system.

    Solves du = (F u - xi l_inv vec(0, s(t))) dt forward on ``times``, a
    uniform ascending grid, with classical fourth-order Runge-Kutta (forcing
    linearly interpolated at half steps) and returns the positions, shape
    (T, h).  One RK4 step is the affine map

        y <- P y + g0 f_k + gm f_{k+1/2} + g1 f_{k+1} = P y + d_k

    on the (n, h) block; P and the gains come from one step of the
    four-stage formula applied to I_n and to unit forcings.  The recurrence
    is a doubling (Hillis-Steele) scan over acc = [y_0, d_0, ..., d_{T-2}]:
    the pass with shift s adds P^s acc[k - s] to every acc[k], k >= s, so
    after ceil(log2 T) passes acc[k] is y_k.  A pass is a few (n, n) @
    (n, _SCAN_BLOCK h) products.  It agrees with the step-by-step loop to
    rounding.
    """
    n, h = params.order, u0.block_dim
    times, forcing, step = _grid_forcing(times, forcing, h)
    fmat = build_forward_matrix(params).entries
    gain = params.xi * params.l_inv

    def rhs(state, force_val):
        out = fmat @ state
        out[-1] -= gain * force_val
        return out

    # Columns [I_n | 0 0 0] driven by the unit forcings of (f_k, f_{k+1/2},
    # f_{k+1}) step to [P | g0 | gm | g1].
    y = np.eye(n, n + 3)
    f0, fm, f1 = np.eye(3, n + 3, k=n)
    k1 = rhs(y, f0)
    k2 = rhs(y + 0.5 * step * k1, fm)
    k3 = rhs(y + 0.5 * step * k2, fm)
    k4 = rhs(y + step * k3, f1)
    step_map = y + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    prop = step_map[:, :n]
    g0, gm, g1 = step_map[:, n:].T[..., None]  # (n, 1) columns

    nt = times.shape[0]
    half = 0.5 * (forcing[:-1] + forcing[1:])
    acc = np.empty((n, nt, h))
    acc[:, 0] = u0.data.reshape(n, h)
    for row, a, b, c in zip(acc[:, 1:], g0, gm, g1):  # (T-1, h) temps
        np.multiply(a, forcing[:-1], out=row)
        row += b * half
        row += c * forcing[1:]
    shift = 1
    while shift < nt:
        # From the last time down in blocks, so that each block reads only
        # entries this pass has not yet updated, and its product is small.
        for hi in range(nt, shift, -_SCAN_BLOCK):
            lo = max(shift, hi - _SCAN_BLOCK)
            src = acc[:, lo - shift : hi - shift].reshape(n, -1)
            acc[:, lo:hi] += (prop @ src).reshape(n, -1, h)
        prop = prop @ prop
        shift *= 2
    return acc[0].copy()  # not a view that would keep all n rows alive
