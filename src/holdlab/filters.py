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
integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HoldParams, LiftedState, build_forward_matrix, expm_at
from .errors import PoleError


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


def natural_response(params: HoldParams, u0: LiftedState, t: float) -> np.ndarray:
    """Position block of exp(Ft) u0, the unforced solution."""
    h = u0.block_dim
    e = expm_at(params, t)
    row = e[0]
    return (row @ u0.data.reshape(params.order, h)).reshape(h)


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
    trapezoidal weights.  Returns the reconstructed positions, shape (T, h).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise ValueError("times must be a 1-D grid with at least two points")
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
        raise ValueError("convolution requires a uniform grid")
    if abs(times[0]) > 1e-12:
        raise ValueError("grid must start at t = 0")
    step = float(dt[0])
    h = u0.block_dim
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim == 1:
        forcing = forcing[:, None]
    if forcing.shape != (times.shape[0], h):
        raise ValueError("forcing must be sampled on the grid with h columns")

    kernel = impulse_response(spec, times)
    nt = times.shape[0]
    conv = np.empty((nt, h))
    for j in range(h):
        full = np.convolve(kernel, forcing[:, j])[:nt]
        # Trapezoid end-point correction: half weight at tau = 0 and tau = t.
        full -= 0.5 * kernel * forcing[0, j]
        full -= 0.5 * kernel[0] * forcing[:, j]
        conv[:, j] = step * full

    natural = np.stack([natural_response(params, u0, float(t)) for t in times])
    return conv + natural


def forced_ode_positions(
    params: HoldParams,
    u0: LiftedState,
    forcing: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Direct integration oracle for the scripted-forcing linear system.

    Solves du = (F u - xi l_inv vec(0, s(t))) dt forward on the grid with
    classical fourth-order Runge-Kutta (forcing linearly interpolated at
    half steps) and returns the positions, shape (T, h).
    """
    times = np.asarray(times, dtype=float)
    forcing = np.asarray(forcing, dtype=float)
    if forcing.ndim == 1:
        forcing = forcing[:, None]
    n, h = params.order, u0.block_dim
    fmat = build_forward_matrix(params).entries
    gain = params.xi * params.l_inv

    def rhs(state, force_val):
        out = (fmat @ state.reshape(n, h)).reshape(n * h)
        out[-h:] -= gain * force_val
        return out

    y = u0.data.copy()
    positions = np.empty((times.shape[0], h))
    positions[0] = y[:h]
    for k in range(times.shape[0] - 1):
        dt = float(times[k + 1] - times[k])
        f0 = forcing[k]
        f1 = forcing[k + 1]
        fm = 0.5 * (f0 + f1)
        k1 = rhs(y, f0)
        k2 = rhs(y + 0.5 * dt * k1, fm)
        k3 = rhs(y + 0.5 * dt * k2, fm)
        k4 = rhs(y + dt * k3, f1)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        positions[k + 1] = y[:h]
    return positions
