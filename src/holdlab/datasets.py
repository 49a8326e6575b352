"""Synthetic point-cloud datasets for desk-scale experiments.

Every generator is a pure function of (spec, seed): the training draw, and
the held-out draw used by the distribution-distance proxy, come from
disjoint substreams of the same seed so they share the underlying mixture
but never share noise.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

_CENTER_STREAM = 17
_TRAIN_STREAM = 29
_HELDOUT_STREAM = 43


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """k well-separated cluster centers at scale ``spread`` with intra-cluster
    noise at spread/20; centers are redrawn until every pair is at least
    ``spread`` apart."""

    k: int
    spread: float
    dim: int = 2

    def __post_init__(self):
        if self.k < 1 or self.dim < 1 or self.spread <= 0:
            raise ValueError("GaussianMixtureSpec needs k >= 1, dim >= 1, spread > 0")


@dataclass(frozen=True)
class RingSpec:
    """Points at uniform random angles on a circle, with isotropic noise."""

    radius: float
    noise: float
    dim: int = 2

    def __post_init__(self):
        if self.dim != 2:
            raise ValueError("RingSpec is two-dimensional")
        if self.radius <= 0 or self.noise < 0:
            raise ValueError("RingSpec needs radius > 0 and noise >= 0")


@dataclass(frozen=True)
class GridSpec:
    """Integer lattice of side^dim points, centered at the origin."""

    side: int
    dim: int = 2

    def __post_init__(self):
        if self.side < 1 or self.dim < 1:
            raise ValueError("GridSpec needs side >= 1 and dim >= 1")


@dataclass(frozen=True)
class CsvFileSpec:
    """Rows of a CSV file (no header) as points."""

    path: str


DatasetSpec = GaussianMixtureSpec | RingSpec | GridSpec | CsvFileSpec


@lru_cache(maxsize=64)
def _mixture_centers(spec: GaussianMixtureSpec, seed: int) -> np.ndarray:
    """The (k, dim) cluster centers, read-only: the rejection loop runs once
    per (spec, seed), not once per training or held-out draw."""
    rng = np.random.default_rng([seed, _CENTER_STREAM])
    while True:
        centers = rng.standard_normal((spec.k, spec.dim)) * spec.spread
        diffs = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)  # k = 1 takes the first draw
        if dists.min() >= spec.spread:
            centers.flags.writeable = False
            return centers


def _draw(spec: DatasetSpec, n: int, seed: int, stream: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream])
    if isinstance(spec, GaussianMixtureSpec):
        centers = _mixture_centers(spec, seed)
        assign = np.arange(n) % spec.k
        noise = rng.standard_normal((n, spec.dim)) * (spec.spread / 20.0)
        return centers[assign] + noise
    if isinstance(spec, RingSpec):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        pts = spec.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return pts + spec.noise * rng.standard_normal((n, 2))
    if isinstance(spec, GridSpec):
        lattice = np.array(
            list(itertools.product(range(spec.side), repeat=spec.dim)), dtype=float
        )
        lattice -= (spec.side - 1) / 2.0
        idx = np.arange(n) % lattice.shape[0]
        return lattice[idx]
    if isinstance(spec, CsvFileSpec):
        rows = _load_csv(spec.path)
        if n > rows.shape[0]:
            raise ValueError(
                f"requested {n} points but {spec.path} has only {rows.shape[0]}"
            )
        return rows[:n]
    raise TypeError(f"unknown dataset spec {spec!r}")


def _load_csv(path: str) -> np.ndarray:
    with Path(path).open(newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path} contains no data rows")
    arr = np.asarray(rows, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{path} contains a non-finite value")
    return arr


def training_points(spec: DatasetSpec, n_train: int, seed: int) -> np.ndarray:
    """The (n_train, dim) training draw for this spec and seed."""
    return _draw(spec, n_train, seed, _TRAIN_STREAM)


def heldout_points(spec: DatasetSpec, n: int, seed: int) -> np.ndarray:
    """A fresh draw from the same generator on a disjoint stream.

    CSV-backed specs return later rows when available, else the leading
    rows again (the file is the whole population).
    """
    if isinstance(spec, CsvFileSpec):
        rows = _load_csv(spec.path)
        if rows.shape[0] >= 2 * n:
            return rows[n : 2 * n]
        return rows[:n] if rows.shape[0] >= n else rows
    return _draw(spec, n, seed, _HELDOUT_STREAM)
