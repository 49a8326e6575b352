"""Dataset generator tests: determinism, geometry, held-out streams."""

import numpy as np
import pytest

from holdlab import (
    CsvFileSpec,
    GaussianMixtureSpec,
    GridSpec,
    RingSpec,
    heldout_points,
    training_points,
)
from holdlab.datasets import _mixture_centers


class TestGaussianMixture:
    def test_deterministic(self):
        spec = GaussianMixtureSpec(k=8, spread=6.0, dim=2)
        a = training_points(spec, 8, seed=1)
        b = training_points(spec, 8, seed=1)
        assert np.array_equal(a, b)
        c = training_points(spec, 8, seed=2)
        assert not np.array_equal(a, c)

    def test_shape(self):
        spec = GaussianMixtureSpec(k=4, spread=3.0, dim=3)
        assert training_points(spec, 10, seed=0).shape == (10, 3)

    def test_separation(self):
        spec = GaussianMixtureSpec(k=8, spread=6.0, dim=2)
        for seed in range(5):
            pts = training_points(spec, 8, seed=seed)
            d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
            np.fill_diagonal(d, np.inf)
            # Centers separated by >= spread; intra-cluster noise is 5%.
            assert d.min() >= 6.0 * 0.7

    def test_heldout_same_mixture_fresh_noise(self):
        spec = GaussianMixtureSpec(k=4, spread=5.0, dim=2)
        train = training_points(spec, 4, seed=3)
        held = heldout_points(spec, 400, seed=3)
        assert held.shape == (400, 2)
        assert not np.array_equal(held[:4], train)
        # Every held-out point lies in some cluster of the training draw.
        d = np.sqrt(((held[:, None] - train[None, :]) ** 2).sum(-1)).min(axis=1)
        assert d.max() <= 5.0 * 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMixtureSpec(k=0, spread=1.0)
        with pytest.raises(ValueError):
            GaussianMixtureSpec(k=2, spread=-1.0)


def rejection_loop(spec, seed):
    """The center draw without the memo: redraw until every pair of
    centers is at least ``spread`` apart (one center: the first draw)."""
    rng = np.random.default_rng([seed, 17])
    while True:
        centers = rng.standard_normal((spec.k, spec.dim)) * spec.spread
        d = np.sqrt(((centers[:, None] - centers[None, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        if spec.k == 1 or d.min() >= spec.spread:
            return centers


class TestCentersMemo:
    @pytest.mark.parametrize("k,dim", [(1, 2), (3, 1), (8, 2), (4, 3)])
    def test_draws_unchanged(self, k, dim):
        spec = GaussianMixtureSpec(k=k, spread=6.0, dim=dim)
        for seed in range(4):
            got = _mixture_centers(spec, seed)
            assert got.tobytes() == rejection_loop(spec, seed).tobytes()
            assert not got.flags.writeable

    def test_second_call_is_a_cache_hit(self):
        spec = GaussianMixtureSpec(k=8, spread=6.0, dim=2)
        _mixture_centers.cache_clear()
        first = training_points(spec, 8, seed=9)
        heldout_points(spec, 256, seed=9)
        assert training_points(spec, 8, seed=9).tobytes() == first.tobytes()
        info = _mixture_centers.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestRing:
    def test_radius_and_noise(self):
        spec = RingSpec(radius=4.0, noise=0.0)
        pts = training_points(spec, 64, seed=5)
        radii = np.sqrt((pts**2).sum(axis=1))
        assert np.abs(radii - 4.0).max() <= 1e-12

    def test_noise_perturbs(self):
        spec = RingSpec(radius=4.0, noise=0.1)
        pts = training_points(spec, 256, seed=5)
        radii = np.sqrt((pts**2).sum(axis=1))
        assert 0.01 <= np.abs(radii - 4.0).max() <= 0.6

    def test_two_dim_only(self):
        with pytest.raises(ValueError):
            RingSpec(radius=1.0, noise=0.0, dim=3)


class TestGrid:
    def test_lattice(self):
        spec = GridSpec(side=3, dim=2)
        pts = training_points(spec, 9, seed=0)
        assert pts.shape == (9, 2)
        assert pts.min() == -1.0 and pts.max() == 1.0
        assert len({tuple(p) for p in pts}) == 9

    def test_cycles_when_oversampled(self):
        spec = GridSpec(side=2, dim=1)
        pts = training_points(spec, 5, seed=0)
        assert pts[:2].tolist() != pts[1:3].tolist()
        assert np.array_equal(pts[0], pts[2])


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pts.csv"
        data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        path.write_text("\n".join(",".join(map(str, r)) for r in data) + "\n")
        spec = CsvFileSpec(path=str(path))
        pts = training_points(spec, 2, seed=0)
        assert np.array_equal(pts, data[:2])
        held = heldout_points(spec, 2, seed=0)
        assert np.array_equal(held, data[2:4])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "pts.csv"
        path.write_text(f"1.0,2.0\n3.0,{bad}\n5.0,6.0\n")
        spec = CsvFileSpec(path=str(path))
        for draw in (training_points, heldout_points):
            with pytest.raises(ValueError, match="non-finite") as err:
                draw(spec, 1, seed=0)
            assert str(path) in str(err.value)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError):
            training_points(CsvFileSpec(path=str(path)), 5, seed=0)
