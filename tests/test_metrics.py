"""Memorization-metric tests: Fmem, block Mahalanobis distances, determinant
ratio, W2."""

import math

import numpy as np
import pytest

from holdlab import (
    BlockCovariance,
    LiftedState,
    cholesky_block,
    det_ratio,
    fmem,
    gaussian_w2,
)
from holdlab.cli import main
from holdlab.core import build_forward_matrix, critically_damped_params


def fmem_oracle(gen, train, tau):
    """Exhaustive double-loop reference implementation."""
    memorized = 0
    for g in gen:
        dists = sorted(math.dist(g, x) for x in train)
        d1, d2 = dists[0], dists[1]
        ratio = 0.0 if d1 == 0.0 else d1 / d2
        if ratio < tau:
            memorized += 1
    return memorized / len(gen)


class TestFmem:
    def test_copy_of_training_point_memorized(self):
        train = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        rep = fmem(train[:1].copy(), train)
        assert rep.fraction == 1.0
        assert rep.gap_ratios[0] == 0.0
        assert rep.nn_index[0] == 0

    def test_equidistant_not_memorized(self):
        train = np.array([[-1.0], [1.0]])
        rep = fmem(np.array([[0.0]]), train)
        assert rep.gap_ratios[0] == 1.0
        assert rep.fraction == 0.0

    def test_crafted_ratios(self):
        # Points on a line between train points 0 and 10 with gap ratios
        # r: x = 10 r / (1 + r).
        train = np.array([[0.0], [10.0]])
        ratios = [0.1, 0.2, 0.5, 0.9]
        gen = np.array([[10.0 * r / (1.0 + r)] for r in ratios])
        rep = fmem(gen, train, tau=0.333)
        assert rep.fraction == 0.5
        assert np.allclose(rep.gap_ratios, ratios, atol=1e-12, rtol=0)

    def test_needs_two_training_points(self):
        with pytest.raises(ValueError):
            fmem(np.array([[0.0]]), np.array([[1.0]]))

    def test_repeated_training_points_count_once(self):
        # d1 and d2 are taken over distinct points; nn_index names the
        # first occurrence, as for the training set without repeats.
        distinct = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        train = distinct[[0, 1, 0, 2, 1, 1]]
        gen = np.random.default_rng(4).uniform(-1.0, 5.0, size=(50, 2))
        rep, want = fmem(gen, train), fmem(gen, distinct)
        assert np.array_equal(rep.gap_ratios, want.gap_ratios)
        assert rep.fraction == want.fraction > 0.0
        assert np.array_equal(rep.nn_index, np.array([0, 1, 3])[want.nn_index])

    def test_needs_two_distinct_training_points(self):
        with pytest.raises(ValueError, match="distinct"):
            fmem(np.array([[0.0], [2.0]]), np.array([[1.0], [1.0], [1.0]]))

    def test_ci_formula(self):
        train = np.array([[0.0], [10.0]])
        gen = np.array([[0.1]] * 3 + [[5.0]])
        rep = fmem(gen, train)
        p = 0.75
        half = 1.96 * math.sqrt(p * (1 - p) / 4)
        assert rep.fraction == p
        assert rep.ci_low == pytest.approx(max(0.0, p - half))
        assert rep.ci_high == pytest.approx(min(1.0, p + half))
        assert rep.batch_size == 4

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n_train = int(rng.integers(2, 32))
            n_gen = int(rng.integers(1, 32))
            dim = int(rng.integers(1, 4))
            train = rng.standard_normal((n_train, dim)) * 3
            gen = rng.standard_normal((n_gen, dim)) * 3
            rep = fmem(gen, train)
            assert rep.fraction == fmem_oracle(gen, train, 0.333)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        train = rng.standard_normal((12, 2))
        gen = rng.standard_normal((20, 2))
        base = fmem(gen, train)
        perm = fmem(gen, train[rng.permutation(12)])
        assert base.fraction == perm.fraction
        assert np.array_equal(np.sort(base.gap_ratios), np.sort(perm.gap_ratios))

    def test_isometry_invariance(self):
        rng = np.random.default_rng(10)
        train = rng.standard_normal((10, 2))
        gen = rng.standard_normal((16, 2))
        theta = 0.83
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        shift = np.array([3.0, -7.0])
        base = fmem(gen, train)
        moved = fmem(gen @ rot.T + shift, train @ rot.T + shift)
        assert abs(base.fraction - moved.fraction) == 0.0
        assert np.allclose(base.gap_ratios, moved.gap_ratios, atol=1e-9, rtol=0)

    def test_bounds(self):
        rng = np.random.default_rng(11)
        rep = fmem(rng.standard_normal((50, 2)), rng.standard_normal((5, 2)))
        assert 0.0 <= rep.ci_low <= rep.fraction <= rep.ci_high <= 1.0


def mahalanobis_sq(u: LiftedState, mean: LiftedState, cov: BlockCovariance) -> float:
    """Squared Mahalanobis distance at block scale by a triangular solve
    against the block Cholesky factor."""
    factor, _ = cholesky_block(cov)
    diff = (u.data - mean.data).reshape(cov.order, u.block_dim)
    y = np.linalg.solve(factor, diff)
    return float((y * y).sum())


class TestMahalanobisSq:
    def test_zero_at_mean(self):
        cov = BlockCovariance(order=2, small=np.array([[2.0, 0.3], [0.3, 1.0]]), t=1.0)
        u = LiftedState(2, 2, np.arange(4, dtype=float))
        assert mahalanobis_sq(u, u, cov) == 0.0

    def test_identity_covariance_is_euclidean(self):
        cov = BlockCovariance(order=2, small=np.eye(2), t=1.0)
        u = LiftedState(2, 1, np.array([1.0, 2.0]))
        m = LiftedState(2, 1, np.array([0.0, 0.0]))
        assert mahalanobis_sq(u, m, cov) == pytest.approx(5.0)

    def test_first_order_collapse_limit(self):
        # Training point vs its own time-t component: vanishes as t -> 0 for
        # the first-order process.
        xi, l_inv, t = 1.0, 1.0, 1e-4
        x0 = np.array([3.0, -4.0])
        decay = math.exp(-xi * t)
        var = l_inv * (1.0 - math.exp(-2 * xi * t))
        cov = BlockCovariance(order=1, small=np.array([[var]]), t=t)
        got = mahalanobis_sq(
            LiftedState(1, 2, x0), LiftedState(1, 2, decay * x0), cov
        )
        norm_sq = float(x0 @ x0)
        want = (1.0 - decay) ** 2 * norm_sq / var
        assert got == pytest.approx(want, rel=1e-10)
        assert got <= 1e-4 * norm_sq / (2 * l_inv) * 1.01

    def test_invariance_under_block_transforms(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            trans = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            a = rng.standard_normal((3, 3))
            small = a @ a.T + 0.5 * np.eye(3)
            cov = BlockCovariance(order=3, small=small, t=1.0)
            moved = trans @ small @ trans.T
            cov2 = BlockCovariance(order=3, small=0.5 * (moved + moved.T), t=1.0)
            u = rng.standard_normal(6)
            m = rng.standard_normal(6)
            base = mahalanobis_sq(
                LiftedState(3, 2, u), LiftedState(3, 2, m), cov
            )
            tu = (trans @ u.reshape(3, 2)).reshape(6)
            tm = (trans @ m.reshape(3, 2)).reshape(6)
            got = mahalanobis_sq(
                LiftedState(3, 2, tu), LiftedState(3, 2, tm), cov2
            )
            assert got == pytest.approx(base, rel=1e-9)


class TestDetRatio:
    def test_n2_limit_three_quarters(self):
        assert abs(det_ratio(2, 1e-2) - 0.75) <= 0.02
        gaps = [abs(det_ratio(2, t) - 0.75) for t in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_first_order_scalar_ratio(self):
        for t in (1e-1, 1e-2, 1e-3):
            want = (1.0 - math.exp(-t)) / (1.0 + math.exp(-t))
            assert det_ratio(1, t) == pytest.approx(want, rel=1e-12)
        assert abs(det_ratio(1, 1e-2) - 0.005) <= 1e-4

    def test_first_order_custom_xi(self):
        assert det_ratio(1, 0.5, xi=2.0) == pytest.approx(math.tanh(0.5), rel=1e-12)

    @pytest.mark.parametrize("xi", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_friction_rejected(self, xi):
        for n in (1, 2):
            with pytest.raises(ValueError, match="friction"):
                det_ratio(n, 0.5, xi=xi)

    def test_n3_cubic_divergence_rate(self):
        t = 1e-2
        limit = 135.0 / (24.0 * math.sqrt(3.0))
        assert abs(t**3 * det_ratio(3, t) - limit) <= 0.05 * limit

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_mpmath(self, n):
        # det(I - E)^2 / det(I - E E^T) from an mpmath expm of the same
        # drift matrix, at 80 digits or enough to keep 40 past the
        # cancellation in I - E E^T; relative bound 1e-11 (orders 2-4) and
        # 1e-9 (orders 5-6).
        mpmath = pytest.importorskip("mpmath")
        times = np.geomspace(1e-4, 10.0, 25).tolist()
        got = [det_ratio(n, t) for t in times]
        fmat = build_forward_matrix(critically_damped_params(n)).entries
        bound = 1e-11 if n <= 4 else 1e-9
        for t, value in zip(times, got):
            digits = max(80, 40 + 2 * (2 * n - 1) * math.log10(1.0 / t))
            with mpmath.workdps(int(digits)):
                e = mpmath.expm(mpmath.matrix(fmat.tolist()) * mpmath.mpf(t))
                eye = mpmath.eye(n)
                want = mpmath.det(eye - e) ** 2 / mpmath.det(eye - e * e.T)
            assert abs(value / float(want) - 1.0) <= bound, (t, value, want)

    def test_vector_times_match_scalar_calls(self):
        times = np.geomspace(1e-3, 10.0, 9)
        for n in (1, 3):
            got = det_ratio(n, times)
            assert got.shape == times.shape
            assert got.tolist() == [det_ratio(n, t) for t in times.tolist()]

    def test_overflow_names_order_and_time(self):
        # The order-12 ratio grows like t^{-(n^2 - 2n)} and passes 1e308 at t = 1e-3.
        with pytest.raises(ValueError, match=r"order 12, t=0\.001: .*float range"):
            det_ratio(12, np.array([0.5, 1e-3]))

    def test_floored_factor_names_order_and_time(self):
        # At order 16 the plain Cholesky factor of Sigma_t fails at t = 1e-3.
        with pytest.raises(ValueError, match=r"order 16, t=0\.001: .*floor"):
            det_ratio(16, 1e-3)

    def test_monotone_in_order_at_small_t(self):
        vals = [det_ratio(n, 1e-2) for n in (1, 2, 3, 4)]
        assert vals[0] <= vals[1] <= vals[2] <= vals[3]

    def test_bounded_n2(self):
        for t in np.logspace(-3, 0, 20):
            assert 0.0 < det_ratio(2, float(t)) < 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            det_ratio(2, 0.0)
        with pytest.raises(ValueError):
            det_ratio(2, -1.0)
        with pytest.raises(ValueError):
            det_ratio(0, 0.5)


def collapse_table(tmp_path, orders, t_min, t_max, points):
    """The (n, t, ratio) rows of ``holdlab collapse`` over the log grid."""
    out = tmp_path / "collapse.csv"
    argv = ["collapse", "--orders", ",".join(map(str, orders)), "--t-min",
            str(t_min), "--t-max", str(t_max), "--t-points", str(points),
            "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    return [(int(n), float(t), float(r)) for n, t, r in rows]


class TestCollapseCurve:
    def test_row_count_and_order(self, tmp_path):
        rows = collapse_table(tmp_path, [1, 2, 3, 4], 1e-3, 10.0, 17)
        assert len(rows) == 4 * 17
        assert rows[0][0] == 1 and rows[-1][0] == 4
        # Each order's rows are det_ratio over the grid, to the last bit.
        t_grid = np.logspace(-3, 1, 17)
        assert [r for n, _, r in rows if n == 3] == det_ratio(3, t_grid).tolist()

    def test_figure_shape(self, tmp_path):
        rows = collapse_table(tmp_path, [1, 2, 3], 1e-3, 10.0, 40)
        by_n = {}
        for n, t, v in rows:
            by_n.setdefault(n, []).append(v)
        # First order decays to zero with t; order 2 flattens near 3/4;
        # order 3 grows without bound as t -> 0.
        assert by_n[1][0] < 1e-3
        assert abs(by_n[2][0] - 0.75) <= 0.01
        assert by_n[3][0] > by_n[3][10] > by_n[3][-1]
        assert by_n[3][0] > 1e6

    def test_order3_exceeds_order2_at_small_t(self, tmp_path):
        rows = dict(
            ((n, round(t, 6)), v)
            for n, t, v in collapse_table(tmp_path, [2, 3], 1e-2, 1e-2, 1)
        )
        assert rows[(3, 1e-2)] > rows[(2, 1e-2)]


class TestGaussianW2:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 3))
        assert gaussian_w2(x, x.copy()) <= 1e-10

    def test_one_dim_mean_shift(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(20_000)
        b = rng.standard_normal(20_000) + 3.0
        assert abs(gaussian_w2(a, b) - 9.0) <= 0.3

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((200, 3)) @ np.diag([1.0, 2.0, 0.5])
        b = rng.standard_normal((150, 3)) + 1.0
        assert abs(gaussian_w2(a, b) - gaussian_w2(b, a)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_w2(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_diagonal_fallback(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((200, 5))
        val = gaussian_w2(a, b)
        assert np.isfinite(val) and val >= 0.0
        assert abs(gaussian_w2(a, b) - gaussian_w2(b, a)) <= 1e-10

    def test_known_covariance_case(self):
        # X ~ N(0, 1), Y ~ N(0, 4) in 1-D: W2^2 = (2 - 1)^2 = 1.
        rng = np.random.default_rng(6)
        a = rng.standard_normal(40_000)
        b = 2.0 * rng.standard_normal(40_000)
        assert abs(gaussian_w2(a, b) - 1.0) <= 0.1
