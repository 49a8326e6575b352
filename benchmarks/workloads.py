"""The three benchmark workloads and the output checks run after each pass.

Every workload is driven through the in-process CLI (``holdlab.cli.main``)
and the public API, from one process with one closed-loop caller: passes
run back to back and every pass repeats the same inputs, so each pass's
outputs must equal the first pass's byte for byte.

Sizes are scaled from the reference shapes (default sweep: 512 runs x 1000
steps; wide generation: 128 runs; theorem1-check: 10000 steps) so one pass
takes a few seconds.  What each workload stresses is unchanged; see
NOTES.md for the reasons and the layer -> end-to-end map.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from holdlab import cli
from holdlab.config import load_config
from holdlab.core import T_EPS, HoldParams, LiftedState, critically_damped_params
from holdlab.datasets import GaussianMixtureSpec, heldout_points, training_points
from holdlab.filters import HoldFilter, convolution_reconstruct
from holdlab.forward import (
    FixedPerSample,
    cholesky_block,
    covariance_at,
    initial_covariance,
)
from holdlab.metrics import det_ratio, fmem, gaussian_w2
from holdlab.sampler import TimeGrid, pf_ode_endpoints
from holdlab.score import Dataset, empirical_score_fn, mc_loss

# Config overrides of the two generation workloads; the CLI flags are
# derived from them, so the benchmark's config is the one the CLI builds.
SWEEP_OVERRIDES = {"grid.steps": 250}
WIDE_OVERRIDES = {
    "orders": [3, 4],
    "n_train": [256],
    "aux_policy": "marginalized",
    "grid.spacing": "quadratic",
    "grid.t_end": 1e-3,
    "grid.steps": 200,
    "runs": 24,
}
FLAGS = {
    "orders": "--orders",
    "n_train": "--n-train",
    "aux_policy": "--aux-policy",
    "grid.spacing": "--spacing",
    "grid.t_end": "--t-end",
    "grid.steps": "--steps",
    "runs": "--runs",
    "seed": "--seed",
}

THEOREM_STEPS = 1000
ANALYSIS_ORDERS = (2, 3, 4)
ANALYSIS_N_TRAIN = 8
ANALYSIS_N_MC = 2000
ANALYSIS_TIMES = (T_EPS, 1e-2, 1.0)
PERTURBATION_NORM = 0.1
THEOREM_TOL = 1e-3


def _fmt(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def order_params(order: int, config) -> HoldParams:
    """Parameters the CLI uses for one order of an experiment config."""
    if order == 1:
        return HoldParams(order=1, gammas=(), xi=config.ou_xi,
                          l_inv=config.l_inv, alpha=config.alpha)
    return critically_damped_params(order, l_inv=config.l_inv, alpha=config.alpha)


class ScoreCase:
    """One (order, mixture) whose last-block score is checked against the
    oracle at ``times``."""

    def __init__(self, params, policy, train: np.ndarray, times):
        self.params = params
        self.sigma0 = initial_covariance(params, policy)
        dataset = Dataset(train)
        self.lifted = dataset.lifted(params, policy)
        self.h = dataset.h
        self.times = [float(t) for t in times]
        self.score_fn = empirical_score_fn(dataset, params, self.sigma0, policy)


class EndpointRecorder:
    """Keeps the results of the CLI's calls to ``pf_ode_endpoints``, keyed by
    the run-stream prefix (seed, order, n_train, policy index)."""

    def __init__(self):
        self.calls: dict[tuple, tuple] = {}
        self._original = None

    def install(self) -> None:
        self._original = inner = cli.pf_ode_endpoints

        def recorded(*args, **kwargs):
            result = inner(*args, **kwargs)
            positions, ok, _ = result
            self.calls[tuple(kwargs["rng_seed"])] = (positions.copy(), ok.copy())
            return result

        cli.pf_ode_endpoints = recorded

    def uninstall(self) -> None:
        cli.pf_ode_endpoints = self._original

    def take(self) -> dict[tuple, tuple]:
        calls, self.calls = self.calls, {}
        return calls


class Workload:
    """Shared pass bookkeeping; subclasses define the CLI work and checks."""

    name = ""
    files: tuple[str, ...] = ()
    # Oracle probes per (order, t): most at the smallest time, where the
    # closed forms lose digits first and the median needs the most samples.
    floor_probes = 1024
    probes = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.recorder = EndpointRecorder()

    def setup(self) -> None:
        """Config, dataset and first-call warm-up (timed as set-up)."""
        raise NotImplementedError

    def run_pass(self, out_dir: Path) -> dict:
        raise NotImplementedError

    def snapshot(self, out_dir: Path, result: dict) -> dict:
        """Everything a pass produced that must repeat exactly."""
        snap = {name: (out_dir / name).read_bytes() for name in self.files
                if (out_dir / name).exists()}
        for key, (positions, ok) in sorted(result.get("endpoints", {}).items()):
            snap[f"endpoints{key}"] = positions.tobytes() + ok.tobytes()
        for order, loss in result.get("losses", {}).items():
            snap[f"mc_loss_{order}"] = repr(loss).encode()
        return snap

    def attempted(self, out_dir: Path, result: dict) -> int:
        raise NotImplementedError

    def divergences(self, out_dir: Path) -> list[dict]:
        return []

    def check(self, out_dir: Path, result: dict) -> list[str]:
        raise NotImplementedError

    def score_cases(self) -> list[ScoreCase]:
        raise NotImplementedError

    def census_times(self, case: ScoreCase) -> list[float]:
        return case.times

    def floor_census(self, cases: list[ScoreCase]) -> list[dict]:
        """Cholesky floors the float factor applies at the workload's times."""
        events = []
        for case in cases:
            for t in self.census_times(case):
                _, delta = cholesky_block(covariance_at(case.params, case.sigma0, t))
                if delta > 0:
                    events.append({"order": case.params.order, "t": t, "floor": delta})
        return events


class _Generation(Workload):
    """Common ground of the two sampler workloads."""

    command = ""
    overrides: dict = {}

    def _overrides(self) -> dict:
        return {**self.overrides, "seed": self.seed}

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.command]
        for key, value in self._overrides().items():
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [FLAGS[key], text]
        return argv + ["--out-dir", str(out_dir)]

    def setup(self) -> None:
        self.config = load_config(None, self._overrides())
        n_train = self.config.n_train[0]
        self.train = training_points(self.config.dataset, n_train, self.seed)
        self.grid = self.config.grid
        # First-call warm-up: one two-step generation per order.
        policy = self.config.policies()[0][1]
        for order in self.config.orders:
            case = ScoreCase(order_params(order, self.config), policy, self.train, ())
            pf_ode_endpoints(case.params, case.score_fn, TimeGrid(steps=2),
                             rng_seed=[self.seed], h=case.h, runs=2)

    def run_pass(self, out_dir: Path) -> dict:
        rc = cli.main(self.argv(out_dir))
        return {"rc": rc, "endpoints": self.recorder.take()}

    def attempted(self, out_dir: Path, result: dict) -> int:
        c = self.config
        return len(c.orders) * len(c.n_train) * len(c.policies()) * c.runs

    def divergences(self, out_dir: Path) -> list[dict]:
        header, rows = _read_csv(out_dir / "failures.csv")
        times = self.grid.times()
        col = {name: i for i, name in enumerate(header)}
        return [{"order": int(r[col["order"]]), "run": int(r[col["run"]]),
                 "t": float(times[int(r[col["step"]]) + 1])} for r in rows]

    def _common_checks(self, result: dict) -> list[str]:
        errors = []
        if result["rc"] != 0:
            errors.append(f"{self.command} exited {result['rc']}")
        for key, (positions, ok) in result["endpoints"].items():
            if not np.isfinite(positions[ok]).all():
                errors.append(f"non-finite endpoints for stream {key}")
        return errors

    def score_cases(self) -> list[ScoreCase]:
        times = self.grid.times()
        probe_times = (times[0], times[-1])
        policy = self.config.policies()[0][1]
        return [ScoreCase(order_params(order, self.config), policy, self.train, probe_times)
                for order in self.config.orders]

    def census_times(self, case: ScoreCase) -> list[float]:
        return [float(t) for t in self.grid.times()]


class SweepDefault(_Generation):
    name = "sweep_default"
    command = "fmem-sweep"
    files = ("sweep.csv", "failures.csv", "resolved_config.json")
    overrides = SWEEP_OVERRIDES

    def check(self, out_dir: Path, result: dict) -> list[str]:
        errors = self._common_checks(result)
        if errors:
            return errors
        header, rows = _read_csv(out_dir / "sweep.csv")
        col = {name: i for i, name in enumerate(header)}
        policy_names = [name for name, _ in self.config.policies()]
        seen = 0
        for (_, order, n_train, policy_idx), (positions, ok) in result["endpoints"].items():
            path = out_dir / f"endpoints_{order}_{n_train}_{policy_idx}.csv"
            path.write_text("".join(",".join(_fmt(float(v)) for v in row) + "\n"
                                    for row in positions[ok]), encoding="utf-8")
            kept = np.loadtxt(path, delimiter=",", ndmin=2)
            train = training_points(self.config.dataset, n_train, self.seed)
            report = fmem(kept, train, tau=self.config.tau)
            held = heldout_points(self.config.dataset, max(n_train, 256), self.seed)
            want = [_fmt(report.fraction), _fmt(report.ci_low), _fmt(report.ci_high),
                    _fmt(gaussian_w2(kept, held))]
            match = [r for r in rows if r[col["order"]] == str(order)
                     and r[col["n_train"]] == str(n_train)
                     and r[col["policy"]] == policy_names[policy_idx]]
            got = [match[0][col[c]] for c in ("fmem", "ci_low", "ci_high", "w2")] if match else None
            if got != want:
                errors.append(f"order {order}: sweep.csv has {got}, endpoints give {want}")
            seen += 1
        if seen != len(rows):
            errors.append(f"{seen} generation calls for {len(rows)} sweep rows")
        return errors


class GenerateWide(_Generation):
    name = "generate_wide"
    command = "generate"
    files = ("endpoints_3.csv", "endpoints_4.csv", "failures.csv", "resolved_config.json")
    overrides = WIDE_OVERRIDES
    floor_probes = probes = 16  # each probe touches many of the 256 components

    def check(self, out_dir: Path, result: dict) -> list[str]:
        errors = self._common_checks(result)
        if errors:
            return errors
        for (_, order, _, _), (positions, ok) in result["endpoints"].items():
            _, rows = _read_csv(out_dir / f"endpoints_{order}.csv")
            written = np.array([[float(v) for v in r[1:]] for r in rows]).reshape(-1, positions.shape[1])
            runs = [int(r[0]) for r in rows]
            if runs != list(np.nonzero(ok)[0]) or not np.array_equal(written, positions[ok]):
                errors.append(f"endpoints_{order}.csv differs from the generated endpoints")
        return errors


class Analysis(Workload):
    name = "analysis"
    files = ("theorem1.csv", "collapse.csv")

    def setup(self) -> None:
        spec = GaussianMixtureSpec(k=8, spread=6.0, dim=2)
        self.train = training_points(spec, ANALYSIS_N_TRAIN, self.seed)
        self.dataset = Dataset(self.train)
        self.policy = FixedPerSample(seed=self.seed)
        self.cases = {}
        for order in ANALYSIS_ORDERS:
            params = critically_damped_params(order)
            self.cases[order] = ScoreCase(params, self.policy, self.train, ANALYSIS_TIMES)
        # First-call warm-up of each stage at a tiny size.
        for order, case in self.cases.items():
            mc_loss(case.score_fn, self.dataset, case.params, case.sigma0, self.policy,
                    4, rng_seed=[self.seed, order])
            det_ratio(order, 0.01)
        params = critically_damped_params(3)
        times = np.linspace(0.0, 1.0, 17)
        convolution_reconstruct(HoldFilter.from_params(params), params,
                                LiftedState(3, 1, np.ones(3)), np.sin(times), times)
        self.perturbed = None

    def _loss(self, order: int, score_fn) -> float:
        case = self.cases[order]
        return mc_loss(score_fn, self.dataset, case.params, case.sigma0, self.policy,
                       ANALYSIS_N_MC, rng_seed=[self.seed, order])

    def run_pass(self, out_dir: Path) -> dict:
        out_dir.mkdir(parents=True, exist_ok=True)
        rc_theorem = cli.main(["theorem1-check", "--steps", str(THEOREM_STEPS),
                               "--out", str(out_dir / "theorem1.csv")])
        rc_collapse = cli.main(["collapse", "--out", str(out_dir / "collapse.csv")])
        losses = {order: self._loss(order, case.score_fn) for order, case in self.cases.items()}
        return {"rc_theorem": rc_theorem, "rc_collapse": rc_collapse, "losses": losses}

    def attempted(self, out_dir: Path, result: dict) -> int:
        return sum(len(_read_csv(out_dir / name)[1]) for name in self.files) + len(self.cases)

    def _perturbed_losses(self) -> dict[int, float]:
        """Loss of the exact score plus a fixed 0.1-norm shift, on the same
        Monte Carlo noise (computed once per run)."""
        if self.perturbed is None:
            self.perturbed = {}
            for order, case in self.cases.items():
                shift = np.random.default_rng([self.seed, order, 1]).standard_normal(case.h)
                shift *= PERTURBATION_NORM / np.linalg.norm(shift)
                exact = case.score_fn
                self.perturbed[order] = self._loss(
                    order, lambda u, t, exact=exact, shift=shift: exact(u, t) + shift)
        return self.perturbed

    def check(self, out_dir: Path, result: dict) -> list[str]:
        errors = []
        if result["rc_theorem"] != 0:
            errors.append(f"theorem1-check exited {result['rc_theorem']}")
        else:
            _, rows = _read_csv(out_dir / "theorem1.csv")
            worst = max(float(r[2]) for r in rows)
            if not worst <= THEOREM_TOL:
                errors.append(f"theorem1 worst error {worst}")
        if result["rc_collapse"] != 0:
            errors.append(f"collapse exited {result['rc_collapse']}")
        else:
            errors += self._check_collapse(out_dir / "collapse.csv")
        perturbed = self._perturbed_losses()
        for order, loss in result["losses"].items():
            if not (math.isfinite(loss) and loss < perturbed[order]):
                errors.append(f"order {order}: exact-score loss {loss} does not beat "
                              f"perturbed loss {perturbed[order]}")
        return errors

    @staticmethod
    def _check_collapse(path: Path) -> list[str]:
        _, rows = _read_csv(path)
        table = np.array([[float(v) for v in r] for r in rows])
        errors = []
        if not (np.isfinite(table).all() and (table[:, 2] > 0).all()):
            errors.append("collapse rows are not finite and positive")
        first = table[table[:, 0] == 1]
        want = np.tanh(first[:, 1] / 2.0)
        if not np.allclose(first[:, 2], want, rtol=1e-12, atol=0.0):
            errors.append("order-1 collapse rows differ from tanh(t/2)")
        second = table[table[:, 0] == 2]
        smallest = second[np.argmin(second[:, 1])]
        if not abs(smallest[2] - 0.75) < 1e-4:
            errors.append(f"order-2 ratio {smallest[2]} at t={smallest[1]} is not near 3/4")
        return errors

    def score_cases(self) -> list[ScoreCase]:
        return list(self.cases.values())


WORKLOADS = {cls.name: cls for cls in (SweepDefault, GenerateWide, Analysis)}
