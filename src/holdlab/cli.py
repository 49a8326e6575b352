"""Command-line harness.

Subcommands::

    holdlab params         critically damped parameters as JSON
    holdlab filter         frequency-magnitude tables per order
    holdlab collapse       determinant-ratio tables per order
    holdlab generate       reverse-time generation, endpoints to CSV
    holdlab fmem-sweep     memorization sweep over orders x dataset sizes
    holdlab theorem1-check convolution-vs-ODE equivalence report

Every command is a pure function of (config, seed): re-runs produce
byte-identical artifacts.  Floats are printed with 17 significant digits so
the CSVs round-trip exactly; each CSV's directory (``--impulse-out``'s too) is
made as needed.  ``generate`` and ``fmem-sweep`` run one cell loop, ``_cells``.

Exit codes: 0 success; 1 I/O failure; 2 usage or configuration error;
3 at least 1% of generation runs diverged; 4 equivalence tolerance
exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import (
    OVERRIDE_KEYS,
    ConfigError,
    ExperimentConfig,
    _int_list,
    load_config,
    write_resolved_config,
)
from .core import LiftedState, _nilpotent_terms, _order_params, critically_damped_params
from .datasets import heldout_points, training_points
from .errors import HoldLabError
from .filters import (
    HoldFilter,
    convolution_reconstruct,
    forced_ode_positions,
    frequency_magnitude,
    impulse_response,
)
from .forward import initial_covariance, schedule
from .metrics import det_ratio, fmem, gaussian_w2
from .sampler import pf_ode_endpoints
from .score import Dataset, empirical_score_fn
from .svgplot import line_chart

THEOREM_TOL = 1e-3
FAILURE_BUDGET = 0.01


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _labelled_params(orders, command: str, xi: float = 1.0) -> list:
    """("ou", the order-1 baseline with friction xi), then ("hold<n>",
    critically damped params) per order; ValueError for an order below 2."""
    if any(n < 2 for n in orders):
        raise ValueError(f"{command} orders must be >= 2, got {orders}")
    return [(f"hold{n}" if n > 1 else "ou", _order_params(n, xi)) for n in [1, *orders]]


def cmd_params(args) -> int:
    params = critically_damped_params(args.order)
    s_star, _ = _nilpotent_terms(params)
    doc = {
        "order": params.order,
        "gammas": list(params.gammas),
        "xi": params.xi,
        "s_star": s_star,
    }
    print(json.dumps(doc))
    return 0


def _positive(value: float, flag: str) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{flag} must be positive and finite, got {value}")
    return value


def _count(value: int, flag: str) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


def _log_grid(lo: float, hi: float, points: int, name: str) -> np.ndarray:
    """np.logspace from lo to hi; ValueError naming the --<name>-* option
    unless both ends are positive and finite and points >= 1."""
    lo = math.log10(_positive(lo, f"--{name}-min"))
    hi = math.log10(_positive(hi, f"--{name}-max"))
    return np.logspace(lo, hi, _count(points, f"--{name}-points"))


def cmd_filter(args) -> int:
    omegas = _log_grid(args.omega_min, args.omega_max, args.omega_points, "omega")
    times = np.linspace(
        0.0,
        _positive(args.impulse_t_max, "--impulse-t-max"),
        _count(args.impulse_points, "--impulse-points"),
    )
    specs = [
        (label, HoldFilter.from_params(params))
        for label, params in _labelled_params(args.orders, "filter")
    ]
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for label, spec in specs:
        mags = frequency_magnitude(spec, omegas)
        series[label] = list(zip(omegas.tolist(), mags.tolist()))
        rows.extend([float(w), label, float(m)] for w, m in zip(omegas, mags))
    out = Path(args.out)
    _write_csv(out, ["omega", "label", "magnitude"], rows)
    if args.impulse_out:
        impulse_rows = []
        for label, spec in specs:
            vals = impulse_response(spec, times)
            impulse_rows.extend(
                [float(t), label, float(v)] for t, v in zip(times, vals)
            )
        _write_csv(Path(args.impulse_out), ["t", "label", "h"], impulse_rows)
    if args.svg:
        line_chart(
            series,
            out.with_suffix(".svg"),
            title="Frequency magnitudes",
            x_label="omega",
            y_label="|H(i omega)|",
        )
    return 0


def cmd_collapse(args) -> int:
    t_grid = _log_grid(args.t_min, args.t_max, args.t_points, "t")
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for n in args.orders:
        ratios = det_ratio(n, t_grid, xi=args.ou_xi)
        pairs = list(zip(t_grid.tolist(), ratios.tolist()))
        series[f"n={n}"] = pairs
        rows.extend([n, t, r] for t, r in pairs)
    out = Path(args.out)
    _write_csv(out, ["n", "t", "det_ratio"], rows)
    if args.svg:
        line_chart(
            series,
            out.with_suffix(".svg"),
            title="Collapse determinant ratio",
            x_label="t",
            y_label="ratio",
        )
    return 0


def _config_from_args(args) -> ExperimentConfig:
    """The config file, then every flag given; the config converters parse
    the flags' raw strings."""
    return load_config(args.config, {key: getattr(args, key) for key in OVERRIDE_KEYS})


def _prepare(config: ExperimentConfig, check_train=lambda n, train: None):
    """Preamble after the command's config check: the [(n_train, Dataset)] draws,
    each passed to ``check_train``, and ``out_dir`` holding its resolved config."""
    trains = []
    for n_train in config.n_train:
        train = training_points(config.dataset, n_train, config.seed)
        check_train(n_train, train)
        trains.append((n_train, Dataset(train)))
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out_dir)
    return trains, out_dir


def _cells(config: ExperimentConfig, trains):
    """The experiment loop: yields (order, n_train, policy_name, positions,
    ok, failures) per cell, orders outer, then training sets, then policies.
    Run i of a cell is seeded [seed, order, n_train, policy index, i]."""
    times = config.grid.times()
    for order in config.orders:
        params = _order_params(order, config.ou_xi, config.l_inv, config.alpha)
        arms = []
        for name, policy in config.policies():
            sigma0 = initial_covariance(params, policy)
            arms.append((name, policy, sigma0, schedule(params, sigma0, times)))
        for n_train, dataset in trains:
            for policy_idx, (name, policy, sigma0, sched) in enumerate(arms):
                score_fn = empirical_score_fn(
                    dataset, params, sigma0, policy, schedule=sched
                )
                positions, ok, failures = pf_ode_endpoints(
                    params, score_fn, config.grid, h=dataset.h, runs=config.runs,
                    rng_seed=[config.seed, order, n_train, policy_idx],
                )
                yield order, n_train, name, positions, ok, failures


def _finish(config: ExperimentConfig, out_dir: Path, header, failure_rows) -> int:
    """The experiment epilogue: ``failures.csv``, then exit code 3 when the
    diverged runs reach FAILURE_BUDGET of all runs, else 0."""
    _write_csv(out_dir / "failures.csv", header, failure_rows)
    cells = len(config.orders) * len(config.n_train) * len(config.policies())
    diverged, total_runs = len(failure_rows), cells * config.runs
    if diverged / total_runs >= FAILURE_BUDGET:
        print(f"error: {diverged}/{total_runs} runs diverged", file=sys.stderr)
        return 3
    return 0


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    if len(config.n_train) != 1:
        raise ConfigError("generate needs a single n_train value")
    if config.aux_policy == "both":
        raise ConfigError("generate needs a single aux_policy")
    trains, out_dir = _prepare(config)
    failure_rows: list[list] = []
    for order, _, _, positions, ok, failures in _cells(config, trains):
        header = ["run"] + [f"x{i}" for i in range(positions.shape[1])]
        rows = [
            [run] + [float(v) for v in positions[run]]
            for run in range(config.runs)
            if ok[run]
        ]
        _write_csv(out_dir / f"endpoints_{order}.csv", header, rows)
        failure_rows.extend([order, run, step] for run, step in failures)
    return _finish(config, out_dir, ["order", "run", "step"], failure_rows)


def _two_distinct(n_train: int, train: np.ndarray) -> None:
    if not (train != train[0]).any():  # every point repeats the first
        raise ConfigError(
            "fmem-sweep needs at least two distinct training points for a "
            f"gap ratio; the n_train = {n_train} draw has fewer"
        )


def cmd_fmem_sweep(args) -> int:
    config = _config_from_args(args)
    if min(config.n_train) < 2:
        raise ConfigError(
            "fmem-sweep needs n_train >= 2: the gap ratio compares the nearest "
            "and second-nearest training points"
        )
    trains, out_dir = _prepare(config, _two_distinct)
    draws = {  # each training set with its held-out set
        n: (data.points, heldout_points(config.dataset, max(n, 256), config.seed))
        for n, data in trains
    }
    rows: list[list] = []
    failure_rows: list[list] = []
    for order, n_train, policy_name, positions, ok, failures in _cells(config, trains):
        failure_rows.extend(
            [order, n_train, policy_name, run, step] for run, step in failures
        )
        # A cell with no surviving run has no sample to score.
        scores = [math.nan] * 4
        if ok.any():
            train, held = draws[n_train]
            report = fmem(positions[ok], train, tau=config.tau)
            w2 = gaussian_w2(positions[ok], held)
            scores = [report.fraction, report.ci_low, report.ci_high, w2]
        rows.append([order, n_train, policy_name, *scores])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(
        out_dir / "sweep.csv",
        ["order", "n_train", "policy", "fmem", "ci_low", "ci_high", "w2"],
        rows,
    )
    header = ["order", "n_train", "policy", "run", "step"]
    return _finish(config, out_dir, header, failure_rows)


def _forcing_values(spec: str, times: np.ndarray) -> np.ndarray:
    name, _, raw = spec.partition(":")
    value = float(raw) if raw else 1.0
    if name == "zero":
        return np.zeros_like(times)
    if name == "const":
        return np.full_like(times, value)
    if name == "sin":
        return np.sin(value * times)
    if name == "cos":
        return np.cos(value * times)
    if name == "exp":
        return np.exp(-value * times)
    if name == "sinexp":
        return np.sin(value * times) * np.exp(-times)
    raise ConfigError(f"unknown forcing {spec!r}")


def cmd_theorem1_check(args) -> int:
    times = np.linspace(
        0.0, _positive(args.t_max, "--t-max"), _count(args.steps, "--steps") + 1
    )
    if not args.forcings:
        raise ValueError("--forcings names no forcing")
    # The forcings are the columns of one (T, F) block.  One that overflows
    # is refused, column by column, by the filters' finiteness check.
    with np.errstate(over="ignore"):
        forcings = np.stack([_forcing_values(spec, times) for spec in args.forcings], 1)
    cases = _labelled_params(args.orders, "theorem", args.ou_xi)

    # Zero forcing: the exact solution is the natural response, which the
    # reconstruction reproduces identically, so only the other columns need
    # the ODE oracle.
    live = forcings.any(axis=0)
    rows: list[list] = []
    for label, params in cases:
        spec = HoldFilter.from_params(params)
        n, width = params.order, forcings.shape[1]
        u0 = np.array([1.0] + [0.5] * (n - 1))
        stacked = LiftedState(n, width, np.repeat(u0, width))
        recon = convolution_reconstruct(spec, params, stacked, forcings, times)
        oracle = recon.copy()
        if live.any():
            count = int(live.sum())
            oracle[:, live] = forced_ode_positions(
                params,
                LiftedState(n, count, np.repeat(u0, count)),
                forcings[:, live],
                times,
            )
        for fname, rec, ora in zip(args.forcings, recon.T, oracle.T):
            scale = float(np.linalg.norm(ora))
            err = float(np.linalg.norm(rec - ora)) / max(scale, 1e-30)
            rows.append([label, fname, err])
    _write_csv(Path(args.out), ["label", "forcing", "rel_l2_error"], rows)
    worst = np.max([row[2] for row in rows])  # NaN propagates, unlike max()
    if not worst <= THEOREM_TOL:
        print(
            f"error: worst relative L2 error {worst:.3e} exceeds {THEOREM_TOL}",
            file=sys.stderr,
        )
        return 4
    return 0


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """--config, then one flag per config field (``grid.t_end`` is --t-end).
    The values stay strings for the config converters to parse."""
    parser.add_argument("--config", help="JSON config file")
    for key in OVERRIDE_KEYS:
        name = key.rpartition(".")[2]
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=key, metavar=name.upper())


def _int_list_flag(text: str) -> list[int]:
    """``config._int_list`` for a flag.  argparse shows the message of an
    ArgumentTypeError; of a ValueError it shows only the converter's name."""
    try:
        return _int_list(text)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad value {text!r} ({exc})") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holdlab",
        description="Higher-order Langevin diffusion laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="critically damped parameters as JSON")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("filter", help="frequency magnitude tables")
    p.add_argument("--orders", type=_int_list_flag, default=[2, 3, 4])
    p.add_argument("--omega-min", type=float, default=1e-2)
    p.add_argument("--omega-max", type=float, default=1e3)
    p.add_argument("--omega-points", type=int, default=200)
    p.add_argument("--out", default="filter.csv")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--impulse-out", help="also write a (t, label, h) impulse table")
    p.add_argument("--impulse-t-max", type=float, default=8.0)
    p.add_argument("--impulse-points", type=int, default=400)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("collapse", help="determinant ratio tables")
    p.add_argument("--orders", type=_int_list_flag, default=[1, 2, 3, 4])
    p.add_argument("--t-min", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-points", type=int, default=100)
    p.add_argument("--ou-xi", type=float, default=1.0)
    p.add_argument("--out", default="collapse.csv")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("generate", help="reverse-time generation to CSV")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fmem-sweep", help="memorization sweep")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_fmem_sweep)

    p = sub.add_parser("theorem1-check", help="convolution equivalence report")
    p.add_argument("--orders", type=_int_list_flag, default=[2, 3, 4])
    p.add_argument(
        "--forcings",
        type=lambda s: [v.strip() for v in s.split(",") if v.strip()],
        default=["sin:3", "cos:2", "exp:1", "sinexp:5", "const:1"],
    )
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--ou-xi", type=float, default=2.0)
    p.add_argument("--out", default="theorem1.csv")
    p.set_defaults(func=cmd_theorem1_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Commands raise; this is the one place an exception becomes exit 1 or 2.
    try:
        return args.func(args)
    except (OSError, ValueError, HoldLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
