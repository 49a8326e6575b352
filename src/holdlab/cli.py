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
the CSVs round-trip exactly.

Exit codes: 0 success; 1 I/O failure; 2 usage or configuration error;
3 more than 1% of generation runs diverged; 4 equivalence tolerance
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
    ConfigError,
    ExperimentConfig,
    load_config,
    write_resolved_config,
)
from .core import (
    HoldParams,
    LiftedState,
    critically_damped_params,
    damped_eigenvalue,
    build_forward_matrix,
)
from .datasets import heldout_points, training_points
from .errors import HoldLabError, InvalidOrderError
from .filters import (
    HoldFilter,
    convolution_reconstruct,
    forced_ode_positions,
    frequency_magnitude,
    impulse_response,
)
from .forward import initial_covariance
from .metrics import collapse_curve, fmem, gaussian_w2
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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _order_params(order: int, config: ExperimentConfig) -> HoldParams:
    if order == 1:
        return HoldParams(
            order=1,
            gammas=(),
            xi=config.ou_xi,
            l_inv=config.l_inv,
            alpha=config.alpha,
        )
    return critically_damped_params(order, l_inv=config.l_inv, alpha=config.alpha)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def cmd_params(args) -> int:
    try:
        params = critically_damped_params(args.order)
    except InvalidOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    s_star = damped_eigenvalue(build_forward_matrix(params))
    doc = {
        "order": params.order,
        "gammas": list(params.gammas),
        "xi": params.xi,
        "s_star": s_star,
    }
    print(json.dumps(doc))
    return 0


def cmd_filter(args) -> int:
    omegas = np.logspace(
        math.log10(args.omega_min), math.log10(args.omega_max), args.omega_points
    )
    ou_params = HoldParams(order=1, gammas=(), xi=1.0, l_inv=1.0)
    specs = [("ou", HoldFilter.from_params(ou_params))]
    for n in args.orders:
        if n < 2:
            print(f"error: filter orders must be >= 2, got {n}", file=sys.stderr)
            return 2
        specs.append((f"hold{n}", HoldFilter.from_params(critically_damped_params(n))))
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for label, spec in specs:
        mags = frequency_magnitude(spec, omegas)
        series[label] = list(zip(omegas.tolist(), mags.tolist()))
        rows.extend([float(w), label, float(m)] for w, m in zip(omegas, mags))
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out, ["omega", "label", "magnitude"], rows)
        if args.impulse_out:
            times = np.linspace(0.0, args.impulse_t_max, args.impulse_points)
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
                log_x=True,
                log_y=True,
            )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_collapse(args) -> int:
    t_grid = np.logspace(
        math.log10(args.t_min), math.log10(args.t_max), args.t_points
    )
    try:
        table = collapse_curve(args.orders, t_grid, xi=args.ou_xi)
    except (ValueError, HoldLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out, ["n", "t", "det_ratio"], [list(r) for r in table])
        if args.svg:
            series: dict[str, list[tuple[float, float]]] = {}
            for n, t, val in table:
                series.setdefault(f"n={n}", []).append((t, val))
            line_chart(
                series,
                out.with_suffix(".svg"),
                title="Collapse determinant ratio",
                x_label="t",
                y_label="ratio",
                log_x=True,
                log_y=True,
            )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _generate_endpoints(
    config: ExperimentConfig,
    order: int,
    n_train: int,
    policy,
    policy_idx: int,
):
    """Shared generation core: returns (positions, ok mask, failures, train)."""
    params = _order_params(order, config)
    train = training_points(config.dataset, n_train, config.seed)
    dataset = Dataset(train)
    sigma0 = initial_covariance(params, policy)
    score_fn = empirical_score_fn(dataset, params, sigma0, policy)
    positions, ok, failures = pf_ode_endpoints(
        params,
        score_fn,
        config.grid,
        rng_seed=[config.seed, order, n_train, policy_idx],
        h=train.shape[1],
        runs=config.runs,
    )
    return positions, ok, failures, train


def _failure_exit(diverged: int, total_runs: int) -> int:
    """Exit code 3 when the diverged runs reach FAILURE_BUDGET, else 0."""
    if total_runs and diverged / total_runs >= FAILURE_BUDGET:
        print(f"error: {diverged}/{total_runs} runs diverged", file=sys.stderr)
        return 3
    return 0


def cmd_generate(args) -> int:
    try:
        config = _config_from_args(args)
        if len(config.n_train) != 1:
            raise ConfigError("generate needs a single n_train value")
        if config.aux_policy == "both":
            raise ConfigError("generate needs a single aux_policy")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_train = config.n_train[0]
    policy_name, policy = config.policies()[0]
    out_dir = Path(config.out_dir)
    failure_rows: list[list] = []
    total_runs = 0
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_resolved_config(config, out_dir)
        for order in config.orders:
            positions, ok, failures, _ = _generate_endpoints(
                config, order, n_train, policy, 0
            )
            total_runs += config.runs
            header = ["run"] + [f"x{i}" for i in range(positions.shape[1])]
            rows = [
                [run] + [float(v) for v in positions[run]]
                for run in range(config.runs)
                if ok[run]
            ]
            _write_csv(out_dir / f"endpoints_{order}.csv", header, rows)
            failure_rows.extend([order, run, step] for run, step in failures)
        _write_csv(out_dir / "failures.csv", ["order", "run", "step"], failure_rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _failure_exit(len(failure_rows), total_runs)


def cmd_fmem_sweep(args) -> int:
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(config.out_dir)
    rows: list[list] = []
    failure_rows: list[list] = []
    total_runs = 0
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_resolved_config(config, out_dir)
        for order in config.orders:
            for n_train in config.n_train:
                for policy_idx, (policy_name, policy) in enumerate(config.policies()):
                    positions, ok, failures, train = _generate_endpoints(
                        config, order, n_train, policy, policy_idx
                    )
                    total_runs += config.runs
                    failure_rows.extend(
                        [order, n_train, policy_name, run, step]
                        for run, step in failures
                    )
                    # A cell with no surviving run has no sample to score.
                    scores = [math.nan] * 4
                    if ok.any():
                        report = fmem(positions[ok], train, tau=config.tau)
                        held = heldout_points(
                            config.dataset, max(n_train, 256), config.seed
                        )
                        w2 = gaussian_w2(positions[ok], held)
                        scores = [report.fraction, report.ci_low, report.ci_high, w2]
                    rows.append([order, n_train, policy_name, *scores])
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        _write_csv(
            out_dir / "sweep.csv",
            ["order", "n_train", "policy", "fmem", "ci_low", "ci_high", "w2"],
            rows,
        )
        _write_csv(
            out_dir / "failures.csv",
            ["order", "n_train", "policy", "run", "step"],
            failure_rows,
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _failure_exit(len(failure_rows), total_runs)


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
    times = np.linspace(0.0, args.t_max, args.steps + 1)
    try:
        forcings = [(spec, _forcing_values(spec, times)) for spec in args.forcings]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ou_params = HoldParams(order=1, gammas=(), xi=args.ou_xi, l_inv=1.0)
    cases = [("ou", ou_params, LiftedState(1, 1, np.array([1.0])))]
    for n in args.orders:
        if n < 2:
            print(f"error: theorem orders must be >= 2, got {n}", file=sys.stderr)
            return 2
        params = critically_damped_params(n)
        u0 = LiftedState(n, 1, np.array([1.0] + [0.5] * (n - 1)))
        cases.append((f"hold{n}", params, u0))

    rows: list[list] = []
    worst = 0.0
    for label, params, u0 in cases:
        spec = HoldFilter.from_params(params)
        for fname, fvals in forcings:
            recon = convolution_reconstruct(spec, params, u0, fvals, times)
            if not fvals.any():
                # Zero forcing: the exact solution is the natural response,
                # which the reconstruction reproduces identically.
                oracle = recon
            else:
                oracle = forced_ode_positions(params, u0, fvals, times)
            scale = float(np.linalg.norm(oracle))
            err = float(np.linalg.norm(recon - oracle)) / max(scale, 1e-30)
            worst = max(worst, err)
            rows.append([label, fname, err])
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out, ["label", "forcing", "rel_l2_error"], rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if worst > THEOREM_TOL:
        print(
            f"error: worst relative L2 error {worst:.3e} exceeds {THEOREM_TOL}",
            file=sys.stderr,
        )
        return 4
    return 0


def _config_from_args(args) -> ExperimentConfig:
    overrides = {
        "orders": args.orders,
        "dataset": args.dataset,
        "n_train": args.n_train,
        "runs": args.runs,
        "tau": args.tau,
        "l_inv": args.l_inv,
        "alpha": args.alpha,
        "ou_xi": args.ou_xi,
        "aux_policy": args.aux_policy,
        "seed": args.seed,
        "out_dir": args.out_dir,
        "grid.t_start": args.t_start,
        "grid.t_end": args.t_end,
        "grid.steps": args.steps,
        "grid.spacing": args.spacing,
    }
    return load_config(args.config, overrides)


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--orders", type=_int_list, default=None)
    parser.add_argument(
        "--dataset",
        default=None,
        help="kind:key=val,... e.g. gaussian_mixture:k=8,spread=6.0,dim=2",
    )
    parser.add_argument("--n-train", dest="n_train", type=_int_list, default=None)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--tau", type=float, default=None)
    parser.add_argument("--l-inv", dest="l_inv", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--ou-xi", dest="ou_xi", type=float, default=None)
    parser.add_argument(
        "--aux-policy",
        dest="aux_policy",
        choices=["fixed", "marginalized", "both"],
        default=None,
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", dest="out_dir", default=None)
    parser.add_argument("--t-start", dest="t_start", type=float, default=None)
    parser.add_argument("--t-end", dest="t_end", type=float, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument(
        "--spacing", choices=["uniform", "quadratic"], default=None
    )


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
    p.add_argument("--orders", type=_int_list, default=[2, 3, 4])
    p.add_argument("--omega-min", dest="omega_min", type=float, default=1e-2)
    p.add_argument("--omega-max", dest="omega_max", type=float, default=1e3)
    p.add_argument("--omega-points", dest="omega_points", type=int, default=200)
    p.add_argument("--out", default="filter.csv")
    p.add_argument("--svg", action="store_true")
    p.add_argument(
        "--impulse-out",
        dest="impulse_out",
        default=None,
        help="also write a (t, label, h) impulse-response table",
    )
    p.add_argument("--impulse-t-max", dest="impulse_t_max", type=float, default=8.0)
    p.add_argument("--impulse-points", dest="impulse_points", type=int, default=400)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("collapse", help="determinant ratio tables")
    p.add_argument("--orders", type=_int_list, default=[1, 2, 3, 4])
    p.add_argument("--t-min", dest="t_min", type=float, default=1e-3)
    p.add_argument("--t-max", dest="t_max", type=float, default=10.0)
    p.add_argument("--t-points", dest="t_points", type=int, default=100)
    p.add_argument("--ou-xi", dest="ou_xi", type=float, default=1.0)
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
    p.add_argument("--orders", type=_int_list, default=[2, 3, 4])
    p.add_argument(
        "--forcings",
        type=lambda s: [v for v in s.split(",") if v.strip()],
        default=["sin:3", "cos:2", "exp:1", "sinexp:5", "const:1"],
    )
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--t-max", dest="t_max", type=float, default=5.0)
    p.add_argument("--ou-xi", dest="ou_xi", type=float, default=2.0)
    p.add_argument("--out", default="theorem1.csv")
    p.set_defaults(func=cmd_theorem1_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HoldLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
