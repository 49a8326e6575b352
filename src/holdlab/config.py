"""Experiment configuration: JSON documents with per-field CLI overrides.

``FIELDS`` is the schema: one converter per ``ExperimentConfig`` field, with
the time grid as a nested table.  Config files, overrides and the
``generate``/``fmem-sweep`` flags all parse through it, so a converter takes
either a JSON value or the raw command-line string.  Unknown keys anywhere
in the document are a hard error; a silent typo in a sweep configuration
would corrupt every cell downstream.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .core import MAX_ORDER
from .datasets import (
    CsvFileSpec,
    DatasetSpec,
    GaussianMixtureSpec,
    GridSpec,
    RingSpec,
)
from .forward import AuxPolicy, FixedPerSample, Marginalized
from .sampler import TimeGrid

_POLICY_NAMES = ("fixed", "marginalized", "both")


class ConfigError(ValueError):
    """Malformed or contradictory experiment configuration."""


@dataclass
class ExperimentConfig:
    orders: list[int] = field(default_factory=lambda: [1, 2, 3])
    dataset: DatasetSpec = field(
        default_factory=lambda: GaussianMixtureSpec(k=8, spread=6.0, dim=2)
    )
    n_train: list[int] = field(default_factory=lambda: [8])
    runs: int = 512
    tau: float = 0.333
    l_inv: float = 1.0
    alpha: float = 1.0
    ou_xi: float = 1.0
    grid: TimeGrid = field(default_factory=TimeGrid)
    aux_policy: str = "fixed"
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not (0.0 < self.tau < 1.0):
            raise ConfigError("tau must lie in (0, 1)")
        for name in ("l_inv", "alpha", "ou_xi"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigError(f"{name} must be positive and finite")
        if not self.orders or any(not 1 <= o <= MAX_ORDER for o in self.orders):
            raise ConfigError(
                f"orders must be a nonempty list of integers in [1, {MAX_ORDER}]"
            )
        if not self.n_train or any(m < 1 for m in self.n_train):
            raise ConfigError("n_train must be a positive integer or list of them")
        if self.aux_policy not in _POLICY_NAMES:
            raise ConfigError(f"aux_policy must be one of {_POLICY_NAMES}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")

    def policies(self) -> list[tuple[str, AuxPolicy]]:
        fixed = ("fixed", FixedPerSample(seed=self.seed))
        marg = ("marginalized", Marginalized())
        if self.aux_policy == "fixed":
            return [fixed]
        if self.aux_policy == "marginalized":
            return [marg]
        return [fixed, marg]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "dataset": _dataset_to_dict(self.dataset)}


@dataclass(frozen=True)
class _Record:
    """Parser of a JSON object into ``cls``, one converter per key."""

    cls: type
    fields: dict

    def __call__(self, value):
        name = self.cls.__name__
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, got {value!r}")
        unknown = set(value) - set(self.fields)
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        kwargs = {}
        for key, raw in value.items():
            try:
                kwargs[key] = self.fields[key](raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
        try:
            return self.cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None


def _int(value) -> int:
    """An integer, or a string of one.  A float or a bool is an error: int()
    would truncate 2.7 to 2 and read true as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"want an integer, got {value!r}")
    return int(value)


_DATASET_KINDS = {
    "gaussian_mixture": _Record(
        GaussianMixtureSpec, {"k": _int, "spread": float, "dim": _int}
    ),
    "ring": _Record(RingSpec, {"radius": float, "noise": float, "dim": _int}),
    "grid": _Record(GridSpec, {"side": _int, "dim": _int}),
    "csv": _Record(CsvFileSpec, {"path": str}),
}


def _dataset_to_dict(spec: DatasetSpec) -> dict:
    for kind, record in _DATASET_KINDS.items():
        if isinstance(spec, record.cls):
            return {"kind": kind, **asdict(spec)}
    raise TypeError(f"unknown dataset spec {spec!r}")


def parse_dataset(value) -> DatasetSpec:
    """Parse a dataset spec from a JSON dict or a ``kind:key=val,...`` string."""
    if isinstance(value, str):
        kind, _, rest = value.partition(":")
        payload: dict = {"kind": kind.strip()}
        if rest:
            for item in rest.split(","):
                key, _, raw = item.partition("=")
                if not _:
                    raise ConfigError(f"bad dataset field {item!r} (want key=value)")
                payload[key.strip()] = raw.strip()
        value = payload
    if not isinstance(value, dict):
        raise ConfigError(f"dataset spec must be a dict or string, got {value!r}")
    payload = dict(value)
    kind = payload.pop("kind", None)
    if kind not in _DATASET_KINDS:
        raise ConfigError(
            f"unknown dataset kind {kind!r}; expected one of {sorted(_DATASET_KINDS)}"
        )
    return _DATASET_KINDS[kind](payload)


def _int_list(value) -> list[int]:
    """An integer, a list of them, or a comma-separated string of them; a
    repeated value is an error, since it would repeat a table row or file."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    ints = [_int(v) for v in value]
    if len(set(ints)) < len(ints):
        raise ValueError(f"repeated value in {ints}")
    return ints


# The schema, in the order the CLI lists its flags.
FIELDS = {
    "orders": _int_list,
    "dataset": parse_dataset,
    "n_train": _int_list,
    "runs": _int,
    "tau": float,
    "l_inv": float,
    "alpha": float,
    "ou_xi": float,
    "grid": _Record(
        TimeGrid, {"t_start": float, "t_end": float, "steps": _int, "spacing": str}
    ),
    "aux_policy": str,
    "seed": _int,
    "out_dir": str,
}

# Every key ``load_config`` takes as an override: a nested field is dotted.
OVERRIDE_KEYS = tuple(
    key
    for name, conv in FIELDS.items()
    for key in (
        [f"{name}.{sub}" for sub in conv.fields]
        if isinstance(conv, _Record)
        else [name]
    )
)


def config_from_dict(doc: dict) -> ExperimentConfig:
    return _Record(ExperimentConfig, FIELDS)(doc)


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Load a JSON config file (optional) and apply overrides on top.

    An override key is a field name, or ``grid.<name>`` for a grid field; a
    value of None leaves the field alone.
    """
    doc: dict = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        head, dot, tail = key.partition(".")
        if dot:
            nested = doc.get(head)
            doc[head] = {**(nested if isinstance(nested, dict) else {}), tail: value}
        else:
            doc[key] = value
    return config_from_dict(doc)


def write_resolved_config(config: ExperimentConfig, out_dir: Path) -> None:
    text = json.dumps(config.to_json_dict(), indent=2, sort_keys=True)
    (out_dir / "resolved_config.json").write_text(text + "\n", encoding="utf-8")
