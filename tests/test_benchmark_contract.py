"""The benchmark's view of the package: every name it imports or traces
still resolves.

These tests only read ``benchmarks/``.  A deletion in ``src/holdlab`` that
would break ``benchmarks/run.py`` (and its ``--trace 1`` span tracer) fails
here, in the unit suite, instead of at benchmark time.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name: str):
    """Import ``benchmarks/<name>.py`` under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


@pytest.mark.parametrize("name", ["workloads", "oracle"])
def test_benchmark_modules_import(name):
    # An ImportError here names the package symbol the benchmark lost.
    load(name)


def test_traced_names_resolve(tracer):
    for mod, name in tracer.TRACED:
        assert callable(getattr(tracer.MODULES[mod], name, None)), f"{mod}.{name}"


def test_tracer_installs_and_restores(tracer):
    originals = {key: getattr(tracer.MODULES[key[0]], key[1]) for key in tracer.TRACED}
    spans = tracer.Tracer()
    spans.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(tracer.MODULES[mod], name) is not fn, f"{mod}.{name}"
    finally:
        spans.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(tracer.MODULES[mod], name) is fn, f"{mod}.{name}"


def test_sampler_arguments_the_benchmark_reads(tracer):
    # The tracer binds score_fn and reads params, grid and runs; the
    # endpoint recorder keys its results by rng_seed.
    sig = inspect.signature(tracer.MODULES["sampler"].pf_ode_endpoints)
    assert {"params", "score_fn", "grid", "rng_seed", "h", "runs"} <= set(sig.parameters)
