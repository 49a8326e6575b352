"""The benchmark's view of the package: every name it imports or traces
still resolves.

These tests only read ``benchmarks/``.  A deletion in ``src/holdlab`` that
would break ``benchmarks/run.py`` (and its ``--trace 1`` span tracer) fails
here, in the unit suite, instead of at benchmark time.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from holdlab import (
    Dataset,
    FixedPerSample,
    Marginalized,
    cli,
    critically_damped_params,
    empirical_score_fn,
    initial_covariance,
    mixture_at,
)
from holdlab.core import _order_params

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


def test_score_callback_takes_the_oracles_single_point_form():
    # benchmarks/oracle.py calls score_fn(u, t) with one (n*h,) probe and a
    # float t, and the tracer reads mix.n_components off mixture_at.
    oracle = load("oracle")
    params, policy = critically_damped_params(2), FixedPerSample(seed=3)
    dataset = Dataset(np.array([[2.0, 0.0], [-2.0, 1.0], [0.0, -2.0]]))
    sigma0 = initial_covariance(params, policy)
    score_fn = empirical_score_fn(dataset, params, sigma0, policy)
    t = 0.1
    ref = oracle.ScoreOracle(params, sigma0, dataset.lifted(params, policy), 2, t)
    probes = ref.probes(np.random.default_rng(0), 3)
    for u in probes:
        got = score_fn(u, t)
        assert u.shape == (4,) and got.shape == (2,) and np.isfinite(got).all()
    assert max(oracle.relative_errors(ref, score_fn, t, probes)) <= 1e-10
    assert mixture_at(dataset, params, sigma0, policy, t).n_components == 3


def test_pair_count_reads_every_component_of_a_reflected_mixture():
    # benchmarks/tracer.py counts score.pairs as rows x mix.n_components.  A
    # Marginalized mixture of order >= 2 holds its whitened centers in h
    # columns, not n*h, and every mixture carries a leading time axis;
    # n_components must still be N, at a float time and at a (B,) array of
    # times (generate_wide's shape).
    dataset = Dataset(np.random.default_rng(0).standard_normal((5, 2)))
    cases = [(3, Marginalized(), 2), (3, FixedPerSample(seed=3), 6), (1, Marginalized(), 2)]
    for order, policy, columns in cases:
        params = _order_params(order)
        sigma0 = initial_covariance(params, policy)
        for t in (0.1, np.array([0.1, 0.2, 0.3, 0.4])):
            mix = mixture_at(dataset, params, sigma0, policy, t)
            assert mix.white_centers.shape == (np.size(t), 5, columns)
            assert mix.n_components == 5


def test_endpoint_recorder_sees_every_cell_of_one_driver(tmp_path):
    # workloads.EndpointRecorder patches cli.pf_ode_endpoints and keys each
    # call by its rng_seed keyword.  generate and fmem-sweep share one cell
    # driver, so a generate cell equals its fmem-sweep twin bit for bit.
    recorder = load("workloads").EndpointRecorder()
    flags = ["--orders", "1,2", "--runs", "3", "--steps", "40", "--seed", "5"]
    recorder.install()
    try:
        argv = ["generate", *flags, "--n-train", "4", "--out-dir", str(tmp_path / "g")]
        assert cli.main(argv) == 0
        generated = recorder.take()
        argv = ["fmem-sweep", *flags, "--n-train", "4,6", "--aux-policy", "both"]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "s")]) == 0
        swept = recorder.take()
    finally:
        recorder.uninstall()
    assert set(generated) == {(5, order, 4, 0) for order in (1, 2)}
    cells = {(5, o, n, p) for o in (1, 2) for n in (4, 6) for p in (0, 1)}
    assert set(swept) == cells
    for key, (positions, ok) in generated.items():
        twin_positions, twin_ok = swept[key]
        assert positions.tobytes() == twin_positions.tobytes(), key
        assert ok.tobytes() == twin_ok.tobytes(), key
