"""Fast tests of the benchmark itself: tiny end-to-end runs and the checks.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src/ on the path)
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mlrfit import lad, scoring, synth  # noqa: E402
from mlrfit.model import MlrParams, NoiseKind, NoiseModel  # noqa: E402

# Same routes as the real workloads at a fraction of the size. laplace-large
# keeps N above the LP cap so that lad_path="auto" still picks IRLS.
TINY = {
    "gauss-desk": dict(n_samples=300, n_iterations=20),
    "laplace-lp": dict(n_samples=300, n_iterations=5),
    "laplace-large": dict(n_samples=6000, n_iterations=3),
}


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_end_to_end(name, trace, spec):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    result, rounds, tracer = run.run(workload, seed=3, seconds=0.0, trace=trace, setup_s=1.0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(rounds) * len(rounds[0].cells)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert [r.traced for r in rounds] == [False, True]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["scoring.log_likelihood_calls"] == 2 * workload.n_iterations * len(rounds[0].cells)
        lp_calls = workload.n_iterations * sum(c.cell.k for c in rounds[0].cells)
        assert m["lad.dual_lp_calls"] == (lp_calls if name == "laplace-lp" else 0)
        assert (m["lad.irls_calls"] > 0) == (name == "laplace-large")
        assert m["em.fit_em_self_s"] > 0 and m["admm.fit_admm_self_s"] > 0


def test_benchmark_json_matches_the_run(spec):
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in run.PER_LAYER
    ]


def test_refuses_to_run_without_the_sources(tmp_path, spec):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        spec["command"] + ["--workload", "gauss-desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


# --- the independent checks, handed correct and corrupted results ---------


@pytest.fixture(scope="module")
def fitted():
    """A small Laplacian instance, its truth, and a program-scored estimate."""
    nm = NoiseModel(NoiseKind.LAPLACIAN, 1.0)
    data = synth.generate(3, 2, 400, nm, seed=11)
    truth = data.true_params.beta
    estimate = truth[:, [2, 0, 1]] + 0.01  # columns permuted, slightly off
    return data, truth, estimate


def test_log_likelihood_check(fitted):
    data, _, estimate = fitted
    params = MlrParams(estimate)
    reported = scoring.log_likelihood(params, data, NoiseModel(NoiseKind.LAPLACIAN, 1.0))
    assert checks.check_log_likelihood(estimate, data.x, data.y, "laplacian", 1.0, reported) is None
    wrong = reported * (1.0 + 1e-7)
    assert checks.check_log_likelihood(estimate, data.x, data.y, "laplacian", 1.0, wrong)
    perturbed = estimate + 1e-4
    assert checks.check_log_likelihood(perturbed, data.x, data.y, "laplacian", 1.0, reported)


def test_gaussian_density_matches_closed_form():
    r = np.array([-1.5, 0.0, 2.0])
    expected = np.log(np.exp(-r**2 / 8.0) / np.sqrt(8.0 * np.pi))
    np.testing.assert_allclose(checks.log_density("gaussian", 2.0, r), expected, rtol=1e-14)


def test_recovery_check(fitted):
    _, truth, estimate = fitted
    report = scoring.recovery_error(MlrParams(estimate), MlrParams(truth))
    assert checks.check_recovery(estimate, truth, report.error, report.assignment) is None
    # a perturbed estimate no longer has the reported error
    assert checks.check_recovery(estimate + 0.05, truth, report.error, report.assignment)
    # a non-optimal matching, reported with the error it attains
    bad = (0, 1, 2)
    attained = sum(np.linalg.norm(truth[:, j] - estimate[:, bad[j]]) for j in range(3))
    assert checks.check_recovery(estimate, truth, attained, bad)
    # the optimal error paired with a matching that does not attain it
    assert checks.check_recovery(estimate, truth, report.error, bad)


def test_ascent_check():
    assert checks.check_ascent([-10.0, -9.0, -9.0, -8.5]) is None
    assert checks.check_ascent([-10.0, -9.0, -9.001, -8.5])


@pytest.mark.parametrize("d", [1, 2])
def test_lad_check(d):
    gen = np.random.default_rng(d)
    x = gen.standard_normal((300, d))
    y = x @ np.arange(1.0, d + 1.0) + gen.laplace(size=300)
    w = gen.random(300)
    beta, _ = lad.dual_lp(x, y, w)
    assert checks.check_lad_optimal(x, y, w, beta) is None
    assert checks.check_lad_optimal(x, y, w, beta + 1e-3)


def test_roundtrip_check(fitted):
    data = fitted[0]
    assert checks.check_roundtrip(data, data) is None
    moved = dataclasses.replace(data, y=data.y + 1e-15 * np.abs(data.y).max())
    assert checks.check_roundtrip(data, moved)


def test_plateau_iteration():
    assert run.plateau_iteration([-5.0, -4.0, -3.0]) == 3
    assert run.plateau_iteration([-5.0, -4.0, -4.0, -4.0]) == 2
    assert run.plateau_iteration([-4.0, -4.0]) == 1


# --- the tracer ------------------------------------------------------------


def test_tracer_spans_self_time_and_restore():
    mod = types.ModuleType("fake.layer")

    def inner(n):
        return sum(range(n)), n

    def outer(n):
        return mod.inner(n)[0] + mod.inner(n)[0]

    inner.__module__ = outer.__module__ = "fake.layer"
    mod.inner, mod.outer = inner, outer
    tracer = tracing.Tracer([mod])
    with tracer:
        assert mod.outer(1000) == 2 * sum(range(1000))
    assert mod.inner is inner and mod.outer is outer
    names = [s[0] for s in tracer.spans]
    assert names == ["layer.outer", "layer.inner", "layer.inner"]
    assert [s[1] for s in tracer.spans] == [-1, 0, 0]
    totals = tracer.totals()
    children = totals["layer.inner"]["seconds"]
    assert totals["layer.outer"]["self_seconds"] == pytest.approx(
        totals["layer.outer"]["seconds"] - children, abs=1e-12
    )
    assert totals["layer.inner"]["calls"] == 2
