#!/usr/bin/env python3
"""Paired EM/ADMM fit benchmark for mlrfit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gauss-desk --seed 1 --seconds 20 --trace 0

Runs every paired cell of the workload (one EM fit and one ADMM fit from the
same data and start) in whole rounds until ``--seconds`` have passed, checks
each fit against computations made apart from mlrfit, and prints the metrics.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (fits), and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics, the tracing overhead, and which
end-to-end metric each layer metric should move. See README.md.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

# One BLAS thread: the solvers' products are N x d by d x K, too small to
# gain from threads, and a single thread keeps timings steady and never
# exceeds the host's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "mlrfit" / "__init__.py").is_file():
    sys.exit(f"perfbench: no mlrfit sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import mlrfit  # noqa: E402
from mlrfit import admm, em, io, lad, scoring, synth  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if not Path(mlrfit.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported mlrfit from {mlrfit.__file__}, not from {SRC}")

SETUP_REPEATS = 3
# Every LP_SAMPLE_STRIDE-th lad.dual_lp call of the first round is re-solved
# independently; a prime stride spreads the sample over cells and iterations.
LP_SAMPLE_STRIDE = 97
# A fit's likelihood has plateaued once every later step moves it by less
# than this share of its value.
PLATEAU_RTOL = 1e-8
TRACED_MODULES = (synth, io, em, lad, admm, scoring)

END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_ref", "1/ref"),
    ("em_iter_per_ref", "1/ref"),
    ("admm_iter_per_ref", "1/ref"),
    ("em_nll_rel", "ratio"),
    ("admm_nll_rel", "ratio"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better, end-to-end metric it should move)
PER_LAYER = (
    ("synth.generate_s", "s", "lower", "setup_s"),
    ("io.write_dataset_s", "s", "lower", "setup_s"),
    ("io.read_dataset_s", "s", "lower", "setup_s"),
    ("scoring.log_likelihood_s", "s", "lower", "em_iter_per_ref, admm_iter_per_ref"),
    ("scoring.log_likelihood_calls", "count", "lower", "em_iter_per_ref, admm_iter_per_ref"),
    ("em.e_step_s", "s", "lower", "em_iter_per_ref"),
    ("admm.responsibilities_s", "s", "lower", "admm_iter_per_ref"),
    ("em.fit_em_self_s", "s", "lower", "em_iter_per_ref"),
    ("admm.fit_admm_self_s", "s", "lower", "admm_iter_per_ref"),
    ("em.m_step_s", "s", "lower", "em_iter_per_ref"),
    ("lad.dual_lp_s", "s", "lower", "em_iter_per_ref"),
    ("lad.dual_lp_calls", "count", "lower", "em_iter_per_ref"),
    ("lad.irls_s", "s", "lower", "em_iter_per_ref"),
    ("lad.irls_calls", "count", "lower", "em_iter_per_ref"),
    ("lad.irls_passes", "count", "lower", "em_iter_per_ref"),
    ("lad.irls_passes_max", "count", "lower", "em_iter_per_ref"),
    ("lad.solve_1d_s", "s", "lower", "em_iter_per_ref"),
    ("admm.z_update_s", "s", "lower", "admm_iter_per_ref"),
    ("admm.beta_update_s", "s", "lower", "admm_iter_per_ref"),
    ("admm.gram_cholesky_s", "s", "lower", "admm_iter_per_ref"),
    ("em.ll_plateau_iter", "iter", "lower", "cells_per_ref"),
    ("admm.ll_plateau_iter", "iter", "lower", "cells_per_ref"),
    ("admm.final_primal_residual", "norm", "lower", "admm_nll_rel"),
    ("scoring.recovery_error_s", "s", "lower", "cells_per_ref"),
    ("em.recovery_error", "coef", "lower", "em_nll_rel"),
    ("admm.recovery_error", "coef", "lower", "admm_nll_rel"),
    ("trace.overhead_pct", "%", "lower", "none (cost of the traced run itself)"),
)


@dataclass
class FitRun:
    seconds: float
    trace: object = None  # EmTrace or AdmmTrace
    report: object = None  # scoring.RecoveryReport
    error: str = ""  # what the fit or its scoring raised
    problems: List[str] = field(default_factory=list)  # failed checks
    scored_seconds: float = math.nan  # the fit plus scoring its recovery error
    ref: float = math.nan  # reference-kernel seconds sampled around the fit

    @property
    def cost(self) -> float:
        """The fit's time in reference-kernel units, which cancels the host's drift."""
        return self.seconds / self.ref

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)


@dataclass
class CellRun:
    cell: workloads.Cell
    em: FitRun
    admm: FitRun

    @property
    def seconds(self) -> float:
        return self.em.scored_seconds + self.admm.scored_seconds

    @property
    def cost(self) -> float:
        """Both fits and their scoring, in reference-kernel units."""
        return self.em.scored_seconds / self.em.ref + self.admm.scored_seconds / self.admm.ref


@dataclass
class Round:
    traced: bool
    cells: List[CellRun]


class LpSampler:
    """Keeps every LP_SAMPLE_STRIDE-th lad.dual_lp call while entered."""

    def __init__(self):
        self.calls = 0
        self.cell = None  # index of the cell being fitted
        self.samples = []  # (cell index, x, y, weights, returned beta)

    def __enter__(self):
        self.original = lad.dual_lp

        def sampled(x, y, weights):
            beta, objective = self.original(x, y, weights)
            if self.calls % LP_SAMPLE_STRIDE == 0:
                self.samples.append((self.cell, x, y, weights, beta))
            self.calls += 1
            return beta, objective

        lad.dual_lp = sampled
        return self

    def __exit__(self, *exc):
        lad.dual_lp = self.original
        return False


def run_fit(fit, truth) -> FitRun:
    started = time.perf_counter()
    try:
        trace = fit()
    except Exception as exc:  # a fit that raises is counted as failed, not fatal
        elapsed = time.perf_counter() - started
        return FitRun(elapsed, error=f"{type(exc).__name__}: {exc}", scored_seconds=elapsed)
    seconds = time.perf_counter() - started
    try:
        report = scoring.recovery_error(trace.params, truth)
    except Exception as exc:
        return FitRun(seconds, trace, error=f"recovery_error: {type(exc).__name__}: {exc}",
                      scored_seconds=time.perf_counter() - started)
    return FitRun(seconds, trace, report, scored_seconds=time.perf_counter() - started)


def run_round(workload, cells, tracer=None, sampler=None) -> List[CellRun]:
    nm = mlrfit.NoiseModel(workload.noise, workloads.SIGMA)
    span = tracer.span if tracer else (lambda name: nullcontext())
    out = []
    ref = hostspeed.sample()
    for index, cell in enumerate(cells):
        if sampler is not None:
            sampler.cell = index
        truth = cell.data.true_params
        with span("bench.cell"):
            em_run = run_fit(
                lambda: em.fit_em(cell.data, cell.k, nm, cell.cfg, lad_path=workload.lad_path),
                truth,
            )
            mid = hostspeed.sample()
            admm_run = run_fit(lambda: admm.fit_admm(cell.data, cell.k, nm, cell.cfg), truth)
            after = hostspeed.sample()
        em_run.ref, admm_run.ref = 0.5 * (ref + mid), 0.5 * (mid + after)
        out.append(CellRun(cell, em_run, admm_run))
        ref = after
    return out


def check_fit(fit: FitRun, cell, workload, ascent: bool, first: Optional[FitRun]):
    """Append every failed check to fit.problems; ``first`` is round 1's run of the fit."""
    if fit.error:
        return
    data, trace = cell.data, fit.trace
    beta, lls = trace.params.beta, trace.log_liks
    found = [
        None if lls.shape == (cell.cfg.n_iterations,) else f"{lls.size} likelihoods recorded",
        checks.check_log_likelihood(
            beta, data.x, data.y, workload.noise.value, workloads.SIGMA, float(lls[-1])
        ),
        checks.check_recovery(
            beta, data.true_params.beta, fit.report.error, fit.report.assignment
        ),
        checks.check_ascent(lls) if ascent else None,
    ]
    if first is not None and not first.error:
        same = np.array_equal(beta, first.trace.params.beta) and np.array_equal(
            lls, first.trace.log_liks
        )
        found.append(None if same else "coefficients or likelihood trace differ from round 1")
    fit.problems.extend(p for p in found if p)


def check_rounds(workload, rounds: List[Round], sampler: LpSampler) -> None:
    for rnd in rounds:
        for index, run in enumerate(rnd.cells):
            first = None if rnd is rounds[0] else rounds[0].cells[index]
            check_fit(run.em, run.cell, workload, workload.ascent_exact, first and first.em)
            check_fit(run.admm, run.cell, workload, False, first and first.admm)
    for index, x, y, weights, beta in sampler.samples:
        problem = checks.check_lad_optimal(x, y, weights, beta)
        if problem:  # the program is deterministic, so every round made this call
            for rnd in rounds:
                rnd.cells[index].em.problems.append(f"sampled LP M-step: {problem}")


def plateau_iteration(lls) -> int:
    """First iteration after which every |delta ll| <= PLATEAU_RTOL * |ll|."""
    lls = np.asarray(lls, dtype=float)
    moving = np.nonzero(np.abs(np.diff(lls)) > PLATEAU_RTOL * np.abs(lls[1:]))[0]
    return int(moving[-1]) + 2 if moving.size else 1


def ok_fits(runs: List[CellRun], solver: str) -> List[FitRun]:
    return [getattr(c, solver) for c in runs if not getattr(c, solver).failed]


def mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else math.nan


def ref_cost(rounds: List[Round], cost_of, cells) -> float:
    """Sum over the given cells of their median cost over the rounds."""
    return math.fsum(statistics.median(cost_of(r.cells[i]) for r in rounds) for i in cells)


def iteration_rate(rounds: List[Round], solver: str) -> float:
    """Solver iterations per reference-kernel time, over the fits that never failed."""
    cells = [
        i for i in range(len(rounds[0].cells))
        if not any(getattr(r.cells[i], solver).failed for r in rounds)
    ]
    iterations = sum(getattr(rounds[0].cells[i], solver).trace.n_iterations for i in cells)
    return iterations / ref_cost(rounds, lambda c: getattr(c, solver).cost, cells)


def raw_rates(rounds: List[Round]) -> dict:
    """Median over rounds of the plain wall-clock rates, for the printed summary."""
    def rate(solver):
        return statistics.median(
            sum(f.trace.n_iterations for f in ok_fits(r.cells, solver))
            / math.fsum(f.seconds for f in ok_fits(r.cells, solver))
            for r in rounds
        )

    return {
        "cells/s": statistics.median(len(r.cells) / sum(c.seconds for c in r.cells) for r in rounds),
        "EM iterations/s": rate("em"),
        "ADMM iterations/s": rate("admm"),
        "ms per reference kernel": 1e3 * statistics.median(c.em.ref for r in rounds for c in r.cells),
    }


def nll_rel(fit: FitRun, cell) -> float:
    """Final NLL over the NLL of the generating coefficients on the same data."""
    data = cell.data
    truth_ll = checks.mixture_log_likelihood(
        data.true_params.beta, data.x, data.y, cell.noise, workloads.SIGMA
    )
    return float(fit.trace.log_liks[-1]) / truth_ll


def end_to_end_metrics(rounds: List[Round], setup_s: float) -> dict:
    first = rounds[0].cells
    values = {
        "setup_s": setup_s,
        "cells_per_ref": len(first) / ref_cost(rounds, lambda c: c.cost, range(len(first))),
        "em_iter_per_ref": iteration_rate(rounds, "em"),
        "admm_iter_per_ref": iteration_rate(rounds, "admm"),
        "em_nll_rel": mean(nll_rel(c.em, c.cell) for c in first if not c.em.failed),
        "admm_nll_rel": mean(nll_rel(c.admm, c.cell) for c in first if not c.admm.failed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(tracer: tracing.Tracer, rounds: List[Round]) -> dict:
    """Per-layer figures of one traced round, from the spans of all traced rounds."""
    totals = tracer.totals()
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    per_round = 1.0 / len(traced)

    def total(*names, key="seconds"):
        return sum(totals.get(n, {key: 0.0})[key] for n in names)

    irls_passes = totals.get("lad.irls", {"values": []})["values"]
    cells = traced[0].cells
    em_fits, admm_fits = ok_fits(cells, "em"), ok_fits(cells, "admm")
    values = {
        "synth.generate_s": total("synth.generate"),
        "io.write_dataset_s": total("io.write_dataset"),
        "io.read_dataset_s": total("io.read_dataset"),
        "scoring.log_likelihood_s": total("scoring.log_likelihood") * per_round,
        "scoring.log_likelihood_calls": total("scoring.log_likelihood", key="calls") * per_round,
        "em.e_step_s": total("em.e_step") * per_round,
        "admm.responsibilities_s": total("admm.responsibilities") * per_round,
        "em.fit_em_self_s": total("em.fit_em", key="self_seconds") * per_round,
        "admm.fit_admm_self_s": total("admm.fit_admm", key="self_seconds") * per_round,
        "em.m_step_s": total("em.m_step_gaussian", "em.m_step_laplacian") * per_round,
        "lad.dual_lp_s": total("lad.dual_lp") * per_round,
        "lad.dual_lp_calls": total("lad.dual_lp", key="calls") * per_round,
        "lad.irls_s": total("lad.irls") * per_round,
        "lad.irls_calls": total("lad.irls", key="calls") * per_round,
        "lad.irls_passes": sum(irls_passes) * per_round,
        "lad.irls_passes_max": max(irls_passes, default=0),
        "lad.solve_1d_s": total("lad.solve_1d") * per_round,
        "admm.z_update_s": total("admm.z_update_gaussian", "admm.z_update_laplacian") * per_round,
        "admm.beta_update_s": total("admm.beta_update") * per_round,
        "admm.gram_cholesky_s": total("admm.gram_cholesky") * per_round,
        "em.ll_plateau_iter": mean(plateau_iteration(f.trace.log_liks) for f in em_fits),
        "admm.ll_plateau_iter": mean(plateau_iteration(f.trace.log_liks) for f in admm_fits),
        "admm.final_primal_residual": mean(float(f.trace.primal_residuals[-1]) for f in admm_fits),
        "scoring.recovery_error_s": total("scoring.recovery_error") * per_round,
        "em.recovery_error": mean(f.report.error / f.trace.params.k_components for f in em_fits),
        "admm.recovery_error": mean(
            f.report.error / f.trace.params.k_components for f in admm_fits
        ),
        "trace.overhead_pct": 100.0
        * (
            ref_cost(traced, lambda c: c.cost, range(len(cells)))
            / ref_cost(untraced, lambda c: c.cost, range(len(cells)))
            - 1.0
        ),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}


def measure_setup(workload_name: str, seed: int) -> float:
    """Median over SETUP_REPEATS fresh interpreters of import plus data preparation.

    Each time is scaled by hostspeed.NOMINAL_S over the reference kernel's
    time sampled around that probe, which cancels the host's drift.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.sample()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed), str(OUT)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        ref = 0.5 * (before + hostspeed.sample())
        times.append(float(done.stdout.strip().splitlines()[-1]) * hostspeed.NOMINAL_S / ref)
    return statistics.median(times)


def run(workload, seed: int, seconds: float, trace: bool, setup_s: float = math.nan):
    """Prepare, run whole rounds for ``seconds``, check; returns (result, rounds, tracer)."""
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer(TRACED_MODULES) if trace else None
    with (tracer.span("bench.prepare") if trace else nullcontext()), (tracer or nullcontext()):
        cells = workloads.prepare(workload, seed, OUT)
    setup_problems = [
        f"{c.label}: {p}" for c in cells if (p := checks.check_roundtrip(c.source, c.data))
    ]

    rounds: List[Round] = []
    sampler = LpSampler()
    started = time.perf_counter()
    # Traced runs alternate untraced and traced rounds and end on a traced one.
    while not rounds or time.perf_counter() - started < seconds or (trace and len(rounds) % 2):
        traced = trace and len(rounds) % 2 == 1
        with (sampler if not rounds else nullcontext()), (tracer if traced else nullcontext()):
            with (tracer.span("bench.round") if traced else nullcontext()):
                runs = run_round(workload, cells, tracer if traced else None, sampler)
        rounds.append(Round(traced, runs))
    check_rounds(workload, rounds, sampler)

    fits = [f for r in rounds for c in r.cells for f in (c.em, c.admm)]
    metrics = layer_metrics(tracer, rounds) if trace else end_to_end_metrics(rounds, setup_s)
    result = {
        "correct": not setup_problems and not any(f.problems for f in fits),
        "attempted": len(fits),
        "failed": sum(f.failed for f in fits),
        "metrics": metrics,
    }
    for problem in setup_problems:
        print(f"FAILED set-up check {problem}", file=sys.stderr)
    for rnd_index, rnd in enumerate(rounds):
        for c in rnd.cells:
            for solver in ("em", "admm"):
                fit = getattr(c, solver)
                for problem in ([fit.error] if fit.error else []) + fit.problems:
                    print(f"FAILED round {rnd_index + 1} {c.cell.label} {solver}: {problem}",
                          file=sys.stderr)
    return result, rounds, tracer


def oracle_error(cells) -> float:
    return mean(
        checks.labelled_oracle_error(
            c.data.x, c.data.y, c.data.labels, c.data.true_params.beta, c.noise
        )
        for c in cells
    )


def report(workload, seed, result, rounds, tracer) -> None:
    cells = rounds[0].cells
    print(f"perfbench workload={workload.name} seed={seed} rounds={len(rounds)} "
          f"cells={len(cells)} fits attempted={result['attempted']} failed={result['failed']}")
    if tracer is None:
        for name, unit in END_TO_END:
            print(f"  {name:<18} {result['metrics'][name]['value']:.6g} {unit}")
        for name, value in raw_rates(rounds).items():
            print(f"  wall clock, median of rounds: {value:.6g} {name}")
        return
    print(f"  {'per-layer metric':<30} {'value':>12}  unit   should move")
    for name, unit, _, moves in PER_LAYER:
        print(f"  {name:<30} {result['metrics'][name]['value']:>12.6g}  {unit:<6} {moves}")
    print(f"  tracing overhead {result['metrics']['trace.overhead_pct']['value']:.2f}% of an "
          f"untraced round; all checks passed, bit-identity of traced and untraced fits "
          f"included: {result['correct']}")
    print(f"  labelled-oracle recovery error per component: {oracle_error(c.cell for c in cells):.6g}")
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(path)
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(HERE.parent)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setup_s = math.nan if args.trace else measure_setup(workload.name, args.seed)
    result, rounds, tracer = run(workload, args.seed, args.seconds, bool(args.trace), setup_s)
    report(workload, args.seed, result, rounds, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
