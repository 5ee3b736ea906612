"""Experiment grid runner: paired EM-vs-ADMM cells with timing capture.

Every cell draws its own dataset and starting point from a seed hashed
out of (base seed, K, d, noise kind, repetition), runs both solvers from
that identical state, and records recovery errors, wall times and final
likelihoods. Cells are independent, so results never depend on worker
count or completion order.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import admm, em, scoring, synth
from .model import NoiseKind, NoiseModel, SolverConfig, check_int, check_lad_route, check_positive
from .model import check_seed
from .rng import stable_hash

WORKERS_ENV = "MLRFIT_WORKERS"
NOISE_ORDER = (NoiseKind.GAUSSIAN, NoiseKind.LAPLACIAN)


@dataclass(frozen=True)
class ExperimentGrid:
    """Benchmark protocol: the (K, d) grid, scale, budget and seeding."""

    k_values: Tuple[int, ...]
    d_values: Tuple[int, ...]
    n_samples: int
    repetitions: int
    n_iterations: int
    sigma: float = 1.0
    noise_kinds: Tuple[NoiseKind, ...] = NOISE_ORDER
    rho: float = 5.0
    base_seed: int = 0
    lad_path: str = em.LAD_PATH_AUTO

    def __post_init__(self):
        for field, name in (("k_values", "k"), ("d_values", "d")):
            values = tuple(check_int(name, v) for v in getattr(self, field))
            if len(set(values)) != len(values):
                raise ValueError(f"{field} must not repeat a value, got {values}")
            object.__setattr__(self, field, values)
        kinds = tuple(NoiseKind(k) for k in self.noise_kinds)
        object.__setattr__(
            self, "noise_kinds", tuple(k for k in NOISE_ORDER if k in kinds)
        )
        if not self.k_values or not self.d_values or not self.noise_kinds:
            raise ValueError("k_values, d_values and noise_kinds must be non-empty")
        for field, check in (("n_samples", check_int), ("repetitions", check_int),
                             ("n_iterations", check_int), ("sigma", check_positive),
                             ("rho", check_positive)):
            object.__setattr__(self, field, check(field, getattr(self, field)))
        object.__setattr__(self, "base_seed", check_seed("base_seed", self.base_seed))
        check_lad_route(self.lad_path)

    def cells(self) -> List[Tuple[NoiseKind, int, int, int]]:
        """All (noise, k, d, rep) tuples in their canonical run order."""
        return [
            (kind, k, d, rep)
            for kind in self.noise_kinds
            for k in self.k_values
            for d in self.d_values
            for rep in range(self.repetitions)
        ]


@dataclass(frozen=True)
class CellResult:
    """One paired run of both solvers on one generated instance."""

    noise: NoiseKind
    k: int
    d: int
    rep: int
    seed: int
    status: str = "ok"
    lad_path: str = em.LAD_PATH_NA
    em_error: float = math.nan
    admm_error: float = math.nan
    em_seconds: float = math.nan
    admm_seconds: float = math.nan
    em_final_ll: float = math.nan
    admm_final_ll: float = math.nan

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def cell_seed(base_seed: int, k: int, d: int, kind: NoiseKind, rep: int) -> int:
    """Stable per-cell seed; distinct cells get distinct streams."""
    return stable_hash("cell", base_seed, k, d, NoiseKind(kind).value, rep)


def run_cell(grid: ExperimentGrid, kind: NoiseKind, k: int, d: int, rep: int) -> CellResult:
    """Generate one instance and run both solvers from the same start."""
    seed = cell_seed(grid.base_seed, k, d, kind, rep)
    shell = CellResult(noise=kind, k=k, d=d, rep=rep, seed=seed)
    try:
        nm = NoiseModel(kind, grid.sigma)
        data = synth.generate(k, d, grid.n_samples, nm, seed)
        cfg = SolverConfig(n_iterations=grid.n_iterations, rho=grid.rho, seed=seed)
        em_trace = em.fit_em(data, k, nm, cfg, lad_path=grid.lad_path)
        admm_trace = admm.fit_admm(data, k, nm, cfg)
        truth = data.true_params
        return replace(
            shell,
            lad_path=em_trace.lad_path,
            em_error=scoring.recovery_error(em_trace.params, truth).error,
            admm_error=scoring.recovery_error(admm_trace.params, truth).error,
            em_seconds=em_trace.wall_seconds,
            admm_seconds=admm_trace.wall_seconds,
            em_final_ll=float(em_trace.log_liks[-1]),
            admm_final_ll=float(admm_trace.log_liks[-1]),
        )
    except Exception as exc:  # cell failures must not sink the grid
        return replace(shell, status=f"failed: {type(exc).__name__}: {exc}")


def _run_cell_spec(args) -> CellResult:
    return run_cell(*args)


def default_workers() -> int:
    """Worker cap from MLRFIT_WORKERS; defaults to 1 for honest timings."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    return min(check_int(WORKERS_ENV, raw), os.cpu_count() or 1)


def run_grid(grid: ExperimentGrid, workers: Optional[int] = None) -> List[CellResult]:
    """Run every cell; results come back in canonical (noise, K, d, rep) order.

    With more than one worker, cells run in separate processes; each cell
    is internally deterministic, so parallelism changes wall time only.
    Per-cell solver timings are trustworthy for comparisons when
    workers = 1 (the default); concurrent cells can contend for cores.
    """
    if workers is None:
        workers = default_workers()
    specs = [(grid, kind, k, d, rep) for kind, k, d, rep in grid.cells()]
    if workers <= 1 or len(specs) <= 1:
        return [_run_cell_spec(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell_spec, specs))


@dataclass(frozen=True)
class SolverStats:
    """Recovery-error summary for one (noise, K, d, solver) cell group."""

    noise: NoiseKind
    k: int
    d: int
    solver: str
    mean_error: float
    std_error: float
    count: int


@dataclass(frozen=True)
class GridSummary:
    """Aggregated grid: per-cell-group stats plus paired diff vectors."""

    stats: Tuple[SolverStats, ...]
    error_diffs: Dict[NoiseKind, np.ndarray]  # em_error - admm_error, per ok cell
    time_diffs: Dict[NoiseKind, np.ndarray]  # em_seconds - admm_seconds
    n_failed: int


def aggregate(results: List[CellResult]) -> GridSummary:
    """Mean and sample standard deviation per cell group, plus paired diffs.

    Failed cells are excluded from every statistic and counted in
    ``n_failed``. Standard deviations use the n-1 convention and are 0
    for singleton groups.
    """
    if not results:
        raise ValueError("nothing to aggregate")
    ok = [r for r in results if r.ok]
    groups: Dict[Tuple[NoiseKind, int, int], List[CellResult]] = {}
    by_kind: Dict[NoiseKind, List[CellResult]] = {}
    for r in ok:  # each list keeps the input order, which fixes how its sums round
        groups.setdefault((r.noise, r.k, r.d), []).append(r)
        by_kind.setdefault(r.noise, []).append(r)
    stats = []
    for noise, k, d in sorted(groups, key=lambda g: (NOISE_ORDER.index(g[0]), g[1], g[2])):
        members = groups[noise, k, d]
        for solver, values in (
            ("admm", np.array([r.admm_error for r in members])),
            ("em", np.array([r.em_error for r in members])),
        ):
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            stats.append(
                SolverStats(
                    noise=noise,
                    k=k,
                    d=d,
                    solver=solver,
                    mean_error=float(values.mean()),
                    std_error=std,
                    count=values.size,
                )
            )
    kinds = [kind for kind in NOISE_ORDER if kind in by_kind]
    return GridSummary(
        stats=tuple(stats),
        error_diffs={
            kind: np.array([r.em_error - r.admm_error for r in by_kind[kind]]) for kind in kinds
        },
        time_diffs={
            kind: np.array([r.em_seconds - r.admm_seconds for r in by_kind[kind]])
            for kind in kinds
        },
        n_failed=len(results) - len(ok),
    )
