"""Workload definitions and their input preparation.

A workload is a grid of paired cells: K in {2, 3}, d in {1, 2}, and a few
repetitions. Each cell draws its dataset and the solvers' shared start from
``bench.cell_seed(seed, K, d, noise, rep)``, exactly as ``mlrfit benchmark``
does, so a benchmark cell and a grid cell with the same base seed pair up.
Every dataset is round-tripped through the plain-text dataset format, as
the command line does, and the fits run on the parsed copy.
"""

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from mlrfit import bench, em, io, synth
from mlrfit.model import Dataset, NoiseKind, NoiseModel, SolverConfig

K_VALUES = (2, 3)
D_VALUES = (1, 2)
SIGMA = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    noise: NoiseKind
    n_samples: int
    n_iterations: int
    lad_path: str
    reps: int
    # EM's ascent property holds only where every M-step is an exact
    # maximiser; the smoothed IRLS route may fall by ~5e-6 relative.
    ascent_exact: bool


# Budgets and repetitions keep a round to a few seconds, so a 20 s run
# repeats every cell at least twice. laplace-large trades iterations for
# repetitions: IRLS pass counts depend on the data, and eight iterations
# over 16 cells average that out better than fifteen over 8.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gauss-desk", NoiseKind.GAUSSIAN, 2000, 500, em.LAD_PATH_AUTO, 1, True),
        Workload("laplace-lp", NoiseKind.LAPLACIAN, 2000, 50, em.LAD_PATH_LP, 1, True),
        Workload("laplace-large", NoiseKind.LAPLACIAN, 20000, 8, em.LAD_PATH_AUTO, 4, False),
    )
}


@dataclass(frozen=True)
class Cell:
    k: int
    d: int
    rep: int
    seed: int
    noise: str  # NoiseKind value
    source: Dataset  # as generated
    data: Dataset  # as parsed back from its file; the fits use this copy
    cfg: SolverConfig

    @property
    def label(self) -> str:
        return f"K={self.k} d={self.d} rep={self.rep}"


def cell_specs(workload: Workload, seed: int) -> List[Tuple[int, int, int, int]]:
    """(K, d, rep, cell seed) for every cell, in run order."""
    return [
        (k, d, rep, bench.cell_seed(seed, k, d, workload.noise, rep))
        for rep in range(workload.reps)
        for k in K_VALUES
        for d in D_VALUES
    ]


def prepare(workload: Workload, seed: int, scratch_dir) -> List[Cell]:
    """Generate every cell's dataset, write it, and read it back."""
    nm = NoiseModel(workload.noise, SIGMA)
    cells = []
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        for k, d, rep, cell_seed in cell_specs(workload, seed):
            path = Path(tmp) / f"k{k}-d{d}-r{rep}.txt"
            source = synth.generate(k, d, workload.n_samples, nm, cell_seed)
            io.write_dataset(path, source, workload.noise, SIGMA, cell_seed)
            data, _ = io.read_dataset(path)
            cfg = SolverConfig(n_iterations=workload.n_iterations, seed=cell_seed)
            cells.append(Cell(k, d, rep, cell_seed, workload.noise.value, source, data, cfg))
    return cells
