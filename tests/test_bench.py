import numpy as np
import pytest

from mlrfit import admm, bench, em, io, scoring, synth
from mlrfit.model import NoiseKind, NoiseModel, SolverConfig

TINY_GRID = bench.ExperimentGrid(
    k_values=(2,),
    d_values=(1,),
    n_samples=120,
    repetitions=2,
    n_iterations=8,
    base_seed=77,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        bench.ExperimentGrid(
            k_values=(), d_values=(1,), n_samples=10, repetitions=1, n_iterations=1
        )
    with pytest.raises(ValueError):
        bench.ExperimentGrid(
            k_values=(2,), d_values=(1,), n_samples=10, repetitions=0, n_iterations=1
        )
    with pytest.raises(ValueError):
        bench.ExperimentGrid(
            k_values=(2,), d_values=(1,), n_samples=10, repetitions=1,
            n_iterations=1, lad_path="plain",
        )
    small = {"k_values": (2,), "d_values": (1,), "n_samples": 10, "repetitions": 1,
             "n_iterations": 1}
    for bad in ({"k_values": (0, 2)}, {"d_values": (0,)}, {"n_samples": 0},
                {"n_iterations": 0}, {"sigma": 0.0}, {"rho": -1.0},
                {"sigma": float("nan")}, {"rho": float("inf")},
                # integers are taken exactly: no fraction is truncated
                {"k_values": (2.5,)}, {"n_samples": 10.5}, {"repetitions": float("inf")},
                {"n_iterations": float("nan")},
                # the base seed follows the seed rule
                {"base_seed": -1}, {"base_seed": 2**64}, {"base_seed": 3.7},
                {"base_seed": float("nan")},
                # the LAD route is checked on a Gaussian-only grid too
                {"noise_kinds": (NoiseKind.GAUSSIAN,), "lad_path": "plain"}):
        with pytest.raises(ValueError):
            bench.ExperimentGrid(**{**small, **bad})
    for repeated in ({"k_values": (2, 2), "d_values": (1,)},
                     {"k_values": (2,), "d_values": (1, 3, 1)}):
        with pytest.raises(ValueError, match="must not repeat"):
            bench.ExperimentGrid(n_samples=10, repetitions=1, n_iterations=1, **repeated)


def test_integral_float_base_seed_is_the_integer_seed():
    small = {"k_values": (2,), "d_values": (1,), "n_samples": 10, "repetitions": 2,
             "n_iterations": 1, "sigma": 1, "rho": 5}
    as_int = bench.ExperimentGrid(**small, base_seed=3)
    as_float = bench.ExperimentGrid(**small, base_seed=3.0)
    assert type(as_float.base_seed) is int
    assert type(as_float.sigma) is float and type(as_float.rho) is float
    echo = io.grid_config_values(as_float)
    assert echo == io.grid_config_values(as_int) and echo["base_seed"] == "3"
    assert io.parse_grid_config("".join(f"{k} = {v}\n" for k, v in echo.items())) == as_int
    for kind, k, d, rep in as_float.cells():
        seed = bench.run_cell(as_float, kind, k, d, rep).seed
        assert seed == bench.run_cell(as_int, kind, k, d, rep).seed
        assert seed == bench.cell_seed(3, k, d, kind, rep)


def test_cell_count_and_distinct_seeds():
    results = bench.run_grid(TINY_GRID, workers=1)
    assert len(results) == 2 * 2  # reps x noise kinds
    seeds = [r.seed for r in results]
    assert len(set(seeds)) == len(seeds)
    assert all(r.ok for r in results)


def test_cell_seeds_stable_across_runs():
    # frozen values pin the hash so future runs keep reading old CSVs correctly
    assert bench.cell_seed(77, 2, 1, NoiseKind.GAUSSIAN, 0) == 17244991033999928465
    assert bench.cell_seed(77, 2, 1, NoiseKind.LAPLACIAN, 1) == 13600167738196838739


def test_grid_determinism_excluding_wall_times():
    a = bench.run_grid(TINY_GRID, workers=1)
    b = bench.run_grid(TINY_GRID, workers=1)
    for left, right in zip(a, b):
        assert (left.noise, left.k, left.d, left.rep, left.seed) == (
            right.noise, right.k, right.d, right.rep, right.seed
        )
        assert left.status == right.status
        assert left.lad_path == right.lad_path
        assert left.em_error == right.em_error
        assert left.admm_error == right.admm_error
        assert left.em_final_ll == right.em_final_ll
        assert left.admm_final_ll == right.admm_final_ll
        assert left.em_seconds > 0 and right.admm_seconds > 0


def test_cells_reproducible_from_recorded_seed():
    result = bench.run_grid(TINY_GRID, workers=1)[0]
    nm = NoiseModel(result.noise, TINY_GRID.sigma)
    data = synth.generate(result.k, result.d, TINY_GRID.n_samples, nm, result.seed)
    cfg = SolverConfig(
        n_iterations=TINY_GRID.n_iterations, rho=TINY_GRID.rho, seed=result.seed
    )
    em_trace = em.fit_em(data, result.k, nm, cfg, lad_path=TINY_GRID.lad_path)
    admm_trace = admm.fit_admm(data, result.k, nm, cfg)
    assert scoring.recovery_error(em_trace.params, data.true_params).error == result.em_error
    assert (
        scoring.recovery_error(admm_trace.params, data.true_params).error
        == result.admm_error
    )


def test_worker_pool_matches_serial():
    parallel = bench.run_grid(TINY_GRID, workers=2)
    serial = bench.run_grid(TINY_GRID, workers=1)
    for p, s in zip(parallel, serial):
        assert p.seed == s.seed and p.em_error == s.em_error
        assert p.admm_error == s.admm_error


def test_aggregate_single_and_pair():
    results = bench.run_grid(TINY_GRID, workers=1)
    single = bench.aggregate(results[:1])
    assert single.stats[0].count == 1 and single.stats[0].std_error == 0.0
    import dataclasses

    synthetic = [
        dataclasses.replace(results[0], em_error=1.0, admm_error=1.0),
        dataclasses.replace(results[1], em_error=3.0, admm_error=3.0),
    ]
    summary = bench.aggregate(synthetic)
    for s in summary.stats:
        assert s.mean_error == pytest.approx(2.0)
        assert s.std_error == pytest.approx(np.sqrt(2.0))


def test_aggregate_matches_two_pass_recomputation():
    rng = np.random.default_rng(0)
    import dataclasses

    base = bench.run_grid(TINY_GRID, workers=1)[0]
    cells = [
        dataclasses.replace(base, rep=i, em_error=float(v), admm_error=float(v) / 2)
        for i, v in enumerate(rng.uniform(0.1, 2.0, 30))
    ]
    summary = bench.aggregate(cells)
    em_values = np.array([c.em_error for c in cells])
    mean = em_values.sum() / 30
    std = np.sqrt(np.sum((em_values - mean) ** 2) / 29)
    em_stats = [s for s in summary.stats if s.solver == "em"][0]
    assert em_stats.mean_error == pytest.approx(mean, abs=1e-12)
    assert em_stats.std_error == pytest.approx(std, abs=1e-12)


def test_failed_cells_flagged_not_fatal():
    # n_samples < K forces a degenerate fit somewhere; simulate via monkeypatch
    import dataclasses

    grid = dataclasses.replace(TINY_GRID)
    results = bench.run_grid(grid, workers=1)
    broken = [dataclasses.replace(results[0], status="failed: Boom: synthetic")]
    summary = bench.aggregate(broken + results[1:])
    assert summary.n_failed == 1


def test_serial_cell_times_fit_inside_grid_wall_time():
    import time

    started = time.perf_counter()
    results = bench.run_grid(TINY_GRID, workers=1)
    elapsed = time.perf_counter() - started
    total = sum(r.em_seconds + r.admm_seconds for r in results)
    assert total <= elapsed


def test_laplacian_lp_timing_direction_small():
    grid = bench.ExperimentGrid(
        k_values=(2,),
        d_values=(2,),
        n_samples=400,
        repetitions=2,
        n_iterations=30,
        noise_kinds=(NoiseKind.LAPLACIAN,),
        base_seed=5,
        lad_path="lp",
    )
    summary = bench.aggregate(bench.run_grid(grid, workers=1))
    assert summary.time_diffs[NoiseKind.LAPLACIAN].mean() > 0
