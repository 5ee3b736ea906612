import dataclasses
import math

from mlrfit import bench, io
from mlrfit.model import NoiseKind


def test_cells_csv_write_read_write_is_byte_identical(tmp_path):
    cells = [
        bench.CellResult(
            noise=NoiseKind.GAUSSIAN, k=3, d=2, rep=0, seed=2**64 - 1, lad_path="n/a",
            em_error=0.1, admm_error=1.0 / 3.0, em_seconds=1e-300, admm_seconds=2.5,
            em_final_ll=-284.0928841836639, admm_final_ll=-math.inf,
        ),
        bench.CellResult(
            noise=NoiseKind.LAPLACIAN, k=2, d=1, rep=4, seed=17,
            status='failed: ValueError: bad "x", y',
        ),
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text(io.rows_text(cells, bench.CellResult), newline="\n")
    read_back = io.read_rows(first, bench.CellResult)
    second.write_text(io.rows_text(read_back, bench.CellResult), newline="\n")
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[0] == ",".join(
        f.name for f in dataclasses.fields(bench.CellResult)
    )
    assert read_back[1].status == cells[1].status and not read_back[1].ok
    assert math.isnan(read_back[1].em_error)


def test_grid_config_round_trips_every_field():
    grid = bench.ExperimentGrid(
        k_values=(2, 5), d_values=(3,), n_samples=77, repetitions=4, n_iterations=9,
        sigma=0.1, noise_kinds=(NoiseKind.LAPLACIAN,), rho=2.5, base_seed=11,
        lad_path="lp", lad_lp_cap=123,
    )
    defaults = bench.ExperimentGrid(
        k_values=(2,), d_values=(1,), n_samples=1, repetitions=1, n_iterations=1
    )
    for f in dataclasses.fields(grid):
        assert getattr(grid, f.name) != getattr(defaults, f.name)
    text = "".join(f"{key} = {value}\n" for key, value in io.grid_config_values(grid).items())
    assert io.parse_grid_config(text) == grid
