import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrfit import bench, io, synth
from mlrfit.model import Dataset, MlrParams, NoiseKind, NoiseModel


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
        lad_path="lp",
    )
    defaults = bench.ExperimentGrid(
        k_values=(2,), d_values=(1,), n_samples=1, repetitions=1, n_iterations=1
    )
    for f in dataclasses.fields(grid):
        assert getattr(grid, f.name) != getattr(defaults, f.name)
    text = "".join(f"{key} = {value}\n" for key, value in io.grid_config_values(grid).items())
    assert io.parse_grid_config(text) == grid


def _tricky_dataset():
    x = np.array([[-0.0, 1e16], [5e-324, 0.1], [1.0 / 3.0, -2.5e-300]])
    y = np.array([1e300, -0.0, 123456789.123456789])
    return Dataset(x=x, y=y, labels=np.array([0, 2, 1]))


def test_dataset_rows_render_every_float_with_fmt(tmp_path):
    data = _tricky_dataset()
    path = tmp_path / "data.txt"
    io.write_dataset(path, data, NoiseKind.LAPLACIAN, 1.0, 5)
    rows = [line for line in path.read_text().splitlines() if not line.startswith("# ")]
    assert rows == [
        ",".join([str(label + 1), io.fmt(yi)] + [io.fmt(v) for v in xi])
        for label, yi, xi in zip(data.labels, data.y, data.x)
    ]
    back, _ = io.read_dataset(path)
    assert np.array_equal(back.labels, data.labels)
    for got, want in ((back.x, data.x), (back.y, data.y)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_dataset_header_integers_may_be_written_as_floats(tmp_path):
    data = _tricky_dataset()
    io.write_dataset(tmp_path / "data.txt", data, NoiseKind.LAPLACIAN, 1.0, 5)
    text = (tmp_path / "data.txt").read_text()
    assert "\n# d = 2\n" in text
    (tmp_path / "float.txt").write_text(text.replace("\n# d = 2\n", "\n# d = 2.0\n"))
    back, meta = io.read_dataset(tmp_path / "float.txt")
    assert meta["d"] == 2 and type(meta["d"]) is int
    assert np.array_equal(back.x, data.x) and np.array_equal(back.y, data.y)


def test_dataset_rows_tolerate_padded_fields_and_blank_lines(tmp_path):
    data = _tricky_dataset()
    io.write_dataset(tmp_path / "data.txt", data, NoiseKind.LAPLACIAN, 1.0, 5)
    head, body = (tmp_path / "data.txt").read_text().split("x1,x2\n")
    rows = body.splitlines()
    padded = ",".join(f" {v} " for v in rows[0].split(","))
    for name, rows_text in (("padded", "\n".join([padded] + rows[1:])),
                            ("blank-lines", "\n\n".join(rows))):
        path = tmp_path / f"{name}.txt"
        path.write_text(head + "x1,x2\n\n" + rows_text + "\n")
        back, _ = io.read_dataset(path)
        assert np.array_equal(back.x, data.x) and np.array_equal(back.y, data.y), name
        assert np.array_equal(back.labels, data.labels), name


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 4),
    d=st.integers(1, 3),
    n=st.integers(1, 5),
    noise=st.sampled_from(NoiseKind),
    sigma=st.sampled_from([5e-324, 1e308]) | st.floats(min_value=0.0, exclude_min=True,
                                                       allow_infinity=False),
    seed=st.sampled_from([0, 3.0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    truth=st.booleans(),
    draw=st.integers(0, 2**32 - 1),
)
def test_dataset_write_read_write_is_byte_identical(k, d, n, noise, sigma, seed, truth, draw):
    rng = np.random.default_rng(draw)
    labels = rng.integers(0, k, n)
    true_params = MlrParams(rng.standard_normal((d, k))) if truth else None
    data = Dataset(x=rng.standard_normal((n, d)), y=rng.standard_normal(n), labels=labels,
                   true_params=true_params)
    header_k = k if truth else int(labels.max()) + 1
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.txt"), Path(tmp, "b.txt")
        written = io.write_dataset(first, data, noise, sigma, seed)
        back, meta = io.read_dataset(first)
        again = io.write_dataset(second, back, meta["noise"], meta["sigma"], meta["seed"])
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text().splitlines()
    # the header's bytes as every earlier version wrote them
    expected = [("k", str(header_k)), ("d", str(d)), ("n", str(n)), ("noise", noise.value),
                ("sigma", format(sigma, ".17g")), ("seed", str(int(seed)))]
    assert written == again == expected
    assert header[:8] == ["# mlrfit dataset", "# format = 1"] + [
        f"# {key} = {text}" for key, text in expected
    ]
    assert meta == {"k": header_k, "d": d, "n": n, "noise": noise, "sigma": sigma,
                    "seed": int(seed)}
    assert type(meta["seed"]) is int and type(meta["sigma"]) is float
    for got, want in ((back.x, data.x), (back.y, data.y), (back.labels, data.labels)):
        assert np.array_equal(got, want)
    if truth:
        assert np.array_equal(back.true_params.beta, data.true_params.beta)
    else:
        assert back.true_params is None


@pytest.mark.parametrize(
    "key,value,text",
    [("sigma", 0.0, "0"), ("sigma", -1.0, "-1"), ("sigma", math.nan, "nan"),
     ("sigma", math.inf, "inf"), ("seed", -1, "-1"), ("seed", 2**64, str(2**64)),
     ("seed", 3.7, "3.7")],
)
def test_writer_raises_the_readers_error_and_writes_nothing(tmp_path, key, value, text):
    data = _tricky_dataset()
    io.write_dataset(tmp_path / "good.txt", data, NoiseKind.LAPLACIAN, 1.0, 5)
    lines = (tmp_path / "good.txt").read_text().splitlines()
    line_no = next(i for i, line in enumerate(lines, 1) if line.startswith(f"# {key} = "))
    lines[line_no - 1] = f"# {key} = {text}"
    header = tmp_path / "header.txt"
    header.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as read_error:
        io.read_dataset(header)
    bad = tmp_path / "bad.txt"
    with pytest.raises(ValueError) as write_error:
        io.write_dataset(bad, data, NoiseKind.LAPLACIAN, **{"sigma": 1.0, "seed": 5, key: value})
    assert type(write_error.value) is type(read_error.value)
    assert str(read_error.value) == f"{header}:{line_no}: {write_error.value}"
    assert not bad.exists()


def test_labels_above_the_header_k_are_rejected(tmp_path):
    data = synth.generate(3, 1, 30, NoiseModel(NoiseKind.GAUSSIAN, 1.0), seed=4)
    assert data.labels.max() == 2
    # no beta_true lines, which would have to agree with the header's k
    io.write_dataset(tmp_path / "good.txt", Dataset(x=data.x, y=data.y, labels=data.labels),
                     NoiseKind.GAUSSIAN, 1.0, 4)
    text = (tmp_path / "good.txt").read_text()
    assert "\n# k = 3\n" in text
    (tmp_path / "bad.txt").write_text(text.replace("\n# k = 3\n", "\n# k = 1\n"))
    with pytest.raises(ValueError, match=r"bad\.txt: labels must be in 1\.\.1$"):
        io.read_dataset(tmp_path / "bad.txt")
