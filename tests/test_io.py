import dataclasses
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import line_by_line_read_dataset, savetxt_rows
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


# The block writer and the header-first reader against the row-by-row
# oracles in helpers: the np.savetxt rendering and the reader that
# walked every line.

BLOCK = io._BLOCK_ROWS
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0 / 3.0, -2.5e-300,
           1.7976931348623157e308, 123456789.123456789, 1e16]


def _drawn_dataset(n, d, k, special, draw, truth=False):
    """n rows of drawn values over many magnitudes, with the special values placed."""
    rng = np.random.default_rng(draw)
    table = rng.standard_normal((n, d + 1)) * 10.0 ** rng.integers(-300, 300, (n, d + 1))
    for at, value in special:
        table.flat[at % table.size] = value
    true_params = MlrParams(rng.standard_normal((d, k))) if truth else None
    return Dataset(x=table[:, 1:], y=table[:, 0], labels=rng.integers(0, k, n),
                   true_params=true_params)


def _rows_bytes(path):
    """The bytes of a dataset file below its ``# columns`` line."""
    text = path.read_bytes()
    return text[text.index(b"\n", text.index(b"\n# columns = ") + 1) + 1 :]


def _assert_same_read(got, want):
    (data, meta), (expected, expected_meta) = got, want
    assert meta == expected_meta
    assert np.array_equal(data.labels, expected.labels)
    for a, b in ((data.x, expected.x), (data.y, expected.y)):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    if expected.true_params is None:
        assert data.true_params is None
    else:
        assert np.array_equal(data.true_params.beta, expected.true_params.beta)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]) | st.integers(1, 5),
    d=st.integers(1, 3),
    k=st.integers(1, 4),
    special=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(SPECIAL)),
                     max_size=12),
    draw=st.integers(0, 2**32 - 1),
)
def test_block_writer_bytes_equal_savetxt_rows(n, d, k, special, draw):
    data = _drawn_dataset(n, d, k, special, draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.txt")
        io.write_dataset(path, data, NoiseKind.LAPLACIAN, 1.0, 5)
        assert _rows_bytes(path) == savetxt_rows(data).encode()
        back = io.read_dataset(path)
        _assert_same_read(back, line_by_line_read_dataset(path))
    _assert_same_read(back, (data, back[1]))


def test_block_writer_covers_every_block_boundary(tmp_path):
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        data = _drawn_dataset(n, 2, 3, list(enumerate(SPECIAL)), n)
        path = tmp_path / f"{n}.txt"
        io.write_dataset(path, data, NoiseKind.GAUSSIAN, 1.0, 5)
        assert _rows_bytes(path) == savetxt_rows(data).encode()
        assert _rows_bytes(path).count(b"\n") == n


def _variants(text):
    """The same dataset file laid out in each way the reader accepts."""
    head, rows = text.split("\n# columns = ")
    columns, *rows = rows.splitlines()
    head += "\n# columns = " + columns + "\n"
    return {
        "as-written": text,
        "crlf": text.replace("\n", "\r\n"),
        "no-final-newline": text[:-1],
        "blank-lines": head.replace("\n", "\n\n") + "\n\n".join(rows) + "\n\n",
        "padded": head + "\n".join(",".join(f" {v}\t" for v in row.split(",")) for row in rows),
    }


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 3),
    k=st.integers(1, 4),
    special=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(SPECIAL)),
                     max_size=8),
    truth=st.booleans(),
    draw=st.integers(0, 2**32 - 1),
)
def test_reader_equals_line_by_line_oracle(n, d, k, special, truth, draw):
    data = _drawn_dataset(n, d, k, special, draw, truth)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.txt")
        io.write_dataset(path, data, NoiseKind.LAPLACIAN, 0.5, 7)
        for name, text in _variants(path.read_text()).items():
            variant = Path(tmp, f"{name}.txt")
            variant.write_bytes(text.encode())
            back = io.read_dataset(variant)
            _assert_same_read(back, line_by_line_read_dataset(variant))
            _assert_same_read(back, (data, back[1]))


@pytest.mark.parametrize("name", ["crlf", "no-final-newline"])
def test_dataset_reads_crlf_and_a_missing_final_newline(tmp_path, name):
    data = _tricky_dataset()
    io.write_dataset(tmp_path / "data.txt", data, NoiseKind.LAPLACIAN, 1.0, 5)
    text = _variants((tmp_path / "data.txt").read_text())[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(text.encode())
    assert text.endswith("\r\n") if name == "crlf" else not text.endswith("\n")
    back, meta = io.read_dataset(path)
    assert meta["seed"] == 5 and meta["n"] == 3
    _assert_same_read((back, meta), (data, meta))


@pytest.mark.parametrize("below", [1, 3])
def test_header_line_below_a_row_is_rejected(tmp_path, below):
    # header lines come first; the line-by-line reader took this one in
    data = _tricky_dataset()
    io.write_dataset(tmp_path / "data.txt", data, NoiseKind.LAPLACIAN, 1.0, 5)
    lines = (tmp_path / "data.txt").read_text().splitlines()
    lines.remove("# seed = 5")
    lines.insert(len(lines) - 3 + below, "# seed = 5")
    path = tmp_path / "moved.txt"
    path.write_text("\n".join(lines) + "\n")
    assert line_by_line_read_dataset(path)[1]["seed"] == 5
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        io.read_dataset(path)


def _with_first_row(text, *fields):
    head, rows = text.split("x1,x2\n")
    return head + "x1,x2\n" + "\n".join([",".join(fields)] + rows.splitlines()[1:]) + "\n"


def _first_row(text):
    return text.split("x1,x2\n")[1].splitlines()[0].split(",")


# Each bad file as a change to a good one with n = 4, k = 2, d = 2 and
# beta_true lines; the reader must raise what the line-by-line reader raised.
BAD_FILES = {
    "key-unknown": lambda t: t.replace("# sigma = 1\n", "# sigma = 1\n# sigmaa = 7\n"),
    "key-repeated": lambda t: t.replace("# n = 4\n", "# n = 4\n# n = 4\n"),
    "key-missing": lambda t: t.replace("# seed = 3\n", ""),
    "not-key-value": lambda t: t.replace("# seed = 3\n", "# seed: 3\n"),
    "beta-index-repeated": lambda t: t.replace("# beta_true[2]", "# beta_true[01]"),
    "beta-index-text": lambda t: t.replace("# beta_true[1]", "# beta_true[one]"),
    "beta-missing": lambda t: t.replace("# beta_true[2] = -1 2\n", ""),
    "beta-coefficient-text": lambda t: t.replace("= 1 0.5\n", "= 1 abc\n"),
    "beta-coefficient-count": lambda t: t.replace("= 1 0.5\n", "= 1\n"),
    "format-other": lambda t: t.replace("# format = 1\n", "# format = 9\n"),
    "columns-other": lambda t: t.replace("# columns = label,y,x1,x2\n", "# columns = a,b\n"),
    "k-zero": lambda t: t.replace("# k = 2\n", "# k = 0\n"),
    "d-fractional": lambda t: t.replace("# d = 2\n", "# d = 1.5\n"),
    "noise-unknown": lambda t: t.replace("# noise = gaussian\n", "# noise = gauss\n"),
    "sigma-zero": lambda t: t.replace("# sigma = 1\n", "# sigma = 0\n"),
    "sigma-nan": lambda t: t.replace("# sigma = 1\n", "# sigma = nan\n"),
    "seed-negative": lambda t: t.replace("# seed = 3\n", "# seed = -1\n"),
    "seed-fractional": lambda t: t.replace("# seed = 3\n", "# seed = 3.7\n"),
    "n-above-rows": lambda t: t.replace("# n = 4\n", "# n = 5\n"),
    "n-below-rows": lambda t: t.replace("# n = 4\n", "# n = 3\n"),
    "no-rows": lambda t: t[: t.index("\n", t.index("# columns = ")) + 1],
    "short-row": lambda t: _with_first_row(t, *_first_row(t)[:-1]),
    "long-row": lambda t: _with_first_row(t, *_first_row(t), "1"),
    "float-label": lambda t: _with_first_row(t, "1.5", *_first_row(t)[1:]),
    "text-field": lambda t: _with_first_row(t, "1", "abc", *_first_row(t)[2:]),
    "blank-field": lambda t: _with_first_row(t, "1", "", *_first_row(t)[2:]),
    "hash-row": lambda t: _with_first_row(t, "#1", *_first_row(t)[1:]),
    "whitespace-row": lambda t: _with_first_row(t, "  "),
    "bad-last-row": lambda t: t[: t.rindex("\n", 0, -1) + 1] + "2,1,x,3\n",
    "label-zero": lambda t: _with_first_row(t, "0", *_first_row(t)[1:]),
    "label-above-k": lambda t: _with_first_row(t, "3", *_first_row(t)[1:]),
}


@pytest.mark.parametrize("name", BAD_FILES)
def test_bad_file_raises_what_the_line_by_line_reader_raised(tmp_path, name):
    data = synth.generate(2, 2, 4, NoiseModel(NoiseKind.GAUSSIAN, 1.0), seed=3)
    truth = MlrParams(np.array([[1.0, -1.0], [0.5, 2.0]]))
    data = Dataset(x=data.x, y=data.y, labels=data.labels, true_params=truth)
    io.write_dataset(tmp_path / "good.txt", data, NoiseKind.GAUSSIAN, 1.0, 3)
    text = (tmp_path / "good.txt").read_text()
    path = tmp_path / "bad.txt"
    path.write_text(BAD_FILES[name](text))
    assert path.read_text() != text
    with pytest.raises(Exception) as expected:
        line_by_line_read_dataset(path)
    with pytest.raises(type(expected.value)) as got:
        io.read_dataset(path)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert str(path) in str(got.value)
