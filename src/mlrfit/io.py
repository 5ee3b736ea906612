"""File formats: datasets, fit results, manifests, configs, benchmark tables.

Everything is plain text. Floats are serialized with 17 significant
digits so write-read-write round trips are byte-identical. Component
indices are 1-based in every file and converted at this boundary.
"""

import csv
import dataclasses
import itertools
import math
import os
import typing
from io import StringIO
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bench, scoring
from .errors import InsufficientData, ZeroVariance
from .model import Dataset, MlrParams, NoiseKind, check_int, check_positive, check_seed

FORMAT_VERSION = "1"


def fmt(value) -> str:
    """Canonical float serialization, lossless for doubles."""
    return format(float(value), ".17g")


def write_text(path, text: str) -> None:
    """Write a whole text file with \\n line endings on every platform."""
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _parse_kv_line(line: str, path: str, line_no: int) -> Tuple[str, str]:
    if " = " not in line:
        raise ValueError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
    key, value = line.split(" = ", 1)
    return key.strip(), value.strip()


# ---------------------------------------------------------------------------
# dataset files


# The settings of a dataset file's header, in file order: each key's model
# rule, which reads its text, and how its value is written. The writer passes
# each value through the rule, so every header it writes reads back.
_SETTINGS: Dict[str, Tuple[Callable, Callable]] = {
    "k": (check_int, str),
    "d": (check_int, str),
    "n": (check_int, str),
    "noise": (lambda _, value: NoiseKind(value), lambda kind: kind.value),
    "sigma": (check_positive, fmt),
    "seed": (check_seed, str),
}
# The keys of a dataset file's header, beside its beta_true[j] lines.
_DATASET_KEYS = ("format", *_SETTINGS, "columns")
# Rows per formatting pass of write_dataset: one Python call per block
# instead of one per row, while a block's text stays under about 200 kB.
_BLOCK_ROWS = 2048


def write_dataset(path, data: Dataset, noise: NoiseKind, sigma: float, seed: int):
    """Write a dataset in the header-plus-CSV layout; return its settings' (key, text) pairs.

    Each value passes its rule before the file is opened, so a value the
    reader would reject raises the reader's error and writes nothing. The
    rows are formatted _BLOCK_ROWS at a time, each block by one ``%``
    over the row format repeated once per row, with the conversions that
    ``np.savetxt`` applies row by row, so the bytes are savetxt's.
    """
    if data.labels is None:
        raise ValueError("dataset files carry generating labels")
    k = data.true_params.k_components if data.true_params is not None else (
        int(data.labels.max()) + 1
    )
    values = dict(k=k, d=data.dim, n=data.n_samples, noise=noise, sigma=sigma, seed=seed)
    settings = [(key, write(read(key, values[key]))) for key, (read, write) in _SETTINGS.items()]
    lines = ["# mlrfit dataset", f"# format = {FORMAT_VERSION}"]
    lines += [f"# {key} = {text}" for key, text in settings]
    if data.true_params is not None:
        for j in range(k):
            coeffs = " ".join(fmt(v) for v in data.true_params.beta[:, j])
            lines.append(f"# beta_true[{j + 1}] = {coeffs}")
    lines.append(f"# columns = {_columns(data.dim)}")
    # '%.17g' % v is fmt(v), and the labels are small integers, exact as
    # floats, so '%d' prints them whole.
    table = np.column_stack([data.labels + 1, data.y, data.x])
    row = "%d" + ",%.17g" * (data.dim + 1) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            handle.write(row * len(block) % tuple(block.ravel().tolist()))
    return settings


def _columns(d: int) -> str:
    """The ``columns`` header value of a dataset with d covariates."""
    return ",".join(["label", "y"] + [f"x{j + 1}" for j in range(d)])


def _exactly(key: str, wanted: str, text: str) -> None:
    if text != wanted:
        raise ValueError(f"{key} must be {wanted!r}, got {text!r}")


def _at_line(path, line_no: int, rule: Callable, *args):
    """``rule(*args)``, with a ValueError it raises prefixed by path:line."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise type(exc)(f"{path}:{line_no}: {exc}") from exc


def _coefficients(key: str, d: int, text: str) -> List[float]:
    """The d finite coefficients of a ``beta_true[j]`` header line."""
    try:
        values = [float(v) for v in text.split()]
    except ValueError:
        values = []
    if len(values) != d or not all(map(math.isfinite, values)):
        raise ValueError(f"{key} must be {d} finite real numbers, got {text!r}")
    return values


def _read_header(handle, path) -> Tuple[Dict[str, Tuple[str, int]], Optional[str]]:
    """The header of an open dataset file, read up to its first row.

    Returns key -> (value, line number) and the first row, None if the
    file ends first; an unknown or repeated key names the file and line.
    """
    header: Dict[str, Tuple[str, int]] = {}
    for line_no, raw in enumerate(handle, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if not line.startswith("# "):
            return header, raw
        if line == "# mlrfit dataset":
            continue
        key, value = _parse_kv_line(line[2:], str(path), line_no)
        if key.startswith("beta_true["):  # so beta_true[01] repeats beta_true[1]
            index = key[len("beta_true[") : -1]
            index = _at_line(path, line_no, check_int, "beta_true index", index)
            key = f"beta_true[{index}]"
        elif key not in _DATASET_KEYS:
            raise ValueError(f"{path}:{line_no}: unknown dataset header key {key!r}")
        if key in header:
            raise ValueError(f"{path}:{line_no}: duplicate dataset header key {key!r}")
        header[key] = (value, line_no)
    return header, None


def read_dataset(path) -> Tuple[Dataset, Dict]:
    """Parse a dataset file back into a Dataset plus its header metadata.

    The ``# `` header lines come first, blank lines aside. The first other
    line starts the rows, which go with the rest of the file to one
    ``np.loadtxt`` call, so a header line below a row is read as a row,
    and the file is rejected.
    A header error names the file and the line: a repeated or unknown
    key, a ``format`` other than FORMAT_VERSION, ``columns`` other than
    label,y,x1..xd, or a value outside its ``model`` rule. A bad row, a
    row count other than the header's n and a label outside 1..k name the
    file.
    """
    with open(path, "r") as handle:
        header, first_row = _read_header(handle, path)
        for required in _DATASET_KEYS:
            if required not in header:
                raise ValueError(f"{path}: missing dataset header key {required!r}")

        def parse(key, rule, *args):
            value, line_no = header[key]
            return _at_line(path, line_no, rule, *args, value)

        parse("format", _exactly, "format", FORMAT_VERSION)
        meta = {key: parse(key, read, key) for key, (read, _) in _SETTINGS.items()}
        k, d, n = meta["k"], meta["d"], meta["n"]
        parse("columns", _exactly, "columns", _columns(d))
        dtype = [("label", np.int64), ("y", float), ("x", float, (d,))]
        table = np.empty(0, dtype=dtype)
        if first_row is not None:
            # comments=None: a '#' line among the rows, a header line too, is a bad row
            try:
                table = np.loadtxt(itertools.chain([first_row], handle), delimiter=",",
                                   comments=None, ndmin=1, dtype=dtype)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    if len(table) != n:
        raise ValueError(f"{path}: header says n = {n} but found {len(table)} rows")
    true_params: Optional[MlrParams] = None
    beta_keys = {key for key in header if key.startswith("beta_true[")}
    if beta_keys:
        wanted = [f"beta_true[{j}]" for j in range(1, k + 1)]
        if beta_keys != set(wanted):
            raise ValueError(f"{path}: beta_true lines must cover components 1..{k}")
        columns = [parse(key, _coefficients, key, d) for key in wanted]
        true_params = MlrParams(np.column_stack(columns))
    labels = table["label"] - 1
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"{path}: labels must be in 1..{k}")
    return Dataset(x=table["x"], y=table["y"], labels=labels, true_params=true_params), meta


# ---------------------------------------------------------------------------
# fit result files and manifests


def fit_result_text(
    settings: Sequence[Tuple[str, str]],
    params: MlrParams,
    recovery: Optional[scoring.RecoveryReport],
    wall_seconds: float,
    log_liks: np.ndarray,
    residuals: Optional[np.ndarray] = None,
) -> str:
    """Render a fit result; ``settings`` is the ordered config echo."""
    lines = ["# mlrfit fit result", f"format = {FORMAT_VERSION}"]
    lines.extend(f"{key} = {value}" for key, value in settings)
    lines.append(
        "error_metric = sum over components of euclidean coefficient distance,"
        " unnormalized"
    )
    for j in range(params.k_components):
        coeffs = " ".join(fmt(v) for v in params.beta[:, j])
        lines.append(f"beta[{j + 1}] = {coeffs}")
    if recovery is not None:
        lines.append(f"recovery_error = {fmt(recovery.error)}")
        matched = ",".join(str(j + 1) for j in recovery.assignment)
        lines.append(f"recovery_assignment = {matched}")
    lines.append(f"wall_seconds = {fmt(wall_seconds)}")
    for t, value in enumerate(log_liks, start=1):
        lines.append(f"ll[{t}] = {fmt(value)}")
    if residuals is not None:
        for t, value in enumerate(residuals, start=1):
            lines.append(f"residual[{t}] = {fmt(value)}")
    return "\n".join(lines) + "\n"


def manifest_text(
    version: str,
    command: str,
    started_at: str,
    finished_at: str,
    config: Dict[str, object],
    inputs: Dict[str, str],
    outputs: Dict[str, str],
) -> str:
    """Key-value manifest; every produced file points back at one of these."""
    lines = [
        "# mlrfit manifest",
        f"tool = mlrfit {version}",
        f"command = {command}",
        f"started_at = {started_at}",
        f"finished_at = {finished_at}",
    ]
    for key in sorted(config):
        value = config[key]
        rendered = fmt(value) if isinstance(value, float) else str(value)
        lines.append(f"config.{key} = {rendered}")
    for key in sorted(inputs):
        lines.append(f"input.{key} = {inputs[key]}")
    for key in sorted(outputs):
        lines.append(f"output.{key} = {outputs[key]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# benchmark config files and CSV tables
#
# Each format is the fields of one dataclass in declaration order: a config
# key (ExperimentGrid) or a CSV column (CellResult for cells.csv, SolverStats
# for summary.csv, HistBin for timing_hist_*.csv) per field, rendered and
# parsed by the codec of the field's type.

# (render, parse) for one field type
Codec = Tuple[Callable[[Any], str], Callable[[str], Any]]

_SCALAR_CODECS: Dict[type, Codec] = {
    int: (str, int),
    float: (fmt, float),
    str: (str, str),
    NoiseKind: (lambda kind: kind.value, NoiseKind),
}


def _codec(field_type) -> Codec:
    """The codec of a field type; tuples are comma-joined."""
    if typing.get_origin(field_type) is tuple:
        render, parse = _codec(typing.get_args(field_type)[0])
        return (
            lambda values: ",".join(render(v) for v in values),
            lambda text: tuple(parse(v.strip()) for v in text.split(",")),
        )
    return _SCALAR_CODECS[field_type]


def _schema(cls) -> Dict[str, Codec]:
    """Field name -> codec, in declaration order."""
    hints = typing.get_type_hints(cls)
    return {f.name: _codec(hints[f.name]) for f in dataclasses.fields(cls)}


_GRID_SCHEMA = _schema(bench.ExperimentGrid)
_GRID_TUPLES = {
    name for name, hint in typing.get_type_hints(bench.ExperimentGrid).items()
    if typing.get_origin(hint) is tuple
}


def grid_config_values(grid: bench.ExperimentGrid) -> Dict[str, str]:
    """Every grid field rendered as its config value, in field order."""
    return {name: render(getattr(grid, name)) for name, (render, _) in _GRID_SCHEMA.items()}


def parse_grid_config(text: str, source: str = "<config>") -> bench.ExperimentGrid:
    """Parse the key-value benchmark config; unknown keys are errors.

    A key is required when its ExperimentGrid field has no default.
    """
    values: Dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = _parse_kv_line(line, source, line_no)
        if key not in _GRID_SCHEMA:
            raise ValueError(f"{source}:{line_no}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{source}:{line_no}: duplicate config key {key!r}")
        values[key] = value
    for f in dataclasses.fields(bench.ExperimentGrid):
        missing = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if missing and f.name not in values:
            raise ValueError(f"{source}: missing required config key {f.name!r}")
    # the grid's own checks, the model rules, read each value from its text
    return bench.ExperimentGrid(**{
        name: tuple(v.strip() for v in text.split(",")) if name in _GRID_TUPLES else text
        for name, text in values.items()
    })


def rows_text(rows: Sequence[Any], row_type: type) -> str:
    """CSV text of dataclass rows: the field names, then one line per row."""
    schema = _schema(row_type)
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(schema)
    for row in rows:
        writer.writerow(render(getattr(row, name)) for name, (render, _) in schema.items())
    return out.getvalue()


def read_rows(path, row_type: type) -> List[Any]:
    """Parse a file written from ``rows_text`` back into ``row_type`` rows."""
    schema = _schema(row_type)
    rows = []
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(schema):
            raise ValueError(f"{path}: unexpected header {header!r}, wanted {list(schema)!r}")
        for row in reader:
            if len(row) != len(schema):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(schema)} fields, got {len(row)}"
                )
            fields = zip(schema.items(), row)
            rows.append(row_type(**{name: parse(value) for (name, (_, parse)), value in fields}))
    return rows


def summary_table_text(summary: bench.GridSummary, kind: NoiseKind) -> str:
    """Mean (std) recovery-error table; per (K, d) the admm line sits above em."""
    stats = {(s.k, s.d, s.solver): s for s in summary.stats if s.noise is kind}
    ks = sorted({k for k, _, _ in stats})
    ds = sorted({d for _, d, _ in stats})

    def cell(k, d, solver):
        s = stats.get((k, d, solver))
        return f"{s.mean_error:.4f} ({s.std_error:.4f})" if s else "-"

    width = max(
        [len(cell(k, d, solver)) for k in ks for d in ds for solver in ("admm", "em")]
        + [len(f"d={d}") for d in ds]
    ) + 3
    lines = [
        "# mlrfit benchmark summary",
        f"# noise = {kind.value}",
        "# recovery error, mean (std) over repetitions",
        "# per (K, d) cell: first line admm, second line em",
        "",
        "         " + "".join(f"d={d}".ljust(width) for d in ds),
    ]
    for k in ks:
        lines.append(
            f"K={k}".ljust(5) + "admm".ljust(6)
            + "".join(cell(k, d, "admm").ljust(width) for d in ds)
        )
        lines.append(
            " " * 5 + "em".ljust(6) + "".join(cell(k, d, "em").ljust(width) for d in ds)
        )
    return "\n".join(lines) + "\n"


HIST_BINS = 20


@dataclasses.dataclass(frozen=True)
class HistBin:
    """One row of a timing_hist_*.csv file."""

    bin_left: float
    bin_right: float
    count: int


def timing_histogram(diffs: np.ndarray) -> List[HistBin]:
    counts, edges = np.histogram(np.asarray(diffs, dtype=float), bins=HIST_BINS)
    return [
        HistBin(float(edges[i]), float(edges[i + 1]), int(count))
        for i, count in enumerate(counts)
    ]


def read_hist_csv(path):
    """Bin edges and counts of a timing histogram file."""
    bins = read_rows(path, HistBin)
    if not bins:
        raise ValueError(f"{path}: histogram has no bins")
    edges = [b.bin_left for b in bins] + [bins[-1].bin_right]
    return np.array(edges), np.array([b.count for b in bins], dtype=np.int64)


def ttest_text(
    subject: str, mean_key: str, diffs: np.ndarray, hypotheses: Sequence[Tuple[str, float]]
) -> str:
    """One-sided paired t-tests on em - admm differences.

    Each ``(prefix, sign)`` hypothesis tests mean(sign * diffs) > 0 and
    writes one ``prefix.*`` block.
    """
    diffs = np.asarray(diffs, dtype=float)
    lines = [
        f"# paired t-test on {subject}, alpha = 0.05",
        f"n = {diffs.size}",
        f"{mean_key} = {fmt(diffs.mean()) if diffs.size else 'nan'}",
    ]
    for prefix, sign in hypotheses:
        try:
            result = scoring.paired_t_test(sign * diffs)
        except (InsufficientData, ZeroVariance) as exc:
            lines.append(f"{prefix}.error = {type(exc).__name__}")
            continue
        lines += [
            f"{prefix}.t_statistic = {fmt(result.t_statistic)}",
            f"{prefix}.critical_value = {fmt(result.critical_value)}",
            f"{prefix}.significant = {str(result.significant).lower()}",
        ]
    return "\n".join(lines) + "\n"


def write_derived_outputs(out_dir, results: List[bench.CellResult]) -> Dict[str, str]:
    """Summary tables, timing histograms and t-test reports for a cell list.

    Returns the mapping of logical names to file names, for manifests.
    Everything here is recomputable from the per-cell CSV alone.
    """
    summary = bench.aggregate(results)
    written: Dict[str, str] = {}

    def emit(name, file_name, text):
        write_text(os.path.join(out_dir, file_name), text)
        written[name] = file_name

    emit("summary_csv", "summary.csv", rows_text(summary.stats, bench.SolverStats))
    for kind in summary.error_diffs:
        emit(f"summary_{kind.value}", f"summary_{kind.value}.txt",
             summary_table_text(summary, kind))
        emit(f"timing_hist_{kind.value}", f"timing_hist_{kind.value}.csv",
             rows_text(timing_histogram(summary.time_diffs[kind]), HistBin))
        emit(f"ttest_error_{kind.value}", f"ttest_error_{kind.value}.txt",
             ttest_text("recovery error", "mean_em_minus_admm",
                        summary.error_diffs[kind], [("admm_better", 1.0), ("em_better", -1.0)]))
        emit(f"ttest_time_{kind.value}", f"ttest_time_{kind.value}.txt",
             ttest_text("solver seconds", "mean_em_minus_admm_seconds",
                        summary.time_diffs[kind], [("em_slower", 1.0)]))
    return written


# ---------------------------------------------------------------------------
# SVG histogram rendering (optional plumbing, fully deterministic output)


def histogram_svg(edges: np.ndarray, counts: np.ndarray, title: str) -> str:
    """Minimal standalone SVG bar chart of pre-binned histogram data.

    ``title`` is plain text, escaped into the markup, so a title or file
    name with ``&`` or ``<`` still gives well-formed XML.
    """
    import html  # loaded by a plot alone, not by every command's import of io

    width, height = 640, 400
    left, right, top, bottom = 60, 20, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    max_count = max(int(counts.max()), 1) if counts.size else 1
    span = float(edges[-1] - edges[0]) or 1.0

    def sx(v):
        return left + (float(v) - float(edges[0])) / span * plot_w

    def sy(c):
        return top + plot_h * (1.0 - c / max_count)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{html.escape(title)}</text>',
    ]
    for i, count in enumerate(counts):
        x0, x1 = sx(edges[i]), sx(edges[i + 1])
        y = sy(int(count))
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" '
            f'height="{top + plot_h - y:.2f}" fill="steelblue" stroke="white"/>'
        )
    axis_y = top + plot_h
    parts.append(
        f'<line x1="{left}" y1="{axis_y}" x2="{width - right}" y2="{axis_y}" '
        'stroke="black"/>'
    )
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{axis_y}" stroke="black"/>')
    for value in (edges[0], edges[-1]):
        parts.append(
            f'<text x="{sx(value):.1f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{float(value):.4g}</text>'
        )
    parts.append(
        f'<text x="{left - 8}" y="{sy(max_count) + 4:.1f}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{max_count}</text>'
    )
    parts.append(
        f'<text x="{left - 8}" y="{axis_y + 4}" text-anchor="end" '
        'font-family="monospace" font-size="11">0</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
