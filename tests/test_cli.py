import os

import numpy as np
import pytest

from helpers import strip_clock_lines
from mlrfit import bench, io, scoring, synth
from mlrfit.cli import main
from mlrfit.model import Dataset, MlrParams, NoiseKind, NoiseModel

GEN_ARGS = [
    "generate", "--k", "2", "--d", "2", "--n", "100",
    "--noise", "gaussian", "--sigma", "1", "--seed", "7",
]


def read(path) -> str:
    with open(path, "r") as handle:
        return handle.read()


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_writes_dataset_with_header_and_rows(self, tmp_path):
        out = tmp_path / "data.txt"
        assert run(GEN_ARGS + ["--out", out]) == 0
        text = read(out)
        assert "# k = 2" in text and "# d = 2" in text and "# n = 100" in text
        data_rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data_rows) == 100
        data, meta = io.read_dataset(out)
        assert meta["noise"] is NoiseKind.GAUSSIAN
        assert data.true_params is not None

    def test_rerun_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(GEN_ARGS + ["--out", first]) == 0
        assert run(GEN_ARGS + ["--out", second]) == 0
        assert read(first) == read(second)

    def test_roundtrip_write_read_write(self, tmp_path):
        out = tmp_path / "data.txt"
        run(GEN_ARGS + ["--out", out])
        data, meta = io.read_dataset(out)
        again = tmp_path / "again.txt"
        io.write_dataset(again, data, meta["noise"], meta["sigma"], meta["seed"])
        assert read(out) == read(again)

    def test_manifest_states_the_header_settings(self, tmp_path):
        out = tmp_path / "data.txt"
        assert run(GEN_ARGS + ["--out", out]) == 0
        header = [line[2:] for line in read(out).splitlines()[2:8]]
        config = [line[len("config."):] for line in read(f"{out}.manifest.txt").splitlines()
                  if line.startswith("config.")]
        assert sorted(header) == config and "seed = 7" in config

    def test_sigma_zero_rejected_with_message(self, tmp_path, capsys):
        args = [a for a in GEN_ARGS]
        args[args.index("--sigma") + 1] = "0"
        assert run(args + ["--out", tmp_path / "x.txt"]) == 1
        assert "sigma" in capsys.readouterr().err

    def test_bad_flag_usage_exits_one(self, tmp_path):
        assert run(["generate", "--k", "2"]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_is_a_usage_error(self, tmp_path, capsys, value):
        args = [a for a in GEN_ARGS]
        args[args.index("--sigma") + 1] = value
        out = tmp_path / "x.txt"
        assert run(args + ["--out", out]) == 1
        assert "--sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value", [("--k", "0"), ("--d", "0"), ("--n", "-3"), ("--sigma", "-1")]
    )
    def test_out_of_range_size_or_sigma_is_a_usage_error(self, tmp_path, capsys, flag, value):
        args = [a for a in GEN_ARGS]
        args[args.index(flag) + 1] = value
        out = tmp_path / "x.txt"
        assert run(args + ["--out", out]) == 1
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.txt.manifest.txt").exists()

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_out_of_range_seed_is_a_usage_error(self, tmp_path, capsys, value):
        args = [a for a in GEN_ARGS]
        args[args.index("--seed") + 1] = value
        out = tmp_path / "x.txt"
        assert run(args + ["--out", out]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


SETTINGS = ("algo", "noise", "k", "d", "n", "sigma", "iterations", "seed", "rho",
            "lad_path", "stop_tol")
IRLS_CONSTANTS = {"irls_delta", "irls_max_iterations", "irls_tolerance"}


def assert_same_settings(result, algo):
    """The fit's settings, which its result header and manifest state alike.

    The manifest adds only the constants the fit ran under: the ridge
    scale, EM's LP cap, and the IRLS constants when IRLS passes ran: the
    irls route at d >= 2, since at d = 1 it takes the weighted median.
    """
    lines = read(result).splitlines()
    header = lines[2:next(i for i, line in enumerate(lines) if line.startswith("error_metric = "))]
    stated = [line.split(" = ", 1) for line in header]
    assert [key for key, _ in stated] == [*SETTINGS, "data", "manifest"]
    settings = dict(stated[: len(SETTINGS)])
    config = dict(
        line[len("config."):].split(" = ", 1)
        for line in read(f"{result}.manifest.txt").splitlines()
        if line.startswith("config.")
    )
    constants = {"ridge_scale"} | ({"lad_lp_cap"} if algo == "em" else set())
    if settings["lad_path"] == "irls" and int(settings["d"]) >= 2:
        constants |= IRLS_CONSTANTS
    assert set(config) == set(settings) | constants
    assert {key: config[key] for key in settings} == settings
    return settings


class TestFit:
    @pytest.fixture()
    def dataset(self, tmp_path):
        out = tmp_path / "data.txt"
        run([
            "generate", "--k", "2", "--d", "2", "--n", "400",
            "--noise", "laplacian", "--sigma", "0.05", "--seed", "3", "--out", out,
        ])
        return out

    def test_fit_em_recovers_low_noise_instance(self, tmp_path, dataset):
        out = tmp_path / "fit.txt"
        code = run([
            "fit", "--algo", "em", "--noise", "laplacian", "--k", "2",
            "--iters", "40", "--seed", "5", "--data", dataset, "--out", out,
        ])
        assert code == 0
        text = read(out)
        line = [l for l in text.splitlines() if l.startswith("recovery_error = ")][0]
        assert float(line.split(" = ")[1]) < 0.05
        assert "ll[40] = " in text
        assert (tmp_path / "fit.txt.manifest.txt").exists()

    def test_fit_admm_writes_residual_trace(self, tmp_path, dataset):
        out = tmp_path / "fit_admm.txt"
        code = run([
            "fit", "--algo", "admm", "--noise", "laplacian", "--k", "2",
            "--iters", "30", "--seed", "5", "--data", dataset, "--out", out,
        ])
        assert code == 0
        assert "residual[30] = " in read(out)

    def test_lp_path_recorded_in_manifest(self, tmp_path, dataset):
        out = tmp_path / "fit_lp.txt"
        run([
            "fit", "--algo", "em", "--noise", "laplacian", "--k", "2",
            "--iters", "5", "--seed", "5", "--lad-path", "lp",
            "--data", dataset, "--out", out,
        ])
        manifest = read(tmp_path / "fit_lp.txt.manifest.txt")
        assert "config.lad_path = lp" in manifest
        assert "lad_path = lp" in read(out)

    @pytest.mark.parametrize(
        "algo,noise,flags,lad_path,stop_tol",
        [
            ("em", "gaussian", [], "n/a", "none"),
            ("em", "laplacian", ["--lad-path", "lp"], "lp", "none"),
            ("em", "laplacian", ["--lad-path", "irls"], "irls", "none"),
            ("em", "laplacian", ["--lad-path", "auto"], "lp", "none"),
            ("admm", "laplacian", [], "n/a", "none"),
            ("admm", "gaussian", ["--stop-tol", "1e-3"], "n/a", "0.001"),
        ],
        ids=["em-gaussian", "em-lp", "em-irls", "em-auto", "admm-laplacian",
             "admm-gaussian-stop-tol"],
    )
    def test_result_and_manifest_state_the_same_settings(
        self, tmp_path, dataset, algo, noise, flags, lad_path, stop_tol
    ):
        out = tmp_path / "fit.txt"
        assert run([
            "fit", "--algo", algo, "--noise", noise, "--k", "2", "--iters", "5",
            "--seed", "5", *flags, "--data", dataset, "--out", out,
        ]) == 0
        settings = assert_same_settings(out, algo)
        assert settings["lad_path"] == lad_path
        assert settings["stop_tol"] == stop_tol

    def test_lp_fit_of_a_y_whose_spread_overflows(self, tmp_path, capsys):
        # the lp route needs no spread of y, which overflows here; irls does
        x = np.random.default_rng(9).standard_normal((20, 2))
        y = np.random.default_rng(9).standard_normal(20)
        y[0] = 1e200
        data = Dataset(x=x, y=y, labels=np.arange(20) % 2)
        io.write_dataset(tmp_path / "far.txt", data, NoiseKind.LAPLACIAN, 1.0, 9)
        argv = ["fit", "--algo", "em", "--noise", "laplacian", "--k", "2", "--iters", "3",
                "--seed", "1", "--data", tmp_path / "far.txt"]
        assert run([*argv, "--lad-path", "lp", "--out", tmp_path / "lp.txt"]) == 0
        assert assert_same_settings(tmp_path / "lp.txt", "em")["lad_path"] == "lp"
        assert run([*argv, "--lad-path", "irls", "--out", tmp_path / "irls.txt"]) == 2
        assert "NonFiniteInput: the spread of y overflowed" in capsys.readouterr().err
        assert not (tmp_path / "irls.txt").exists()

    def test_d1_irls_fit_of_a_y_whose_spread_overflows(self, tmp_path):
        # at d = 1 the irls route is the weighted median, which needs no spread of y
        x = np.random.default_rng(9).standard_normal((20, 1))
        y = np.random.default_rng(9).standard_normal(20)
        y[0] = 1e200
        data = Dataset(x=x, y=y, labels=np.arange(20) % 2)
        io.write_dataset(tmp_path / "far.txt", data, NoiseKind.LAPLACIAN, 1.0, 9)
        out = tmp_path / "irls.txt"
        assert run(["fit", "--algo", "em", "--noise", "laplacian", "--k", "2", "--iters", "3",
                    "--seed", "1", "--lad-path", "irls", "--data", tmp_path / "far.txt",
                    "--out", out]) == 0
        settings = assert_same_settings(out, "em")
        assert (settings["lad_path"], settings["d"]) == ("irls", "1")
        assert "config.irls_" not in read(tmp_path / "irls.txt.manifest.txt")

    def test_admm_step_constant_that_overflows_exits_two(self, tmp_path, capsys):
        # sigma = 1e150 squares to a finite 1e300; times rho = 1e10 it overflows
        data = tmp_path / "wide.txt"
        assert run(["generate", "--k", "2", "--d", "2", "--n", "50", "--noise", "gaussian",
                    "--sigma", "1e150", "--seed", "3", "--out", data]) == 0
        out = tmp_path / "admm.txt"
        argv = ["fit", "--algo", "admm", "--noise", "gaussian", "--k", "2", "--iters", "5",
                "--seed", "1", "--data", data, "--out", out]
        assert run([*argv, "--rho", "1e10"]) == 2
        assert "NonFiniteInput: sigma**2 * rho = inf" in capsys.readouterr().err
        assert not out.exists()
        assert run(argv) == 0  # the default rho fits the same file

    def test_stop_tol_with_em_is_a_usage_error(self, tmp_path, dataset, capsys):
        out = tmp_path / "em_stop.txt"
        assert run([
            "fit", "--algo", "em", "--noise", "laplacian", "--k", "2", "--iters", "5",
            "--stop-tol", "1e-2", "--data", dataset, "--out", out,
        ]) == 1
        err = capsys.readouterr().err
        assert "--stop-tol" in err and "--algo admm" in err
        assert not out.exists()
        assert not (tmp_path / "em_stop.txt.manifest.txt").exists()

    def test_rerun_identical_modulo_clock(self, tmp_path, dataset):
        a, b = tmp_path / "fa.txt", tmp_path / "fb.txt"
        argv = [
            "fit", "--algo", "admm", "--noise", "laplacian", "--k", "2",
            "--iters", "10", "--seed", "5", "--data", dataset,
        ]
        run(argv + ["--out", a])
        run(argv + ["--out", b])
        left = strip_clock_lines(read(a))
        right = strip_clock_lines(read(b))
        # output names differ only through the file stem
        assert left.replace("fa.txt", "X") == right.replace("fb.txt", "X")

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--stop-tol", "nan"), ("--stop-tol", "-1"),
            ("--rho", "nan"), ("--seed", "-1"), ("--seed", str(2**64)),
            ("--k", "0"), ("--iters", "0"), ("--rho", "0"), ("--rho", "inf"),
            ("--stop-tol", "inf"), ("--lad-path", "plain"),
            # the LP cap is the constant em.DEFAULT_LP_CAP, not a flag
            ("--lad-lp-cap", "5000"),
        ],
    )
    def test_bad_flag_value_is_a_usage_error(self, tmp_path, dataset, capsys, flag, value):
        out = tmp_path / "bad_flag.txt"
        code = run([
            "fit", "--algo", "admm", "--noise", "laplacian", "--k", "2",
            "--iters", "5", flag, value, "--data", dataset, "--out", out,
        ])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "bad_flag.txt.manifest.txt").exists()

    def test_rule_message_names_the_flag(self, tmp_path, dataset, capsys):
        out = tmp_path / "rho.txt"
        assert run([
            "fit", "--algo", "admm", "--noise", "laplacian", "--k", "2",
            "--iters", "5", "--rho", "nan", "--data", dataset, "--out", out,
        ]) == 1
        err = capsys.readouterr().err
        assert "argument --rho: rho must be a positive finite real, got nan" in err
        assert not out.exists()

    def test_missing_data_file_exits_two(self, tmp_path):
        assert run([
            "fit", "--algo", "em", "--noise", "gaussian", "--k", "2",
            "--iters", "5", "--data", tmp_path / "nope.txt",
            "--out", tmp_path / "o.txt",
        ]) == 2

    def test_corrupt_data_file_exits_two(self, tmp_path):
        data = synth.generate(2, 2, 4, NoiseModel(NoiseKind.GAUSSIAN, 1.0), seed=3)
        io.write_dataset(tmp_path / "good.txt", data, NoiseKind.GAUSSIAN, 1.0, 3)
        text = read(tmp_path / "good.txt")
        head, body = text.split("x1,x2\n")
        rows = body.splitlines()
        label, y, *xs = rows[0].split(",")

        def with_first_row(*fields):
            return head + "x1,x2\n" + "\n".join([",".join(fields)] + rows[1:]) + "\n"

        corrupt = {
            "bad-header": "# mlrfit dataset\n# k = nonsense\n",
            "short-row": with_first_row(label, y, *xs[:-1]),
            "long-row": with_first_row(label, y, *xs, "1"),
            "float-label": with_first_row("1.0", y, *xs),
            "text-field": with_first_row(label, "abc", *xs),
            "hash-row": with_first_row("#" + label, y, *xs),
            "missing-row": text[: text.rindex(rows[-1])],
            "label-zero": with_first_row("0", y, *xs),
            "nan": with_first_row(label, "nan", *xs),
            "blank-field": with_first_row(label, "", *xs),
        }
        for name, content in corrupt.items():
            bad = tmp_path / f"{name}.txt"
            bad.write_text(content)
            assert run([
                "fit", "--algo", "em", "--noise", "gaussian", "--k", "2",
                "--iters", "5", "--data", bad, "--out", tmp_path / "o.txt",
            ]) == 2, name

    @pytest.mark.parametrize("algo", ["em", "admm"])
    @pytest.mark.parametrize(
        "line,replacement,message",
        [
            ("# n = 4", "# n = 0", "bad.txt:5: n must be an integer >= 1, got 0"),
            ("# k = 2", "# k = 0", "bad.txt:3: k must be an integer >= 1, got 0"),
            ("# d = 2", "# d = 1.5", "bad.txt:4: d must be an integer, got 1.5"),
            ("# sigma = 1", "# sigma = -1",
             "bad.txt:7: sigma must be a positive finite real, got -1.0"),
            ("# seed = 3", "# seed = -1", "bad.txt:8: seed must be in [0, 2**64), got -1"),
            ("# n = 4", "# n = 4\n# n = 4", "bad.txt:6: duplicate dataset header key 'n'"),
            ("# beta_true[1] = 1 0.5", "# beta_true[1] = 1 0.5\n# beta_true[1] = 1 0.5",
             "bad.txt:10: duplicate dataset header key 'beta_true[1]'"),
            ("# beta_true[2] = -1 2", "# beta_true[01] = -1 2",
             "bad.txt:10: duplicate dataset header key 'beta_true[1]'"),
            ("# beta_true[1] = 1 0.5", "# beta_true[one] = 1 0.5",
             "bad.txt:9: beta_true index must be an integer, got 'one'"),
            ("# beta_true[1] = 1 0.5", "# beta_true[1] = 1 abc",
             "bad.txt:9: beta_true[1] must be 2 finite real numbers, got '1 abc'"),
            ("# noise = gaussian", "# noise = gauss", "bad.txt:6: 'gauss' is not a valid NoiseKind"),
            ("# format = 1", "# format = 9", "bad.txt:2: format must be '1', got '9'"),
            ("# columns = label,y,x1,x2", "# columns = a,b",
             "bad.txt:11: columns must be 'label,y,x1,x2', got 'a,b'"),
            ("# sigma = 1", "# sigma = 1\n# sigmaa = 7",
             "bad.txt:8: unknown dataset header key 'sigmaa'"),
        ],
        ids=["n-zero", "k-zero", "d-fractional", "sigma-negative", "seed-negative",
             "n-repeated", "beta-repeated", "beta-index-repeated", "beta-index-text",
             "beta-coefficient-text", "noise-unknown", "format-other", "columns-other",
             "key-unknown"],
    )
    def test_header_value_outside_its_rule_exits_two(
        self, tmp_path, capsys, algo, line, replacement, message
    ):
        data = synth.generate(2, 2, 4, NoiseModel(NoiseKind.GAUSSIAN, 1.0), seed=3)
        # known true coefficients, so the beta_true lines can be named in full
        truth = MlrParams(np.array([[1.0, -1.0], [0.5, 2.0]]))
        data = Dataset(x=data.x, y=data.y, labels=data.labels, true_params=truth)
        io.write_dataset(tmp_path / "good.txt", data, NoiseKind.GAUSSIAN, 1.0, 3)
        text = read(tmp_path / "good.txt")
        assert f"\n{line}\n" in text
        text = text.replace(f"\n{line}\n", f"\n{replacement}\n")
        if replacement == "# n = 0":  # an empty dataset, consistent with its header
            text = text[: text.index("\n", text.index("# columns = ")) + 1]
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        out = tmp_path / "o.txt"
        assert run([
            "fit", "--algo", algo, "--noise", "gaussian", "--k", "2",
            "--iters", "5", "--data", bad, "--out", out,
        ]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "o.txt.manifest.txt").exists()


BENCH_CONFIG = """\
k_values = 2
d_values = 1,2
n_samples = 150
repetitions = 2
n_iterations = 10
sigma = 1
noise_kinds = gaussian,laplacian
base_seed = 99
lad_path = auto
"""


class TestBenchmarkAndReport:
    @pytest.fixture()
    def bench_dir(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(BENCH_CONFIG)
        out_dir = tmp_path / "bench"
        assert run(["benchmark", "--config", config, "--out-dir", out_dir]) == 0
        return out_dir

    def test_emits_all_declared_files(self, bench_dir):
        names = sorted(os.listdir(bench_dir))
        for expected in [
            "cells.csv", "manifest.txt", "summary.csv",
            "summary_gaussian.txt", "summary_laplacian.txt",
            "timing_hist_gaussian.csv", "timing_hist_laplacian.csv",
            "ttest_error_gaussian.txt", "ttest_error_laplacian.txt",
            "ttest_time_gaussian.txt", "ttest_time_laplacian.txt",
        ]:
            assert expected in names
        cells = io.read_rows(bench_dir / "cells.csv", bench.CellResult)
        assert len(cells) == 2 * 2 * 2  # kinds x d x reps
        assert all(c.ok for c in cells)

    def test_histogram_counts_conserve_cells(self, bench_dir):
        cells = io.read_rows(bench_dir / "cells.csv", bench.CellResult)
        for kind in ("gaussian", "laplacian"):
            _, counts = io.read_hist_csv(bench_dir / f"timing_hist_{kind}.csv")
            expected = sum(1 for c in cells if c.noise.value == kind and c.ok)
            assert counts.sum() == expected

    def test_summary_recomputable_from_cells(self, bench_dir):
        cells = io.read_rows(bench_dir / "cells.csv", bench.CellResult)
        by_key = {}
        for line in read(bench_dir / "summary.csv").splitlines()[1:]:
            noise, k, d, solver, mean, std, count = line.split(",")
            by_key[(noise, int(k), int(d), solver)] = (float(mean), float(std), int(count))
        for (noise, k, d, solver), (mean, std, count) in by_key.items():
            values = np.array([
                c.em_error if solver == "em" else c.admm_error
                for c in cells
                if c.noise.value == noise and c.k == k and c.d == d and c.ok
            ])
            assert count == values.size
            assert mean == pytest.approx(values.mean(), abs=1e-12)
            expected_std = values.std(ddof=1) if values.size > 1 else 0.0
            assert std == pytest.approx(expected_std, abs=1e-12)

    def test_ttest_files_recomputable_from_cells(self, bench_dir):
        cells = io.read_rows(bench_dir / "cells.csv", bench.CellResult)
        for kind in ("gaussian", "laplacian"):
            ok = [c for c in cells if c.noise.value == kind and c.ok]
            errors = np.array([c.em_error - c.admm_error for c in ok])
            seconds = np.array([c.em_seconds - c.admm_seconds for c in ok])
            for name, subject, mean_key, diffs, hypotheses in [
                ("ttest_error", "recovery error", "mean_em_minus_admm", errors,
                 [("admm_better", errors), ("em_better", -errors)]),
                ("ttest_time", "solver seconds", "mean_em_minus_admm_seconds", seconds,
                 [("em_slower", seconds)]),
            ]:
                lines = read(bench_dir / f"{name}_{kind}.txt").splitlines()
                assert lines[0] == f"# paired t-test on {subject}, alpha = 0.05"
                values = dict(line.split(" = ") for line in lines[1:])
                assert values["n"] == str(len(ok))
                assert float(values[mean_key]) == diffs.mean()
                for prefix, tested in hypotheses:
                    result = scoring.paired_t_test(tested)
                    assert float(values[f"{prefix}.t_statistic"]) == result.t_statistic
                    assert float(values[f"{prefix}.critical_value"]) == result.critical_value
                    assert values[f"{prefix}.significant"] == str(result.significant).lower()
                assert len(values) == 2 + 3 * len(hypotheses)

    def test_benchmark_rerun_deterministic_outside_clock_columns(self, tmp_path, bench_dir):
        config = tmp_path / "grid2.cfg"
        config.write_text(BENCH_CONFIG)
        second = tmp_path / "bench2"
        assert run(["benchmark", "--config", config, "--out-dir", second]) == 0

        def stable_cells(path):
            rows = read(path / "cells.csv").splitlines()
            header = rows[0].split(",")
            keep = [i for i, name in enumerate(header) if "seconds" not in name]
            return ["|".join(np.array(r.split(","))[keep]) for r in rows]

        assert stable_cells(bench_dir) == stable_cells(second)
        for name in ["summary.csv", "summary_gaussian.txt", "summary_laplacian.txt",
                     "ttest_error_gaussian.txt", "ttest_error_laplacian.txt"]:
            assert read(bench_dir / name) == read(second / name)

    def test_report_reproduces_derived_files(self, tmp_path, bench_dir):
        report_dir = tmp_path / "report"
        assert run(["report", "--cells", bench_dir / "cells.csv", "--out-dir", report_dir]) == 0

        def outputs(path):
            lines = read(path / "manifest.txt").splitlines()
            return sorted(line.split(" = ")[1] for line in lines if line.startswith("output."))

        derived = outputs(report_dir)
        # every file the benchmark lists but cells.csv, the timing files included
        assert derived == [name for name in outputs(bench_dir) if name != "cells.csv"]
        assert len(derived) == 9
        for name in derived:
            assert read(report_dir / name) == read(bench_dir / name), name

    def test_unknown_config_key_exits_two(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text(BENCH_CONFIG + "mystery_knob = 9\n")
        assert run(["benchmark", "--config", config, "--out-dir", tmp_path / "x"]) == 2

    @pytest.mark.parametrize(
        "text,message",
        [
            (BENCH_CONFIG + "rho = 2\nrho = 3\n", "duplicate config key 'rho'"),
            (BENCH_CONFIG.replace("n_samples = 150\n", ""),
             "missing required config key 'n_samples'"),
            (BENCH_CONFIG.replace("k_values = 2\n", "k_values = 2,2\n"),
             "k_values must not repeat a value"),
            (BENCH_CONFIG.replace("k_values = 2\n", "k_values = 0,2\n"),
             "k must be an integer >= 1, got 0"),
            (BENCH_CONFIG.replace("repetitions = 2\n", "repetitions = 0\n"),
             "repetitions must be an integer >= 1, got 0"),
            (BENCH_CONFIG.replace("sigma = 1\n", "sigma = nan\n"),
             "sigma must be a positive finite real, got nan"),
            (BENCH_CONFIG + "rho = 0\n", "rho must be a positive finite real, got 0.0"),
            (BENCH_CONFIG.replace("lad_path = auto\n", "lad_path = plain\n"),
             "unknown LAD path 'plain'"),
            (BENCH_CONFIG + "lad_lp_cap = 5000\n", "unknown config key 'lad_lp_cap'"),
        ],
        ids=["duplicate", "missing", "repeated-value", "k-value", "repetitions",
             "sigma", "rho", "lad-path", "lad-lp-cap"],
    )
    def test_bad_config_exits_two(self, tmp_path, capsys, text, message):
        with pytest.raises(ValueError, match=message):
            io.parse_grid_config(text)
        config = tmp_path / "bad.cfg"
        config.write_text(text)
        assert run(["benchmark", "--config", config, "--out-dir", tmp_path / "x"]) == 2
        assert message in capsys.readouterr().err

    def test_plot_emits_deterministic_svg(self, tmp_path, bench_dir):
        first, second = tmp_path / "a.svg", tmp_path / "b.svg"
        hist = bench_dir / "timing_hist_laplacian.csv"
        assert run(["plot", "--hist", hist, "--out", first]) == 0
        assert run(["plot", "--hist", hist, "--out", second]) == 0
        body = read(first)
        assert body.startswith("<svg") and "<rect" in body
        assert body == read(second)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("bin_left,bin_right,count\n", "histogram has no bins"),
            ("bin_left,bin_right,count\n0,1\n", "expected 3 fields, got 2"),
        ],
        ids=["header-only", "short-row"],
    )
    def test_plot_malformed_histogram_exits_two(self, tmp_path, capsys, text, message):
        hist = tmp_path / "bad_hist.csv"
        hist.write_text(text)
        out = tmp_path / "bad.svg"
        assert run(["plot", "--hist", hist, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_version_flag_exits_zero():
    assert run(["--version"]) == 0


def through_flag(tmp_path, capsys, key, text):
    """``text`` as the ``--key`` flag of ``mlrfit generate``: the value written, or the rule."""
    flags = {"--k": "2", "--d": "1", "--n": "20", "--noise": "gaussian", f"--{key}": text}
    out = tmp_path / "flag.txt"
    code = run(["generate", *(part for pair in flags.items() for part in pair), "--out", out])
    if code == 0:
        return io.read_dataset(out)[1][key]
    assert code == 1
    err = capsys.readouterr().err
    return err[err.index(f"argument --{key}: ") + len(f"argument --{key}: "):].strip()


def through_config(config_key, text):
    """``text`` as a benchmark config value: the grid's value, or the rule."""
    values = {"k_values": "2", "d_values": "1", "n_samples": "20", "repetitions": "1",
              "n_iterations": "1", config_key: text}
    try:
        grid = io.parse_grid_config("".join(f"{key} = {value}\n" for key, value in values.items()))
    except ValueError as exc:
        return str(exc)
    value = getattr(grid, config_key)
    return value[0] if isinstance(value, tuple) else value


def through_header(tmp_path, key, text):
    """``text`` as a dataset header value: the value read, or the rule after path:line."""
    data = synth.generate(2, 1, 20, NoiseModel(NoiseKind.GAUSSIAN, 1.0), seed=3)
    # no beta_true lines, which a header k would have to agree with
    io.write_dataset(tmp_path / "good.txt", Dataset(x=data.x, y=data.y, labels=data.labels),
                     NoiseKind.GAUSSIAN, 1.0, 3)
    lines = read(tmp_path / "good.txt").splitlines()
    lines = [f"# {key} = {text}" if line.startswith(f"# {key} = ") else line for line in lines]
    (tmp_path / "header.txt").write_text("\n".join(lines) + "\n")
    try:
        return io.read_dataset(tmp_path / "header.txt")[1][key]
    except ValueError as exc:
        return str(exc).split(": ", 1)[1]


@pytest.mark.parametrize(
    "key,config_key,text,expected",
    [
        ("k", "k_values", "3.0", 3),
        ("k", "k_values", "1e3", 1000),
        ("k", "k_values", "2.9", "k must be an integer, got 2.9"),
        ("k", "k_values", "abc", "k must be an integer, got 'abc'"),
        ("sigma", "sigma", "3.0", 3.0),
        ("sigma", "sigma", "1e3", 1000.0),
        ("sigma", "sigma", "2.9", 2.9),
        ("sigma", "sigma", "abc", "sigma must be a positive finite real, got 'abc'"),
    ],
)
def test_flag_config_and_header_read_a_text_alike(
    tmp_path, capsys, key, config_key, text, expected
):
    """Each boundary hands the text to the one ``model`` rule, so all three agree."""
    got = [
        through_flag(tmp_path, capsys, key, text),
        through_config(config_key, text),
        through_header(tmp_path, key, text),
    ]
    assert got == [expected] * 3
    assert all(type(value) is type(expected) for value in got)
