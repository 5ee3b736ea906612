"""Command-line surface: generate, fit, benchmark, report, plot.

Exit codes: 0 on success, 1 for usage errors (bad flags, or flag values
that break a library input rule: "argument --flag: <rule>"), 2 for runtime
failures (unreadable files, bad benchmark configs, solver errors).
"""

import argparse
import os
import sys
from datetime import datetime, timezone

from . import __version__, admm, bench, em, io, lad, scoring, synth
from .errors import MlrError
from .model import LAD_PATHS, NoiseKind, NoiseModel, SolverConfig, check_int
from .model import check_non_negative, check_positive, check_seed


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(path, command, config, inputs, outputs, started):
    io.write_text(path, io.manifest_text(
        version=__version__,
        command=command,
        started_at=started,
        finished_at=_timestamp(),
        config=config,
        inputs=inputs,
        outputs=outputs,
    ))


def _flag(parse, check, name):
    """An argparse ``type=`` that parses the text, then runs ``check(name, value)``.

    A broken rule reads "argument --flag: <rule>"; ``_Parser.error`` exits 1.
    """

    def convert(text):
        value = parse(text)
        try:
            return check(name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    convert.__name__ = parse.__name__
    return convert


def cmd_generate(args) -> int:
    started = _timestamp()
    nm = NoiseModel(NoiseKind(args.noise), args.sigma)
    data = synth.generate(args.k, args.d, args.n, nm, args.seed)
    io.write_dataset(args.out, data, nm.kind, nm.sigma, args.seed)
    config = {
        "k": args.k,
        "d": args.d,
        "n": args.n,
        "noise": nm.kind.value,
        "sigma": nm.sigma,
        "seed": args.seed,
    }
    _write_manifest(
        args.out + ".manifest.txt",
        "generate",
        config,
        {},
        {"dataset": os.path.basename(args.out)},
        started,
    )
    return 0


def cmd_fit(args) -> int:
    started = _timestamp()
    data, meta = io.read_dataset(args.data)
    nm = NoiseModel(NoiseKind(args.noise), meta["sigma"])
    cfg = SolverConfig(n_iterations=args.iters, rho=args.rho, seed=args.seed)
    manifest_name = os.path.basename(args.out) + ".manifest.txt"
    config = {
        "algo": args.algo,
        "noise": nm.kind.value,
        "sigma": nm.sigma,
        "k": args.k,
        "iterations": args.iters,
        "seed": args.seed,
        "rho": cfg.rho,
        "ridge_scale": lad.RIDGE_SCALE,
    }
    if args.algo == "em":
        trace = em.fit_em(data, args.k, nm, cfg, lad_path=args.lad_path)
        config["lad_path"] = trace.lad_path
        config["lad_lp_cap"] = em.DEFAULT_LP_CAP
        if nm.kind is NoiseKind.LAPLACIAN:
            config["irls_delta"] = em.irls_delta(data.y)
            config["irls_max_iterations"] = lad.IRLS_MAX_ITERATIONS
            config["irls_tolerance"] = lad.IRLS_TOLERANCE
    else:
        trace = admm.fit_admm(data, args.k, nm, cfg, stop_tol=args.stop_tol)
        config["stop_tol"] = "none" if args.stop_tol is None else args.stop_tol
    recovery = None
    truth = data.true_params
    if truth is not None and truth.k_components == args.k:
        recovery = scoring.recovery_error(trace.params, truth)
    settings = [
        ("algo", args.algo),
        ("noise", nm.kind.value),
        ("k", str(args.k)),
        ("d", str(data.dim)),
        ("n", str(data.n_samples)),
        ("sigma", io.fmt(nm.sigma)),
        ("iterations", str(args.iters)),
        ("seed", str(args.seed)),
        ("rho", io.fmt(cfg.rho)),
        ("lad_path", trace.lad_path),
        ("data", args.data),
        ("manifest", manifest_name),
    ]
    text = io.fit_result_text(
        settings=settings,
        params=trace.params,
        recovery=recovery,
        wall_seconds=trace.wall_seconds,
        log_liks=trace.log_liks,
        residuals=trace.primal_residuals,
    )
    io.write_text(args.out, text)
    _write_manifest(
        os.path.join(os.path.dirname(args.out) or ".", manifest_name),
        "fit",
        config,
        {"data": args.data},
        {"result": os.path.basename(args.out)},
        started,
    )
    return 0


def cmd_benchmark(args) -> int:
    started = _timestamp()
    with open(args.config, "r") as handle:
        grid = io.parse_grid_config(handle.read(), source=args.config)
    workers = bench.default_workers()
    os.makedirs(args.out_dir, exist_ok=True)
    results = bench.run_grid(grid, workers=workers)
    io.write_text(os.path.join(args.out_dir, "cells.csv"), io.rows_text(results, bench.CellResult))
    written = io.write_derived_outputs(args.out_dir, results)
    written["cells"] = "cells.csv"
    config = {**io.grid_config_values(grid), "lad_lp_cap": em.DEFAULT_LP_CAP,
              "ridge_scale": lad.RIDGE_SCALE, "workers": workers}
    _write_manifest(
        os.path.join(args.out_dir, "manifest.txt"),
        "benchmark",
        config,
        {"config": args.config},
        written,
        started,
    )
    return 0


def cmd_report(args) -> int:
    started = _timestamp()
    results = io.read_rows(args.cells, bench.CellResult)
    os.makedirs(args.out_dir, exist_ok=True)
    written = io.write_derived_outputs(args.out_dir, results)
    _write_manifest(
        os.path.join(args.out_dir, "manifest.txt"),
        "report",
        {"cells_rows": len(results)},
        {"cells": args.cells},
        written,
        started,
    )
    return 0


def cmd_plot(args) -> int:
    edges, counts = io.read_hist_csv(args.hist)
    title = args.title or os.path.basename(args.hist)
    io.write_text(args.out, io.histogram_svg(edges, counts, title))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlrfit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mlrfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="write a synthetic dataset file")
    p.add_argument("--k", type=_flag(int, check_int, "k"), required=True)
    p.add_argument("--d", type=_flag(int, check_int, "d"), required=True)
    p.add_argument("--n", type=_flag(int, check_int, "n"), required=True)
    p.add_argument("--noise", choices=["gaussian", "laplacian"], required=True)
    p.add_argument("--sigma", type=_flag(float, check_positive, "sigma"), default=1.0)
    p.add_argument("--seed", type=_flag(int, check_seed, "seed"), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("fit", help="fit one dataset with one solver")
    p.add_argument("--algo", choices=["em", "admm"], required=True)
    p.add_argument("--noise", choices=["gaussian", "laplacian"], required=True)
    p.add_argument("--k", type=_flag(int, check_int, "k"), required=True)
    p.add_argument("--iters", type=_flag(int, check_int, "n_iterations"), required=True)
    p.add_argument("--seed", type=_flag(int, check_seed, "seed"), default=0)
    p.add_argument("--rho", type=_flag(float, check_positive, "rho"), default=5.0)
    p.add_argument(
        "--lad-path",
        choices=LAD_PATHS,
        default=em.LAD_PATH_IRLS,
        help="EM Laplacian M-step route (default irls)",
    )
    p.add_argument("--stop-tol", type=_flag(float, check_non_negative, "stop_tol"), default=None,
                   help="ADMM early stop on the consensus residual; off by default")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("benchmark", help="run an experiment grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_benchmark)

    p = sub.add_parser("report", help="re-aggregate an existing per-cell CSV")
    p.add_argument("--cells", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("plot", help="render a histogram CSV as SVG")
    p.add_argument("--hist", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--title", default=None)
    p.set_defaults(handler=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (MlrError, ValueError, OSError) as exc:
        print(f"mlrfit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
