"""Command-line surface: generate, fit, benchmark, report, plot.

Exit codes: 0 on success, 1 for usage errors (bad flags, flag values that
break a library input rule: "argument --flag: <rule>", or ``fit``'s
--stop-tol without --algo admm), 2 for runtime failures (unreadable files,
bad benchmark configs, solver errors).
"""

import argparse
import os
import sys
from datetime import datetime, timezone

from . import __version__, admm, bench, em, io, lad, scoring, synth
from .errors import MlrError
from .model import LAD_PATH_IRLS, LAD_PATHS, NoiseKind, NoiseModel, SolverConfig, check_int
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


def _flag(check, name):
    """An argparse ``type=`` that hands the text to ``check(name, text)`` alone.

    The ``model`` rule reads the text, as it reads a config or a dataset
    header value, so "3.0" and "1e3" pass an integer flag. A broken rule
    reads "argument --flag: <rule>"; ``_Parser.error`` exits 1.
    """

    def convert(text):
        try:
            return check(name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


def cmd_generate(args) -> int:
    started = _timestamp()
    nm = NoiseModel(NoiseKind(args.noise), args.sigma)
    data = synth.generate(args.k, args.d, args.n, nm, args.seed)
    settings = io.write_dataset(args.out, data, nm.kind, nm.sigma, args.seed)
    _write_manifest(
        args.out + ".manifest.txt",
        "generate",
        dict(settings),
        {},
        {"dataset": os.path.basename(args.out)},
        started,
    )
    return 0


def cmd_fit(args) -> int:
    if args.stop_tol is not None and args.algo != "admm":  # EM has no stopping rule
        print("mlrfit fit: error: argument --stop-tol: applies to --algo admm only",
              file=sys.stderr)
        return 1
    started = _timestamp()
    data, meta = io.read_dataset(args.data)
    nm = NoiseModel(NoiseKind(args.noise), meta["sigma"])
    cfg = SolverConfig(n_iterations=args.iters, rho=args.rho, seed=args.seed)
    if args.algo == "em":
        trace = em.fit_em(data, args.k, nm, cfg, lad_path=args.lad_path)
    else:
        trace = admm.fit_admm(data, args.k, nm, cfg, stop_tol=args.stop_tol)
    recovery = None
    truth = data.true_params
    if truth is not None and truth.k_components == args.k:
        recovery = scoring.recovery_error(trace.params, truth)
    # the resolved settings, stated once: the result's header and the manifest's config
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
        ("stop_tol", "none" if args.stop_tol is None else io.fmt(args.stop_tol)),
    ]
    # the manifest adds the constants the fit ran under
    config = {**dict(settings), "ridge_scale": lad.RIDGE_SCALE}
    if args.algo == "em":
        config["lad_lp_cap"] = em.DEFAULT_LP_CAP
    if trace.lad_path == LAD_PATH_IRLS and data.dim > 1:  # d = 1 takes the weighted median
        config.update(irls_delta=em.irls_delta(data.y),
                      irls_max_iterations=lad.IRLS_MAX_ITERATIONS,
                      irls_tolerance=lad.IRLS_TOLERANCE,
                      irls_relax_growth=lad.IRLS_RELAX_GROWTH,
                      irls_relax_cap=lad.IRLS_RELAX_CAP)
    manifest_name = os.path.basename(args.out) + ".manifest.txt"
    text = io.fit_result_text(
        settings=settings + [("data", args.data), ("manifest", manifest_name)],
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
    p.add_argument("--k", type=_flag(check_int, "k"), required=True)
    p.add_argument("--d", type=_flag(check_int, "d"), required=True)
    p.add_argument("--n", type=_flag(check_int, "n"), required=True)
    p.add_argument("--noise", choices=["gaussian", "laplacian"], required=True)
    p.add_argument("--sigma", type=_flag(check_positive, "sigma"), default=1.0)
    p.add_argument("--seed", type=_flag(check_seed, "seed"), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("fit", help="fit one dataset with one solver")
    p.add_argument("--algo", choices=["em", "admm"], required=True)
    p.add_argument("--noise", choices=["gaussian", "laplacian"], required=True)
    p.add_argument("--k", type=_flag(check_int, "k"), required=True)
    p.add_argument("--iters", type=_flag(check_int, "n_iterations"), required=True)
    p.add_argument("--seed", type=_flag(check_seed, "seed"), default=0)
    p.add_argument("--rho", type=_flag(check_positive, "rho"), default=5.0)
    p.add_argument(
        "--lad-path",
        choices=LAD_PATHS,
        default=LAD_PATH_IRLS,
        help="EM Laplacian M-step route (default irls)",
    )
    p.add_argument("--stop-tol", type=_flag(check_non_negative, "stop_tol"), default=None,
                   help="ADMM early stop on the consensus residual (--algo admm only);"
                        " off by default")
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
