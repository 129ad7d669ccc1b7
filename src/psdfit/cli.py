"""Command line front end: batch in, files out.

Exit codes: 0 on success, 1 for input problems (bad flags, unreadable or
malformed files), 2 when the numerics fail to converge.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dataio import (load_experiment_config, load_model_json,
                     load_returns_csv, read_eigenvalues_csv, run_analysis,
                     save_model_json, write_curve_csv, write_report_csv,
                     write_report_json)
from .errors import NumericsError
from .estimator import FAMILIES, build_unet, fit_discrete, fit_inverse_cubic, fit_laguerre
from .mptransform import SampleSpectrum, lsd_density_curve, support_bounds
from .simulate import run_experiment

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors, exit code 1 (argparse defaults to 2,
    # which this tool reserves for numerical failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} must look like start:stop:count")
    try:
        a, b, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid {text!r} must look like start:stop:count") from None
    if count < 2 or not b > a:
        raise ValueError("grid needs stop > start and count >= 2")
    grid = np.linspace(a, b, count)
    grid = grid[grid > 0.0]
    if grid.size == 0:
        raise ValueError("grid contains no positive points")
    return grid


def _cmd_simulate(args) -> int:
    config = load_experiment_config(args.config)
    report = run_experiment(config, n_jobs=args.jobs)
    write_report_json(args.out, report)
    csv_path = args.csv or str(Path(args.out).with_suffix(".csv"))
    write_report_csv(csv_path, report)
    for row in report.summaries:
        mean = "nan" if row["mean_W"] is None else f"{row['mean_W']:.4f}"
        sd = "nan" if row["sd_W"] is None else f"{row['sd_W']:.4f}"
        print(f"{config.case}: p={row['p']} n={row['n']} "
              f"mean_W={mean} sd_W={sd} failures={row['failures']}")
    return 0


def _cmd_estimate(args) -> int:
    eigs = read_eigenvalues_csv(args.eigs)
    missing = args.p - eigs.size
    if 0 < missing <= args.p - args.n:
        # spectra for p > n are often stored without their p - n
        # structural zeros; any other shortfall is an input error
        eigs = np.concatenate([eigs, np.zeros(missing)])
    spectrum = SampleSpectrum(eigs, args.p, args.n)
    net = build_unet(spectrum, args.family, args.l)
    if args.family == "discrete":
        fit = fit_discrete(net, args.order)
    elif args.family == "laguerre":
        fit = fit_laguerre(net, args.order)
    else:
        fit = fit_inverse_cubic(net)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(fit.to_dict(), fh, indent=2)
        fh.write("\n")
    theta = ", ".join(f"{v:.6g}" for v in fit.theta)
    print(f"{args.family}: theta=({theta}) objective={fit.objective_value:.3e}")
    return 0


def _cmd_forward(args) -> int:
    model = load_model_json(args.model)
    if not args.c > 0.0:
        raise ValueError("c must be positive")
    curve = lsd_density_curve(model, args.c, _parse_grid(args.grid))
    write_curve_csv(args.out, curve)
    print(f"wrote {curve.x.size} density points, mass {curve.mass():.4f}")
    return 0


def _cmd_analyze(args) -> int:
    returns = load_returns_csv(args.returns)
    if returns.dropped:
        print(f"dropped {len(returns.dropped)} incomplete columns: "
              f"{', '.join(returns.dropped)}", file=sys.stderr)
    result = run_analysis(returns, spikes=args.spikes,
                          bandwidth=args.bandwidth, spacing=args.l)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "fit.json", "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    write_curve_csv(out / "empirical.csv", result.empirical)
    write_curve_csv(out / "fitted_lsd.csv", result.fitted)
    write_curve_csv(out / "mp_baseline.csv", result.baseline)
    alpha = float(result.fit.theta[0])
    print(f"p={result.spectrum.p} n={result.spectrum.n} alpha={alpha:.4f}")
    return 0


def _cmd_support(args) -> int:
    model = load_model_json(args.model)
    if not args.c > 0.0:
        raise ValueError("c must be positive")
    report = support_bounds(model, args.c)
    text = json.dumps(report.to_dict(), indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="psd",
                     description="Estimate population covariance spectra "
                                 "from sample eigenvalues.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", help="summary CSV path (default: out with .csv)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit a family to sample eigenvalues")
    p.add_argument("--eigs", required=True, help="one-column eigenvalue CSV")
    p.add_argument("--p", type=int, required=True, help="matrix dimension")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--order", type=int, default=1,
                   help="atoms (discrete) or degree (laguerre)")
    p.add_argument("--l", type=int, default=20, help="net points per interval")
    p.add_argument("--out", required=True, help="fit JSON path")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("forward", help="spectral density of a model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--c", type=float, required=True, help="dimension ratio p/n")
    p.add_argument("--grid", default="0:3:400", help="start:stop:count")
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("analyze", help="fit a returns panel end to end")
    p.add_argument("--returns", required=True, help="returns CSV path")
    p.add_argument("--spikes", type=int, default=0,
                   help="largest eigenvalues to remove")
    p.add_argument("--bandwidth", type=float, default=0.05)
    p.add_argument("--l", type=int, default=20, help="net points per interval")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("support", help="support interval report for a model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--c", type=float, required=True, help="dimension ratio p/n")
    p.add_argument("--out", help="optional report JSON path")
    p.set_defaults(func=_cmd_support)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericsError as err:
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
