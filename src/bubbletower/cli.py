"""Command-line entry point.

Subcommands: tower, eig, limit, flow, sweep, verify, report, one per entry
of harness.OPERATIONS, which also names the config keys each takes as flags.
Configuration comes from defaults, then an optional --config file (flat
key=value lines), then CLI flags, in increasing precedence. Exit codes:
0 success, 1 usage or configuration error, 2 solver failure.
"""
from __future__ import annotations

import argparse
import sys

from .errors import SolverError
from .harness import OPERATIONS, fmt6, load_config, parse_value, resolve_config, run


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per operation; a flag --some-key sets config key some_key."""
    parser = argparse.ArgumentParser(
        prog="bubbletower",
        description="Sign-changing bubble-tower equilibria of the critical heat "
        "equation on annuli: stationary profiles, spectra, and flow runs.",
    )
    defaults = resolve_config()
    sub = parser.add_subparsers(dest="op", required=True, metavar="SUBCOMMAND")
    for op, (_, keys, text) in OPERATIONS.items():
        p = sub.add_parser(op, help=text)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default="runs", help="output root directory (default: runs)")
        for key in keys:
            shown = defaults[key]
            if isinstance(shown, tuple):
                shown = ",".join(map(str, shown))
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=f"default: {shown}")
    return parser


def _console_summary(op: str, summary: dict) -> str:
    if op == "tower":
        return (
            f"tower: slope={fmt6(summary['shooting_slope'])} "
            f"residual={fmt6(summary['residual_norm'])} "
            f"zeros={summary['interior_zeros']} "
            f"d_hat={[fmt6(d) for d in summary['d_hat']]}"
        )
    if op == "eig":
        return (
            f"eig: lambda1={fmt6(summary['lambda1'])} "
            f"residual={fmt6(summary['eigen_residual'])} "
            f"inner_product={fmt6(summary['inner_product'])} "
            f"identity={fmt6(summary['identity_residual'])}"
        )
    if op == "limit":
        ladder = " ".join(f"R={R}:{fmt6(v)}" for R, v in summary["lambda_star_R"].items())
        return f"limit: lambda*={fmt6(summary['lambda_star'])} [{ladder}] overlap={fmt6(summary['overlap'])}"
    if op == "flow":
        extra = f" T={fmt6(summary['T_estimate'])}" if summary.get("T_estimate") else ""
        return (
            f"flow: lambda={fmt6(summary['lambda'])} status={summary['status']}{extra} "
            f"drift_rel={fmt6(summary['drift_rel'])}"
        )
    if op == "sweep":
        counts = ", ".join(f"{k}={v}" for k, v in sorted(summary["status_counts"].items()))
        return f"sweep: {summary['cells']} cells ({counts})"
    if op == "verify":
        n = len(summary["checks"])
        return f"verify: {n}/{n} checks passed"
    if op == "report":
        return f"report: collated {summary['runs']} runs ({summary['version']})"
    return op


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    flags = vars(args)
    op, config, out = flags.pop("op"), flags.pop("config"), flags.pop("out")
    try:
        overrides = {key: parse_value(key, raw) for key, raw in flags.items() if raw is not None}
        file_cfg = load_config(config) if config else {}
        cfg = resolve_config(file_cfg, overrides)
        outdir, summary = run(op, cfg, out, config_path=config)
        print(_console_summary(op, summary))
        print(f"outputs: {outdir}")
        return 0
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
