"""Command-line entry point.

Subcommands: tower, eig, limit, flow, sweep, verify, report, one per entry
of harness.OPERATIONS, which also names the config keys each takes as flags
and formats the console line each prints, so no code here names an operation.
Configuration comes from defaults, then an optional --config file (flat
key=value lines), then CLI flags, in increasing precedence. Exit codes:
0 success, 1 usage or configuration error, 2 solver failure.
"""
from __future__ import annotations

import argparse
import sys

from .errors import SolverError
from .harness import OPERATIONS, load_config, parse_value, resolve_config, run


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per operation; a flag --some-key sets config key some_key."""
    parser = argparse.ArgumentParser(
        prog="bubbletower",
        description="Sign-changing bubble-tower equilibria of the critical heat "
        "equation on annuli: stationary profiles, spectra, and flow runs.",
    )
    defaults = resolve_config()
    sub = parser.add_subparsers(dest="op", required=True, metavar="SUBCOMMAND")
    for op, (_, keys, text, _) in OPERATIONS.items():
        # flags are spelled in full: a prefix match would take sweep's unknown --eps for --eps-list
        p = sub.add_parser(op, help=text, allow_abbrev=False)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default="runs", help="output root directory (default: runs)")
        for key in keys:
            shown = defaults[key]
            if isinstance(shown, tuple):
                shown = ",".join(map(str, shown))
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=f"default: {shown}")
    return parser


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
        config_file = load_config(config) if config else None
        cfg = resolve_config(config_file[0] if config_file else {}, overrides)
        outdir, summary = run(op, cfg, out, config_file=config_file)
        print(f"{op}: {OPERATIONS[op][3](summary)}")
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
