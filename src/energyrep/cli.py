"""Command line runner: `energyrep <suite> --config <path> --out <dir>`.

Exit codes: 0 all checks pass, 1 at least one check failed or was refused,
2 configuration or usage error.  ENERGYREP_OUT overrides the default output
directory; an explicit --out beats the environment.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .report import write_sidecar_meta
from .suites import SUITES, run_suite

SUBCOMMANDS = tuple(SUITES) + ("all",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energyrep",
        description="Run verification suites for the gauge-group energy "
                    "representation lab and write JSON/CSV reports.")
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} suite"
                           if name != "all" else "run every suite")
        p.add_argument("--config", required=True, help="key-value config file")
        p.add_argument("--out", default=None,
                       help="output directory (default: ./out, or ENERGYREP_OUT)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    outdir = args.out or os.environ.get("ENERGYREP_OUT") or "out"
    outdir = Path(outdir)

    try:
        cfg = load_config(args.config, seed=args.seed)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    reports = run_suite(args.suite, cfg, outdir)
    write_sidecar_meta(outdir, note=f"suite={args.suite} config={args.config}")

    failed = 0
    for rep in reports:
        for c in rep.checks:
            marker = {"pass": "ok", "fail": "FAIL", "refused": "REFUSED"}[c.verdict]
            outcome = (c.detail if c.verdict == "refused" else
                       f"measured={c.measured:.3e} {c.comparator} {c.tolerance:.3e}")
            print(f"[{marker:>7}] {rep.suite}.{c.name}: {outcome}")
            if c.verdict != "pass":
                failed += 1
        print(f"suite {rep.suite}: {'pass' if rep.passed else 'FAIL'} "
              f"({len(rep.checks)} checks) -> {outdir / (rep.suite + '.json')}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
