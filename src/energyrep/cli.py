"""Command line runner: `energyrep <suite> --config <path> --out <dir>`.

Exit codes: 0 all checks pass, 1 at least one check failed or was refused,
2 configuration or usage error.  ENERGYREP_OUT overrides the default output
directory; an explicit --out beats the environment.  The CLI runs BLAS on one
thread: it loads numpy with OPENBLAS_NUM_THREADS=1 when no one has loaded it
yet, and `main` pins the count (`pin_blas_threads`).  `import energyrep`
loads nothing.
"""
from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

# OpenBLAS sizes its thread pool as numpy loads it, and a new worker spins
# before it sleeps; child processes and the sidecar see the caller's value.
if "numpy" not in sys.modules:
    _caller_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if _caller_threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = _caller_threads
import numpy as np

from .config import ConfigError, load_config
from .report import write_sidecar_meta
from .suites import SUITES, run_suite

SUBCOMMANDS = tuple(SUITES) + ("all",)
# Thread-count setters of OpenBLAS as numpy bundles it, of a plain OpenBLAS,
# and of MKL (whose C header makes `mkl_set_num_threads` a macro for this
# entry point).
BLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                "openblas_set_num_threads", "MKL_Set_Num_Threads")


def _blas_libraries() -> list[str | None]:
    """numpy's bundled BLAS (`numpy.libs` in Linux and Windows wheels,
    `numpy/.dylibs` in macOS ones), then the process's global symbols."""
    package = Path(np.__file__).parent
    bundled = [*package.parent.glob("numpy.libs/libscipy_openblas*"),
               *package.glob(".dylibs/libscipy_openblas*")]
    return [str(path) for path in sorted(bundled)] + [None]


def pin_blas_threads() -> str:
    """Run BLAS on one thread; return the setter's name, or "unpinned" when
    none is found.  Never raises.

    Every dense solve of the lab is small (at most 400 rows on the shipped
    configs), where a second thread burns CPU for no wall time, can stall a
    process's first solve, and moves the last digits of a report with the
    thread count.  This module starts OpenBLAS on one thread when it loads
    numpy; the call covers a process that loaded numpy first (a test runner,
    a library caller) and MKL, which reads its variables lazily.
    """
    for path in _blas_libraries():
        try:
            library = ctypes.CDLL(path)
        except (OSError, TypeError):
            continue
        for name in BLAS_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return name
    return "unpinned"


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
    blas_pin = pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)

    outdir = args.out or os.environ.get("ENERGYREP_OUT") or "out"
    outdir = Path(outdir)

    try:
        cfg = load_config(args.config, seed=args.seed)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:  # before any suite runs, not when its first report is written
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output directory error: {exc}", file=sys.stderr)
        return 2

    reports = run_suite(args.suite, cfg, outdir)
    write_sidecar_meta(outdir, note=f"suite={args.suite} config={args.config}",
                       blas_pin=blas_pin)

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
