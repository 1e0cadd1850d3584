"""Machine-readable check reports: JSON verdicts plus CSV tables.

A report holds what the config, seed and code determine, and nothing of the
machine: a fixed config and seed reproduce its bytes exactly.  The run's
timestamp, versions, platform and BLAS thread setup go to a sidecar meta
file instead.
"""
from __future__ import annotations

import csv
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    comparator: str  # "<=" or ">="
    verdict: str     # pass | fail | refused
    detail: str = ""

    def to_dict(self) -> dict:
        refused = self.verdict == "refused"
        return {
            "name": self.name,
            "measured": "refused" if refused else self.measured,
            "tolerance": "refused" if refused else self.tolerance,
            "comparator": self.comparator,
            "verdict": self.verdict,
            "detail": self.detail,
        }


def check(name: str, measured: float, tolerance: float,
          comparator: str = "<=", detail: str = "") -> CheckResult:
    measured = float(measured)
    ok = measured <= tolerance if comparator == "<=" else measured >= tolerance
    return CheckResult(name, measured, float(tolerance), comparator,
                       "pass" if ok else "fail", detail)


def refusal(name: str, detail: str) -> CheckResult:
    return CheckResult(name, float("nan"), float("nan"), "<=", "refused",
                       detail)


@dataclass
class Report:
    suite: str
    seed: int
    config_digest: str
    checks: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "checks": [c.to_dict() for c in self.checks],
            "extras": self.extras,
            "passed": self.passed,
        }

    def write_json(self, outdir: Path) -> Path:
        return write_json(outdir, self.suite, self.to_dict())


def write_json(outdir: Path, name: str, payload: dict) -> Path:
    """`<name>.json` with sorted keys; non-finite floats as strings."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}.json"
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _json_safe(obj):
    """NaN and inf are not valid JSON: write them as "nan", "inf" or "-inf".

    A refusal's sentinels are already the string "refused" (CheckResult.to_dict),
    so a non-finite measurement, which is a failure, never reads as a refusal.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_stamp() -> str:
    """`platform.platform()`, built on Linux without the `uname -p`
    subprocess that unpacking `platform.uname()` spawns."""
    system = platform.system()
    if system != "Linux":
        return platform.platform()
    libc, version = platform.libc_ver()
    return "-".join(filter(None, (system, platform.release(),
                                  platform.machine(), "with", libc + version)))


def write_sidecar_meta(outdir: Path, note: str = "",
                       blas_pin: str = "unpinned") -> Path:
    """Wall-clock stamp, versions, platform and BLAS thread setup, isolated
    from the reports.

    The CLI runs BLAS on one thread whatever OPENBLAS_NUM_THREADS says, and
    passes the setter it called, or "unpinned", as `blas_pin`.  Unpinned,
    the last digits of a dense solve can follow the thread count (the
    interval's `gram_identity` does), so the thread variables are recorded
    too, "unset" if absent.
    """
    from . import __version__
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "run_meta.txt"
    stamp = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "package": f"energyrep {__version__}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": machine_stamp(),
        "blas_pin": blas_pin,
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }
    lines = "".join(f"{key}={value}\n" for key, value in stamp.items())
    path.write_text(f"{lines}{note}\n", encoding="utf-8")
    return path


def write_csv(outdir: Path, name: str, header, rows) -> Path:
    """`<name>.csv`; the csv module writes a float as its repr, so only
    numpy scalars are converted, to the Python number they hold."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v.item() if isinstance(v, np.generic) else v
                          for v in row] for row in rows)
    return path
