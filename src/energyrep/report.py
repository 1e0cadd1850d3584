"""Machine-readable check reports: JSON verdicts plus CSV tables.

A report holds what the config, seed and code determine, and nothing of the
machine: a fixed config and seed reproduce its bytes exactly.  The run's
timestamp, versions, platform and BLAS thread setup go to a sidecar meta
file instead.
"""
from __future__ import annotations

import csv
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
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


def loglog_slope(x, y) -> tuple:
    """(slope, intercept) of the least-squares line log y = slope log x +
    intercept, the one fit of every order and exponent gate; (nan, nan)
    unless every entry of x and y is positive and finite."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    if not all(np.all(np.isfinite(v) & (v > 0.0)) for v in (x, y)):
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(intercept)


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
    """`<name>.json`: the bytes of `json.dumps(payload, indent=2,
    sort_keys=True)` with every non-finite float written as the string
    "nan", "inf" or "-inf".

    NaN and inf are not valid JSON.  A refusal's sentinels are already the
    string "refused" (CheckResult.to_dict), so a non-finite measurement,
    which is a failure, never reads as a refusal.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}.json"
    path.write_text(_encode(payload, "\n") + "\n", encoding="utf-8")
    return path


def _encode(obj, newline: str) -> str:
    """obj as json.dumps(indent=2, sort_keys=True) writes it, at the depth
    whose line break and indentation is `newline`, in one recursive pass.

    `json.dumps` takes the pure-Python encoder whenever it indents; here a
    flat list of finite floats is one join of their reprs.  What json.dumps
    cannot encode raises TypeError, as there.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _WORDS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return text if math.isfinite(obj) else f'"{text}"'
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        try:
            text = sep.join(map(float.__repr__, obj))
        except TypeError:  # an item that is not a float
            text = None
        if text is None or "n" in text:  # "n": a "nan" or an "inf"
            text = sep.join([_encode(v, inner) for v in obj])
        return "[" + inner + text + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        text = ("," + inner).join([
            encode_basestring_ascii(_key(k)) + ": " + _encode(obj[k], inner)
            for k in sorted(obj)])
        return "{" + inner + text + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


_WORDS = {None: "null", True: "true", False: "false"}


def _key(key) -> str:
    """A dict key as json.dumps writes it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float) and not math.isfinite(key):
        raise ValueError(f"Out of range float values are not JSON "
                         f"compliant: {key!r}")
    if key is None or isinstance(key, (int, float)):
        return _encode(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


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
