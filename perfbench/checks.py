"""Output checks for one `energyrep` CLI invocation.

Each check derives its expectation from the config and from mathematics, not
from a stored copy of earlier output:

* exit code and verdicts: every check passes, except that a domain without
  condition (c) makes the gauge suite refuse exactly
  `suite_refused_condition_c`, and the CLI then exits 1;
* `spectrum_domain.csv` on a periodic domain with constant W equals the
  closed-form dispersion of the link-built Laplacian,
  sum_j (2/h^2)(1 - cos k_j h) + W over all mode tuples;
* the seminorm probe's m=0, p=0 constants are 1 at every N (Parseval's
  identity over the complete eigenbasis) and its spectral seminorms are
  nondecreasing in p (all eigenvalues are >= 1).

Every function returns a list of problems; an empty list means the
invocation passed.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

ALL_SUITES = ("spectrum", "ladders", "seminorms", "gauge", "fock", "conformal")
REFUSAL = ("gauge", "suite_refused_condition_c")
DISPERSION_TOL = 1e-9   # absolute, as the suite's own circle dispersion gate
PARSEVAL_TOL = 1e-12
MONOTONE_TOL = 1e-12    # relative


def parse_config(text: str) -> dict:
    """The CLI's `key = value` format, `#` comments."""
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def verdicts(outdir: Path, suites, cfg: dict, exit_code: int) -> list:
    """Exit code and every check verdict are as expected."""
    refuses = cfg["domain.shape"] == "punctured_square"
    problems = []
    want_code = 1 if refuses else 0
    if exit_code != want_code:
        problems.append(f"exit code {exit_code}, expected {want_code}")
    for suite in suites:
        path = outdir / f"{suite}.json"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        if not report["checks"]:
            problems.append(f"{suite}: no checks")
        for c in report["checks"]:
            expected = ("refused" if refuses and (suite, c["name"]) == REFUSAL
                        else "pass")
            if c["verdict"] != expected:
                problems.append(f"{suite}.{c['name']}: {c['verdict']}, "
                                f"expected {expected}")
        if refuses and suite == REFUSAL[0] and not any(
                c["name"] == REFUSAL[1] for c in report["checks"]):
            problems.append(f"{suite}: no {REFUSAL[1]} refusal")
    return problems


def dispersion(outdir: Path, cfg: dict) -> list:
    """spectrum_domain.csv against the closed-form periodic dispersion."""
    shape = cfg["domain.shape"]
    if shape not in ("circle", "torus") \
            or cfg.get("potential.kind", "constant") != "constant":
        return []
    n = int(cfg["domain.nodes"])
    h = 2.0 * math.pi * float(cfg.get("domain.radius", "1.0")) / n
    w = float(cfg.get("potential.value", "2.0"))
    one_axis = (2.0 / h ** 2) * (1.0 - np.cos(np.arange(n) * h))
    axes = 1 if shape == "circle" else 2
    formula = np.zeros(1)
    for _ in range(axes):
        formula = (formula[:, None] + one_axis[None, :]).ravel()
    formula = np.sort(formula + w)
    header, rows = _read_csv(outdir / "spectrum_domain.csv")
    if header != ["index", "eigenvalue"] or \
            [int(r[0]) for r in rows] != list(range(1, n ** axes + 1)):
        return [f"spectrum_domain.csv: expected indices 1..{n ** axes}"]
    got = np.sort(np.array([float(r[1]) for r in rows]))
    err = float(np.max(np.abs(got - formula)))
    if not err <= DISPERSION_TOL:
        return [f"spectrum_domain.csv: off the dispersion formula by {err:.3e}"]
    return []


def seminorm_probe(outdir: Path, cfg: dict) -> list:
    """Parseval constants and monotonicity in p of the equivalence probe."""
    problems = []
    report = json.loads((outdir / "seminorms.json").read_text(encoding="utf-8"))
    header, rows = _read_csv(outdir / "seminorm_constants.csv")
    if header != ["domain", "m", "p", "N", "C_prime_to_spec", "C_spec_to_prime"]:
        return ["seminorm_constants.csv: unexpected header"]
    for domain in ("circle", "interval"):
        probe = report["extras"][f"probe_{domain}"]
        n_list = probe["N_list"]
        if "seminorms.nodes" in cfg and \
                n_list != [int(v) for v in cfg["seminorms.nodes"].split()]:
            problems.append(f"{domain}: N list {n_list}")
        parseval = {int(r[3]): (float(r[4]), float(r[5])) for r in rows
                    if r[0] == domain and r[1] == "0" and float(r[2]) == 0.0}
        if sorted(parseval) != sorted(n_list):
            problems.append(f"{domain}: m=0, p=0 rows for N={sorted(parseval)}")
        for n_size, pair in parseval.items():
            err = max(abs(v - 1.0) for v in pair)
            if not err <= PARSEVAL_TOL:
                problems.append(f"{domain} N={n_size}: m=0, p=0 constants "
                                f"{pair} differ from 1 by {err:.3e}")
        p_grid = sorted(probe["p_grid"])
        for n_size in n_list:
            for lo, hi in itertools.pairwise(p_grid):
                a = np.array(probe["spec_values"][f"p={lo},N={n_size}"])
                b = np.array(probe["spec_values"][f"p={hi},N={n_size}"])
                if a.size == 0 or not np.all(b >= a * (1.0 - MONOTONE_TOL)):
                    problems.append(f"{domain} N={n_size}: spec_values "
                                    f"decrease from p={lo} to p={hi}")
    return problems


def invocation(outdir: Path, suite: str, cfg: dict, exit_code: int) -> list:
    """All checks that apply to one `energyrep <suite>` run."""
    suites = ALL_SUITES if suite == "all" else (suite,)
    problems = verdicts(outdir, suites, cfg, exit_code)
    if problems:
        return problems
    if "spectrum" in suites:
        problems += dispersion(outdir, cfg)
    if "seminorms" in suites:
        problems += seminorm_probe(outdir, cfg)
    return problems


def suite_json_bytes(outdir: Path, suite: str) -> dict:
    """Suite JSON contents, for the byte-identity check across rounds."""
    suites = ALL_SUITES if suite == "all" else (suite,)
    return {s: (outdir / f"{s}.json").read_bytes() for s in suites}
