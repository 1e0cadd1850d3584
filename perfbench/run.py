"""Benchmark for the `energyrep` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a closed loop of
CLI invocations, one process at a time.  One round runs the workload's
invocations once, then spawns a few processes that only import
`energyrep.cli` (extra set-up samples).  Rounds repeat until S seconds have
passed, and at least twice (four times when traced), so every run attempts
whole rounds.  Every invocation's exit code and outputs are checked (see
checks.py), and every round must write byte-identical suite JSON.

The last line of standard output is one JSON object.  With `--trace 0` its
metrics are the end-to-end ones, each the median over rounds of a per-round
figure:

    run_s        wall time inside energyrep.cli.main, summed over a round
    setup_s      spawn until energyrep.cli is imported: the median over all
                 of the run's spawns, times the invocations in a round
    cpu_s        user + system CPU of the round's processes
    peak_rss_mb  largest peak resident set among the round's processes

With `--trace 1` rounds alternate untraced and traced; the metrics are the
per-layer figures of the traced rounds (see layertrace.py) and
`trace.overhead_s`, the traced minus the untraced median `run_s`.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"

# The BLAS/OpenMP thread count every invocation gets: the core count the
# workloads are sized for, set explicitly so that a caller's environment
# does not leak into the figures.
THREADS = "2"
DEFAULT_SEED = 1
# At least two rounds, so that the byte-identity check compares something;
# a traced run needs two untraced and two traced rounds for its overhead.
MIN_ROUNDS = {0: 2, 1: 4}
SETUP_SAMPLES_PER_ROUND = 3
# Kill an invocation that would end the run later than this many seconds
# after it started.
RUN_LIMIT_S = 170.0

# name -> list of (subcommand, shipped config, keys changed in it)
WORKLOADS = {
    "shipped": [("all", f"{name}.cfg", {})
                for name in ("circle", "interval", "torus", "punctured")],
    "torus-spectrum": [("spectrum", "torus.cfg", {"domain.nodes": "48"})],
    "probe-refine": [("seminorms", "circle.cfg",
                      {"seminorms.nodes": "32 64 128 256",
                       "seminorms.functions": "400"})],
}

# Per-layer figures: layer (a span name of layertrace.TRACED) -> figures.
# A figure's name is appended to the layer's: `operators.assemble_h.self_s`.
LAYERS = {
    **{f"suites.{s}": ("s",) for s in checks.ALL_SUITES},
    "operators.eigendecomposition": ("calls", "self_s", "n3", "max_n"),
    "operators.assemble_h": ("self_s",),
    "operators.conjugated_operator": ("self_s",),
    "operators.residuals": ("self_s",),
    "seminorms.seminorm_p": ("calls", "self_s"),
    "seminorms.seminorm_prime": ("calls", "self_s"),
    "seminorms.equivalence_probe": ("self_s",),
    "grid.inner_product": ("calls", "self_s"),
    "grid.covariant_derivative": ("calls", "self_s"),
    "grid.field_to_csv": ("self_s",),
    "su2.dexp_batch": ("calls", "nodes", "self_s"),
    "su2.rotation_of": ("self_s",),
    "gauge.gauge_from_algebra": ("self_s",),
    "gauge.log_derivative": ("calls", "self_s"),
    "gauge.v_action": ("calls", "self_s"),
    "gauge.regularity_check": ("self_s",),
    "gauge.cutoff_approximation": ("self_s",),
    "fock.apply_u": ("calls", "self_s"),
    "fock.TruncatedFockVector.from_coherent": ("self_s",),
    "fock.conformal_check": ("self_s",),
    "hermite.build_ladders": ("self_s",),
    "hermite.commutation_bound_check": ("calls", "self_s"),
    "hermite.expansion_matrix": ("self_s",),
    "sampling.random_one_form": ("calls", "self_s"),
    "sampling.random_gauge_field": ("self_s",),
    "report.write": ("self_s",),
}
# figure -> (field of layertrace.Tracer.summary rows, unit)
FIGURES = {
    "s": ("total_s", "s"),
    "calls": ("calls", "count"),
    "self_s": ("self_s", "s"),
    "n3": ("size_cubed", "count"),
    "max_n": ("max_size", "count"),
    "nodes": ("size", "count"),
}
EXTRA_LAYER_METRICS = ("setup.import_s", "trace.overhead_s")  # both in s


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {f"{layer}.{fig}": FIGURES[fig][1]
             for layer, figs in LAYERS.items() for fig in figs}
    return units | dict.fromkeys(EXTRA_LAYER_METRICS, "s")


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.seed = seed
        self.work = root / "perfbench" / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
                        MKL_NUM_THREADS=THREADS)
        self.env.pop("ENERGYREP_OUT", None)
        self.invocations = []
        for i, (suite, shipped, changes) in enumerate(WORKLOADS[workload]):
            path = root / "configs" / shipped
            text = path.read_text(encoding="utf-8")
            if changes:
                text = _change_keys(text, changes)
                path = self.work / f"{i}-{shipped}"
                path.write_text(text, encoding="utf-8")
            self.invocations.append((suite, path, checks.parse_config(text)))
        self.first_json = {}  # invocation -> suite JSON of round 0
        self.start = time.monotonic()

    def spawn(self, tag: str, mode: str, cli_args=()) -> dict:
        """One child process; returns its timings, rusage and exit code."""
        timing = self.work / f"{tag}.timing.json"
        timing.unlink(missing_ok=True)
        argv = [sys.executable, str(LAUNCH), str(timing), mode, *cli_args]
        with open(self.work / f"{tag}.stderr", "wb") as err:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            limit = max(1.0, RUN_LIMIT_S - (spawned_at - self.start))
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child, then go
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"code": proc.returncode,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "rss_kib": usage.ru_maxrss}
        if timing.is_file():
            rec.update(json.loads(timing.read_text(encoding="utf-8")))
            rec["setup_s"] = rec["imported_at"] - spawned_at
        return rec

    def invoke(self, index: int, mode: str) -> tuple[dict, list]:
        """Run invocation `index` of the workload and check its outputs."""
        suite, config, cfg = self.invocations[index]
        out = self.work / f"out{index}"
        shutil.rmtree(out, ignore_errors=True)
        rec = self.spawn(f"inv{index}", mode,
                         [suite, "--config", str(config), "--out", str(out),
                          "--seed", str(self.seed)])
        if "main_s" not in rec:
            tail = (self.work / f"inv{index}.stderr").read_text(
                encoding="utf-8", errors="replace")[-2000:]
            return rec, [f"exit code {rec['code']} and no timing; stderr:\n{tail}"]
        problems = checks.invocation(out, suite, cfg, rec["code"])
        if not problems:
            written = checks.suite_json_bytes(out, suite)
            first = self.first_json.setdefault(index, written)
            problems += [f"{s}.json differs from the first round's"
                         for s in written if written[s] != first[s]]
        return rec, problems


def _change_keys(text: str, changes: dict) -> str:
    """Set each key of `changes` on its one `key = value` line."""
    lines = text.splitlines()
    for key, value in changes.items():
        hits = [i for i, line in enumerate(lines)
                if line.split("=", 1)[0].strip() == key]
        if len(hits) != 1:
            raise SystemExit(f"config key {key!r} found {len(hits)} times")
        lines[hits[0]] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def _layer_values(records) -> dict:
    """Per-layer figures of one traced round: sums over its invocations."""
    values = {}
    for layer, figs in LAYERS.items():
        rows = [r["layers"].get(layer, {}) for r in records]
        for fig in figs:
            field = FIGURES[fig][0]
            combine = max if field == "max_size" else sum
            values[f"{layer}.{fig}"] = combine(row.get(field, 0) for row in rows)
    values["setup.import_s"] = sum(r["import_s"] for r in records)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an interrupt, so a running child is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    missing = [p for p in ("src/energyrep/cli.py", "configs") if
               not (root / p).exists()]
    if missing:
        print(f"not a source checkout of energyrep: {missing} missing",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    bench.spawn("warmup", "import")  # byte-compile and page in the imports
    bench.start = time.monotonic()
    deadline = bench.start + args.seconds

    attempted = failed = 0
    correct = True
    setups = []
    rounds = {"run": [], "trace": []}
    r = 0
    while r < MIN_ROUNDS[args.trace] or time.monotonic() < deadline:
        mode = "trace" if args.trace and r % 2 else "run"
        records = []
        for index in range(len(bench.invocations)):
            rec, problems = bench.invoke(index, mode)
            attempted += 1
            if problems:
                # an invocation that did not run to its end failed; one
                # that did but wrote wrong output makes the run incorrect
                if "main_s" in rec:
                    correct = False
                else:
                    failed += 1
                print(f"round {r} invocation {index}: " + "; ".join(problems),
                      file=sys.stderr)
            records.append(rec)
        if not args.trace:
            setups += [rec["setup_s"] for rec in records if "setup_s" in rec]
            for i in range(SETUP_SAMPLES_PER_ROUND):
                rec = bench.spawn(f"setup{i}", "import")
                if rec["code"] == 0 and "setup_s" in rec:
                    setups.append(rec["setup_s"])
        if all("main_s" in rec for rec in records):
            rounds[mode].append(records)
            print(f"round {r} ({mode}): run_s="
                  f"{sum(rec['main_s'] for rec in records):.3f} cpu_s="
                  f"{sum(rec['cpu_s'] for rec in records):.3f}", file=sys.stderr)
        r += 1
        if time.monotonic() - bench.start > RUN_LIMIT_S:
            break

    if not rounds["run"] or (args.trace and not rounds["trace"]):
        print("no round completed", file=sys.stderr)
        return 1
    med = statistics.median
    run_s = med(sum(rec["main_s"] for rec in recs) for recs in rounds["run"])
    if args.trace:
        per_round = [_layer_values(recs) for recs in rounds["trace"]]
        values = {name: med(v[name] for v in per_round) for name in per_round[0]}
        traced_run_s = med(sum(rec["main_s"] for rec in recs)
                           for recs in rounds["trace"])
        values["trace.overhead_s"] = traced_run_s - run_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_metric_units().items()}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": len(bench.invocations) * med(setups),
                        "unit": "s"},
            "cpu_s": {"value": med(sum(rec["cpu_s"] for rec in recs)
                                   for recs in rounds["run"]), "unit": "s"},
            "peak_rss_mb": {"value": med(max(rec["rss_kib"] for rec in recs)
                                         for recs in rounds["run"]) / 1024.0,
                            "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
