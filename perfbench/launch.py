"""Child-process launcher: run one `energyrep` CLI invocation and time it.

    python3 launch.py TIMING_JSON MODE [CLI ARGS...]

MODE is `run` (plain CLI call), `trace` (CLI call with the layer trace
installed) or `import` (import `energyrep.cli` and stop; a set-up sample).
The launcher writes to TIMING_JSON the monotonic clock reading taken right
after `energyrep.cli` is imported, the import time, the wall time inside
`energyrep.cli.main` and, under `trace`, the per-layer summary.  It exits
with the CLI's exit code.
"""
import json
import sys
import time


def main() -> int:
    timing_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.monotonic()
    import energyrep.cli as cli
    t1 = time.monotonic()
    record = {"imported_at": t1, "import_s": t1 - t0}
    code = 0
    if mode != "import":
        tracer = None
        if mode == "trace":
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        t2 = time.perf_counter()
        code = cli.main(argv)
        record["main_s"] = time.perf_counter() - t2
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.summary()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
