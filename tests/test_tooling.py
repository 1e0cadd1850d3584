"""The benchmark's layer trace binds every function it names."""
import sys
from pathlib import Path

import energyrep.cli  # noqa: F401  (the trace wraps what the CLI imports)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_has_a_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace

    tracer = layertrace.Tracer()
    originals = {(mod, path): _lookup(mod, path)
                 for _, mod, path in layertrace.TRACED}
    try:
        tracer.install()  # raises on a traced name that is not bound
        for (mod, path), original in originals.items():
            assert _lookup(mod, path) is not original, f"{mod}.{path}"
    finally:
        tracer.uninstall()
    for (mod, path), original in originals.items():
        assert _lookup(mod, path) is original, f"{mod}.{path}"


def _lookup(modname, path):
    owner = sys.modules[modname]
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner.__dict__[attr] if owners else getattr(owner, attr)
