"""The benchmark's layer trace binds every function it names, the package
defines nothing that it never uses, it contracts no three arrays in one
einsum, the ladder calculus multiplies no matrices, nothing rolls an
array, assembly writes no dense link matrix, every eigensolve is handed a
symmetric matrix, a conjugate solves only what H solves, every CSV and
JSON file of the shipped configs has the bytes of the writer it replaced,
only the report module writes files, `energyrep conformal` at its element
cap stays small, and the spectrum convergence script runs."""
import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import energyrep.cli  # noqa: F401  (the trace wraps what the CLI imports)
from energyrep import grid as grid_module, report, suites
from energyrep.config import load_config
from energyrep.grid import WeightField, build_grid
from energyrep.operators import assemble_h, conjugated_operator
from energyrep.suites import run_suite

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"


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


def test_factored_eigendecomposition_is_one_traced_solve(monkeypatch):
    # the per-axis solves must not reach the traced method, and the span is
    # sized from the assembled matrix: --trace 1 call counts and n3 rely on it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    from energyrep.grid import WeightField, build_grid
    from energyrep.operators import assemble_h

    g = build_grid("torus", 8, radius=1.0)
    op = assemble_h(g, WeightField.constant(g, 2.0))
    assert op.factors is not None
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        op.eigendecomposition()
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[0] == "operators.eigendecomposition"]
    assert len(spans) == 1
    assert spans[0][4] == 64


def _recorded_solves(monkeypatch):
    """Wrap np.linalg.eigh and eigvalsh; the list collects a copy of every
    matrix they are handed."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        def recorded(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            seen.append(np.array(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return seen


@pytest.mark.parametrize("name", ["circle", "torus"])
def test_every_solve_is_of_a_symmetric_matrix(name, monkeypatch, tmp_path):
    # no matrix is symmetrized before a solve: each is H's, or a factor of
    # it, symmetric as assembled
    seen = _recorded_solves(monkeypatch)
    run_suite("all", load_config(REPO / "configs" / f"{name}.cfg"), tmp_path)
    assert seen
    assert all(np.array_equal(m, m.T) for m in seen)


def _fmt(v):
    """The per-value formatter write_csv once applied to every value."""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


@pytest.mark.parametrize("name", ["circle", "interval", "torus", "punctured"])
def test_bulk_csv_rows_keep_the_formatter_bytes(name, monkeypatch, tmp_path):
    written = []

    def checked(outdir, csv_name, header, rows, _write=report.write_csv):
        rows = list(rows)
        path = _write(outdir, csv_name, header, rows)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        assert path.read_bytes() == buf.getvalue().encode("utf-8"), csv_name
        written.append(csv_name)
        return path

    for module in (report, grid_module, suites):
        monkeypatch.setattr(module, "write_csv", checked)
    run_suite("all", load_config(REPO / "configs" / f"{name}.cfg"), tmp_path)
    assert "spectrum_domain" in written
    assert {p.stem for p in tmp_path.glob("*.csv")} == set(written)


def _json_safe(obj):
    """The walk write_json once applied before json.dumps: a non-finite
    float as its repr."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _json_bytes(payload):
    """The bytes write_json wrote through json.dumps."""
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    return (text + "\n").encode("utf-8")


@pytest.mark.parametrize("name", ["circle", "interval", "torus", "punctured"])
def test_report_json_keeps_the_encoder_bytes(name, monkeypatch, tmp_path):
    written = []

    def checked(outdir, json_name, payload, _write=report.write_json):
        path = _write(outdir, json_name, payload)
        assert path.read_bytes() == _json_bytes(payload), json_name
        written.append(json_name)
        return path

    for module in (report, suites):
        monkeypatch.setattr(module, "write_json", checked)
    run_suite("all", load_config(REPO / "configs" / f"{name}.cfg"), tmp_path)
    assert "hilbert_schmidt" in written
    assert {p.stem for p in tmp_path.glob("*.json")} == set(written)


def test_report_json_edge_payload_keeps_the_encoder_bytes(tmp_path):
    payload = {
        "empty": [{}, []], "nested": [[1.5, [2.0, []]], [{"a": [{}]}]],
        "tuple": (1, -2.5, "x"), "words": [True, False, None],
        "negative_zero": -0.0, "tiny": 1e-300, "huge": [-3e300, 10 ** 30],
        "text": "h\u00e9llo \u2603 \n\t\x01\x1f \"quoted\" back\\slash",
        "non_finite": [float("nan"), 0.5, float("inf"), float("-inf")],
        "scalar_nan": float("nan"),
        "int_keys": {10: 1.0, 2: [], -1: None},
        "float_keys": {0.5: "half", 2.0: "two"},
        "word_keys": {False: 0, True: 1},
    }
    path = report.write_json(tmp_path, "edge", payload)
    assert path.read_bytes() == _json_bytes(payload)
    for bad in (np.int64(3), {1, 2}):
        for value in (bad, [1.0, bad], {"k": (bad,)}):
            with pytest.raises(TypeError):
                _json_bytes({"v": value})
            with pytest.raises(TypeError):
                report.write_json(tmp_path, "bad", {"v": value})


@pytest.mark.parametrize("shape", ["circle", "torus"])
def test_a_conjugate_solves_only_what_h_solves(shape, monkeypatch):
    g = build_grid(shape, 16, radius=1.0)
    op = assemble_h(g, WeightField.constant(g, 2.0))
    h_rho = conjugated_operator(op, 0.3 * np.cos(g.nodes[:, 0]))
    seen = _recorded_solves(monkeypatch)
    op.eigendecomposition()
    h_solves = len(seen)
    h_rho.eigendecomposition()
    assert 0 < len(seen) - h_solves <= h_solves
    # the very matrices H's solve is handed
    assert all(np.array_equal(m, seen[k])
               for k, m in enumerate(seen[h_solves:]))


def _lookup(modname, path):
    owner = sys.modules[modname]
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner.__dict__[attr] if owners else getattr(owner, attr)


SRC = Path(__file__).resolve().parents[1] / "src" / "energyrep"
# entry points reached from outside the package
ROOTS = {("cli.py", "main")}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(src):
    """Every function, class and method of the package, as (file, qualified
    name, name, index of the enclosing definition or None, names it reads),
    and the names that module-level code reads.  A definition reads the
    names inside it that no nested definition holds; __init__.py only
    re-exports, so it is not read."""
    defs, top = [], set()

    def walk(node, file, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                defs.append((file, prefix + child.name, child.name, owner,
                             set()))
                walk(child, file, len(defs) - 1, prefix + child.name + ".")
                continue
            reads = top if owner is None else defs[owner][4]
            if isinstance(child, ast.Name):
                reads.add(child.id)
            elif isinstance(child, ast.Attribute):
                reads.add(child.attr)
            walk(child, file, owner, prefix)

    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text(encoding="utf-8")), path.name,
                 None, "")
    return defs, top


def _unreferenced(src):
    """The definitions that no live code references by name.

    Live are module-level code, the ROOTS, every definition whose name live
    code reads, and a dunder whose enclosing class is live or that has none
    (Python calls it).  The set is grown to a fixed point, so a definition
    read only from dead code is dead too.  Names match bare: a dead
    definition whose name live code also reads as something else, such as
    an argument (`scalar`, once both a `Field` method and an argument of
    `Field.__mul__`), stays uncaught.
    """
    defs, read = _definitions(src)
    live = set()
    grown = True
    while grown:
        grown = False
        for k, (file, _, name, owner, reads) in enumerate(defs):
            called = _dunder(name) and (owner is None or owner in live)
            if k not in live and ((file, name) in ROOTS or name in read
                                  or called):
                live.add(k)
                read |= reads
                grown = True
    return [f"{file}:{qualname}"
            for k, (file, qualname, name, _, _) in enumerate(defs)
            if k not in live and not _dunder(name)]


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced_in_the_package():
    unused = _unreferenced(SRC)
    assert not unused, f"defined but never referenced: {unused}"


def test_a_definition_read_only_from_dead_code_is_dead(tmp_path):
    # dead and orphan read each other, and nothing live reads either
    (tmp_path / "mod.py").write_text(
        "def live():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def dead():\n    return orphan()\n\n\n"
        "def orphan():\n    return dead()\n\n\n"
        "VALUE = live()\n", encoding="utf-8")
    assert _unreferenced(tmp_path) == ["mod.py:dead", "mod.py:orphan"]


def _wide_einsums(src):
    """Every einsum call of the package with three or more array operands,
    as file:line.  Without `optimize` numpy runs such a call as one nested
    loop over all of its indices; the kernels write their contractions out.
    The contraction oracles under tests/ are not scanned."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            operands = [a for a in node.args
                        if not (isinstance(a, ast.Constant)
                                and isinstance(a.value, str))]
            if name == "einsum" and len(operands) >= 3:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_einsum_of_three_or_more_operands_in_the_package():
    wide = _wide_einsums(SRC)
    assert not wide, f"einsum over three or more operands: {wide}"


def test_wide_einsum_scan_sees_both_spellings(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\nfrom numpy import einsum\n\n\n"
        "def two(a, b):\n    return np.einsum('ij,jk->ik', a, b)\n\n\n"
        "def three(a, b, c):\n"
        "    return np.einsum('ij,jk,kl->il', a, b, c)\n\n\n"
        "def bare(a, b, c, d):\n"
        "    return einsum('ij,jk,kl,lm->im', a, b, c, d)\n",
        encoding="utf-8")
    assert _wide_einsums(tmp_path) == ["mod.py:10", "mod.py:14"]


MATRIX_PRODUCTS = ("dot", "matmul")


def _matrix_products(path):
    """Every matrix product in one file, as file:line: the @ operator (also
    @=), and calls of dot or matmul in either spelling."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Call):
            func = node.func
            hit = (func.attr if isinstance(func, ast.Attribute)
                   else getattr(func, "id", None)) in MATRIX_PRODUCTS
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_no_matrix_product_in_the_ladder_calculus():
    # a ladder letter has at most one entry per row: words gather through
    # the shift tables
    found = _matrix_products(SRC / "hermite.py")
    assert not found, f"matrix product in the ladder calculus: {found}"


def test_matrix_product_scan_sees_every_spelling(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\nfrom numpy import dot\n\n\n"
        "def sums(a, b):\n    return np.add(a, b) + a * b\n\n\n"
        "def products(a, b):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    return np.dot(a, b) + np.matmul(a, b) + dot(a, b) + a.dot(b)\n",
        encoding="utf-8")
    assert _matrix_products(tmp_path / "mod.py") == [
        "mod.py:10", "mod.py:11", "mod.py:12"]


def _rolls(src):
    """Every roll of the package, as file:line: a call of roll in either
    spelling, and an import of roll under any name."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                hit = any(a.name == "roll" for a in node.names)
            elif isinstance(node, ast.Call):
                func = node.func
                hit = (func.attr if isinstance(func, ast.Attribute)
                       else getattr(func, "id", None)) == "roll"
            else:
                continue
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_roll_in_the_package():
    # a centered difference reads its neighbours from slices; a roll copies
    # the whole field for every shift
    found = _rolls(SRC)
    assert not found, f"roll in the package: {found}"


def test_roll_scan_sees_every_spelling(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\nimport numpy\n\n\n"
        "def kept(a):\n    return np.rollaxis(a, 1) + a[1:] - a[:-1]\n\n\n"
        "def rolled(a):\n"
        "    from numpy import roll\n"
        "    from numpy import roll as shift\n"
        "    b = np.roll(a, 1) + numpy.roll(a, -1, axis=0)\n"
        "    return b + roll(a, 2) + shift(a, 1)\n",
        encoding="utf-8")
    assert _rolls(tmp_path) == ["mod.py:10", "mod.py:11", "mod.py:12",
                                "mod.py:12", "mod.py:13"]


REPORT_FORMATS = ("json", "csv")
FILE_WRITES = ("write_text", "write_bytes", "tofile", "save", "savez",
               "savez_compressed", "savetxt")


def _writes_a_mode(mode):
    """Whether an open's mode argument may write; a mode that is not a
    string literal may."""
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set("wax+") & set(mode.value))


def _file_writers(src):
    """Every import of json or csv and every file write of the package
    outside report.py, as file:line: an open whose mode may write (the
    mode is open's second argument, Path.open's first), and the calls of
    FILE_WRITES in either spelling."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                hit = any(a.name.split(".")[0] in REPORT_FORMATS
                          for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").split(".")[0] in REPORT_FORMATS
            elif isinstance(node, ast.Call):
                func = node.func
                bare = isinstance(func, ast.Name)
                name = func.id if bare else getattr(func, "attr", None)
                if name == "open":
                    modes = node.args[1 if bare else 0:][:1] + [
                        k.value for k in node.keywords if k.arg == "mode"]
                    hit = any(_writes_a_mode(m) for m in modes)
                else:
                    hit = name in FILE_WRITES
            else:
                continue
            if hit:
                found.append((path.name, node.lineno))
    return [f"{file}:{line}" for file, line in sorted(set(found))]


def test_only_the_report_module_writes_files():
    # every file goes through the writers of energyrep.report
    found = _file_writers(SRC)
    assert not found, f"writes a file outside report.py: {found}"


def test_file_writer_scan_sees_every_spelling(tmp_path):
    (tmp_path / "report.py").write_text("import json\n", encoding="utf-8")
    (tmp_path / "mod.py").write_text(
        "import numpy as np\nfrom pathlib import Path\n\n\n"
        "def reads(path):\n"
        "    with open(path) as a, open(path, 'rb') as b:\n"
        "        return a.read(), b.read(), Path(path).open('r').read()\n\n\n"
        "def writes(path, mode, data):\n"
        "    import csv, os.path\n"
        "    from json import dumps\n"
        "    open(path, 'w').write(dumps(data))\n"
        "    open(path, mode=mode)\n"
        "    Path(path).open('a+')\n"
        "    Path(path).write_text('x')\n"
        "    np.save(path, data)\n",
        encoding="utf-8")
    assert _file_writers(tmp_path) == [
        f"mod.py:{line}" for line in range(11, 18)]


def test_assembly_writes_no_dense_link_matrix():
    # one N x N float array at N = 1024 is 8 MiB; the stencil is O(N)
    from energyrep.grid import WeightField, build_grid
    from energyrep.operators import assemble_h

    g = build_grid("circle", 1024, radius=1.0)
    weight = WeightField.constant(g, 2.0)
    tracemalloc.start()
    try:
        assemble_h(g, weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"assemble_h peaked at {peak} bytes"


# The child's own high-water mark.  Its ru_maxrss would not do: Linux
# carries the forking process's peak into it at exec, so a child of a
# large pytest process reads at least that process's peak.
PEAK_RSS_CHILD = (
    "import sys\n"
    "from energyrep.cli import main\n"
    "code = main(['conformal', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
    "status = open('/proc/self/status', encoding='utf-8').read()\n"
    "print(status.split('VmHWM:')[1].split()[0])\n"
    "sys.exit(code)\n")


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="reads the peak from /proc/self/status")
def test_conformal_at_its_element_cap_stays_small(tmp_path):
    # the matrix elements come from one gram of the two test sets, so the
    # memory is linear in conformal.elements: 876 MiB when every (f, g)
    # pair was a whole field, 46 MiB since
    text = (REPO / "configs" / "circle.cfg").read_text(encoding="utf-8")
    edited = text.replace("conformal.elements = 4\n",
                          "conformal.elements = 100\n")
    assert edited != text
    config = tmp_path / "circle.cfg"
    config.write_text(edited, encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, str(config),
                           str(tmp_path / "out")], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    peak_mib = int(proc.stdout.split()[-1]) / 1024
    assert peak_mib < 128, f"energyrep conformal peaked at {peak_mib:.0f} MiB"


def test_spectrum_convergence_script_runs():
    script = SRC.parents[1] / "scripts" / "spectrum_convergence.py"
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    rows = [r for r in map(str.split, proc.stdout.splitlines())
            if r and r[0].isdigit()]
    assert [int(r[0]) for r in rows] == [32, 64, 128, 256]
    # column 2 is the formula dev: the eigenvalues against the exact
    # discrete dispersion
    assert all(float(r[1]) <= 1e-9 for r in rows), proc.stdout
