import ast
import importlib
import importlib.util
import pathlib

import pytest

import qbroadcast

MODULES = sorted(p for p in pathlib.Path(qbroadcast.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def unread_private_names(sources: list) -> set:
    """Module-level ``_names`` the modules define but none of them reads, by name, import or attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {name for name in defined if name.startswith("_") and not name.endswith("__")} - read


class TestImports:
    # __init__.py only re-exports, so it is left out
    @pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
    def test_every_imported_name_is_read(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == set()

    def test_detects_an_unused_name(self):
        assert unused_imports("import numpy as np\nfrom os import path, sep\nprint(sep)\n") == {"np", "path"}


class TestPrivateNames:
    def test_every_private_name_is_read(self):
        sources = [p.read_text(encoding="utf-8") for p in pathlib.Path(qbroadcast.__file__).parent.glob("*.py")]
        assert unread_private_names(sources) == set()

    def test_detects_an_unread_name(self):
        a = "_LIMIT = 3\n_TABLE: dict = {}\ndef _used():\n    pass\ndef _dead():\n    pass\nclass _Gone:\n    pass\n"
        b = "from a import _used\nimport a\nprint(a._TABLE, __name__)\n"
        assert unread_private_names([a, b]) == {"_LIMIT", "_dead", "_Gone"}


def perfbench_spans():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestPerfbenchSpans:
    def test_every_entry_point_exists(self):
        # a span around a name the package no longer has reads 0 without failing the benchmark
        spans = perfbench_spans()
        missing = {(module, attr) for _, targets in spans.ENTRY_POINTS for module, attr in targets
                   if not hasattr(importlib.import_module(f"qbroadcast.{module}"), attr)}
        assert missing <= {("bruteforce", "_spectra_entropy"), ("cli", "_write_sidecar")}

    def test_traced_sweep_counts_optimizer_runs(self, tmp_path):
        # the tracer wraps maximize_batch's fn as a one-argument objective and reads bool(info["converged"]),
        # so a sweep must still hand it both
        spans = perfbench_spans()
        modules = {name: importlib.import_module(f"qbroadcast.{name}")
                   for name in ("bruteforce", "channels", "cli", "optimize", "regions", "specio")}
        tracer = spans.Tracer(modules)
        tracer.install()
        try:
            argv = ["region", "cq", "--channel", "pinching-cq", "--grid", "2", "--restarts", "2"]
            assert modules["cli"].run([*argv, "--out", str(tmp_path / "cq.csv")]) == 0
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, tracer.notes, 0, set())
        assert metrics["optimize.runs"] > 0 and metrics["optimize.objective_calls"] > metrics["optimize.runs"]
        assert metrics["regions.targets"] == 2


class TestValidationBoundary:
    def test_one_field_prefix_rule(self):
        # a ValidationError is caught only to put a field name in front (errors.prefixed) or to print it (cli.run)
        catchers = set()
        for path in MODULES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for node in ast.walk(fn):
                        if (isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name)
                                and node.type.id == "ValidationError"):
                            catchers.add(f"{path.stem}.{fn.name}")
        assert catchers == {"errors.prefixed", "cli.run"}


def node_sites(source: str, module: str, hit) -> set:
    """Where a module has a node ``hit`` accepts: ``module.function`` of the innermost enclosing def, else
    ``module``."""
    sites = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if hit(child):
                sites.add(owner)
            visit(child, owner)
    visit(ast.parse(source), module)
    return sites


def attribute_sites(source: str, module: str, attr: str) -> set:
    """Where a module reads an ``.attr`` attribute (``np.log2``, ``np.linalg.svd``)."""
    return node_sites(source, module, lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def read_sites(source: str, module: str, name: str) -> set:
    """Where a module reads ``name``, as a bare name (``maximize_batch(...)``) or an attribute (``np.linalg.qr``)."""
    return node_sites(source, module, lambda node: (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                                                    and node.id == name) or getattr(node, "attr", None) == name)


def package_sites(attr: str) -> set:
    return set().union(*(attribute_sites(p.read_text(encoding="utf-8"), p.stem, attr) for p in MODULES))


def integer_check(node) -> bool:
    """``Integral``, read as a name or an attribute, or an ``isinstance`` call whose types are or hold ``bool``."""
    if getattr(node, "id", None) == "Integral" or getattr(node, "attr", None) == "Integral":
        return True
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and len(node.args) == 2):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds)


class TestOneEntropyRule:
    def test_log2_only_in_the_entropy_rules(self):
        # the engine's one -p log2 p rule, the scalar binary entropy, and the oracles' own independent rule
        assert package_sites("log2") == {"states.entropy_and_slope", "states.binary_entropy",
                                         "bruteforce._table_entropy"}

    def test_detects_a_second_copy(self):
        source = ("import numpy as np\nclass K:\n    def h(self, p):\n        return np.log2(p)\n"
                  "ONE = np.log2(2.0)\ndef outer():\n    return lambda p: np.log2(p)\n")
        assert attribute_sites(source, "mod", "log2") == {"mod.h", "mod", "mod.outer"}


class TestOneTraceNormRule:
    def test_svd_only_in_the_trace_norm_rule_and_fidelity(self):
        # trace distance, the degrading-map residual and its contraction floor all go through states.trace_norms
        assert package_sites("svd") == {"states.trace_norms", "states.fidelity"}

    def test_detects_a_second_copy(self):
        source = ("import numpy as np\nfrom .states import trace_norms\ndef residual(d):\n"
                  "    return np.linalg.svd(d, compute_uv=False).sum(axis=-1).max()\n"
                  "def floor(d):\n    return trace_norms(d).max()\n")
        assert attribute_sites(source, "channels", "svd") == {"channels.residual"}


class TestOneLeastSquaresRule:
    def test_lstsq_only_in_the_linear_fit(self):
        # the degrading-map search has one closed-form fit, the linear one, for every probe set
        assert package_sites("lstsq") == {"channels._choi_fit_stack"}

    def test_detects_a_second_copy(self):
        source = ("import numpy as np\ndef _choi_fit_stack(b, c):\n    return np.linalg.lstsq(b, c)[0]\n"
                  "def _least_squares_maps(q, c):\n    sol, *_ = np.linalg.lstsq(q, c, rcond=None)\n    return sol\n")
        assert attribute_sites(source, "channels", "lstsq") == {"channels._choi_fit_stack",
                                                               "channels._least_squares_maps"}


class TestOneDegradingMapFit:
    def test_one_fit_call_and_one_decode(self):
        # the degrading-map search makes its one fit call, a Douglas-Rachford projection, from one place, and
        # neither imports the optimizer nor decodes Kraus parameters through a QR factorization
        source = (pathlib.Path(qbroadcast.__file__).parent / "channels.py").read_text(encoding="utf-8")
        for name in ("maximize_batch", "seeded_rng", "OptimizerConfig", "qr"):
            assert read_sites(source, "channels", name) == set(), name
        modules = {node.module for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)}
        assert "optimize" not in modules
        assert read_sites(source, "channels", "_projection_fit") == {"channels.degradedness_residual"}

    def test_detects_a_second_copy(self):
        source = ("import numpy as np\nfrom .optimize import maximize_batch\n"
                  "def degradedness_residual(b, c):\n    return _projection_fit(b, c)\n"
                  "def _fit_maps(b, c):\n    return _projection_fit(b, c)[None]\n"
                  "def _retraction_decode(fn, x, cfg):\n    return np.linalg.qr(maximize_batch(fn, x, cfg)[0])\n"
                  "def _prep_decode(a):\n    from numpy.linalg import qr\n    return qr(a)[0]\n")
        assert read_sites(source, "channels", "_projection_fit") == {"channels.degradedness_residual",
                                                                    "channels._fit_maps"}
        assert read_sites(source, "channels", "maximize_batch") == {"channels._retraction_decode"}
        assert read_sites(source, "channels", "qr") == {"channels._retraction_decode", "channels._prep_decode"}


class TestOneIntegerRule:
    def test_integer_checks_only_in_the_errors_rule(self):
        # every count (dims, k, t_size, mesh, restarts, ...) goes through errors.integer
        sites = set().union(*(node_sites(p.read_text(encoding="utf-8"), p.stem, integer_check) for p in MODULES))
        assert sites == {"errors.integer"}

    def test_detects_a_second_copy(self):
        source = ("import numbers\nfrom numbers import Integral\ndef _positive_int(v):\n"
                  "    if not isinstance(v, int) or isinstance(v, bool) or v < 1:\n        raise ValueError(v)\n"
                  "class Config:\n    def check(self, v):\n        return isinstance(v, (bool, float))\n"
                  "COUNT = isinstance(3, numbers.Integral)\ndef dims(v):\n    return isinstance(v, Integral)\n"
                  "def other(v):\n    return isinstance(v, int) and int(v)\n")
        assert node_sites(source, "specio", integer_check) == {"specio._positive_int", "specio.check", "specio",
                                                               "specio.dims"}


class TestCliHoldsNoArrayMath:
    # the CLI parses, calls one library function per command and prints: channel swaps, witness
    # reading and probability tables live in the library
    @pytest.mark.parametrize("attr", ["reshape", "transpose", "array"])
    def test_cli_reads_no_array_math(self, attr):
        assert {site for site in package_sites(attr) if site.split(".")[0] == "cli"} == set()

    def test_detects_a_second_copy(self):
        source = ("import numpy as np\ndef _cmd_check(ch):\n    db, dc = ch.dims\n"
                  "    return ch.states.reshape(-1, db, dc, db, dc).transpose(0, 2, 1, 4, 3)\n"
                  "def _cmd_table(f):\n    return np.array([[1 - f, f], [f, 1 - f]])\n")
        assert {attr: attribute_sites(source, "cli", attr) for attr in ("reshape", "transpose", "array")} == \
            {"reshape": {"cli._cmd_check"}, "transpose": {"cli._cmd_check"}, "array": {"cli._cmd_table"}}
