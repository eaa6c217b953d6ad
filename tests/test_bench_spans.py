"""The traced benchmark run wraps freeutil functions by (module, name); these
names must keep resolving, or `bench/run.py --trace 1` breaks."""
import ast
import contextlib
import importlib.util
import io
import pickle
import sys
from collections import Counter
from pathlib import Path

import pytest

import freeutil
import freeutil.cli
from freeutil import model
from freeutil.problemio import load

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module_name, attr, span_name", spans.WRAPPED)
def test_wrapped_name_resolves(module_name, attr, span_name):
    module = getattr(freeutil, module_name)
    assert callable(getattr(module, attr))


@pytest.mark.parametrize(
    "name, solver",
    [
        ("control_basic", "sequential.value_recursion"),
        ("two_stage_basic", "sequential.solve_regime"),
        ("tree_binary", "sequential.value_recursion"),
    ],
)
def test_traced_solve_records_sized_tilts(name, solver):
    """A traced call runs, puts every function back, and records its
    solver's span and no exponential_tilt span."""
    recorder = spans.Recorder()
    originals = {(m, a): getattr(getattr(freeutil, m), a) for m, a, _ in spans.WRAPPED}
    out = io.StringIO()
    with spans.instrument(recorder, freeutil), contextlib.redirect_stdout(out):
        assert freeutil.cli.main(["solve", str(GOLDEN / f"{name}.json")]) == 0
    assert {(m, a): getattr(getattr(freeutil, m), a) for m, a, _ in spans.WRAPPED} == originals
    names = {s[0] for s in recorder.spans}
    assert {"problemio.load", "problemio.loads", solver} <= names
    # The tree backup calls the kernel directly, and the two-stage and
    # control solves are that backup on the problem's depth-2 and depth-1
    # trees.
    assert "variational.exponential_tilt" not in names


def test_traced_sweep_of_a_two_stage_file_runs_one_backup_per_point():
    """A two-stage sweep solves each grid point by one value_recursion on
    the problem's tree, as the other kinds sweep, and never builds a
    two-stage solution."""
    grid = ["-inf", "-1", "zero", "0.5", "1", "inf"]
    recorder = spans.Recorder()
    argv = ["sweep", str(GOLDEN / "two_stage_basic.json"), "--param", "mu",
            "--grid=" + ",".join(grid)]
    with spans.instrument(recorder, freeutil), contextlib.redirect_stdout(io.StringIO()):
        assert freeutil.cli.main(argv) == 0
    calls = Counter(s[0] for s in recorder.spans)
    assert calls["sequential.value_recursion"] == len(grid)
    assert calls["sequential.solve_regime"] == calls["sequential.outer_policy"] == 0


def test_every_imported_name_is_used_or_wrapped():
    """Each package module uses every name it imports, except the names the
    traced run wraps under that module, which stay bound for it alone. When
    the traced run stops wrapping a name, this points at the import to
    delete."""
    wrapped = {(m, a) for m, a, _ in spans.WRAPPED}
    unused = []
    for path in sorted((ROOT / "src" / "freeutil").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.stem, name) not in wrapped:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_private_definition_is_named_elsewhere():
    """Each private function, method and class defined in the package is
    named somewhere in the package outside its own body: a call, an
    attribute or an import. When a change leaves one unused, this points at
    the definition to delete."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "freeutil").glob("*.py"))]

    def names(root):
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.asname or node.name

    everywhere = Counter(name for tree in trees for name in names(tree))
    unused = [
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and everywhere[node.name] == sum(name == node.name for name in names(node))
    ]
    assert unused == []


def test_every_slot_is_read_as_an_attribute():
    """Each name a package class lists in its __slots__ is read as an
    attribute somewhere in the package. When a change drops the last reader
    of a slot, this points at the slot to delete."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "freeutil").glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    slots = [
        (cls.name, const.value)
        for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
        for const in ast.walk(stmt.value)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    ]
    assert ("TwoStageProblem", "_tree") in slots
    assert [slot for slot in slots if slot[1] not in read] == []


def test_every_flat_store_is_built_from_the_parameters_of_its_fill():
    """Each store of freeutil.model names in _FIELDS exactly the parameters
    of its _fill, in order, and is built by _FlatStore._from_arrays alone,
    so a store's fields rebuild it."""
    stores = {name: cls for name, cls in vars(model).items()
              if isinstance(cls, type) and issubclass(cls, model._FlatStore)
              and cls is not model._FlatStore}
    faults = [f"{name} is no store" for name in ("ControlProblem", "TwoStageProblem", "DecisionTree")
              if name not in stores]
    for name, cls in stores.items():
        code = cls._fill.__code__
        if cls._FIELDS != code.co_varnames[1:code.co_argcount]:
            faults.append(f"{name}._FIELDS are not the parameters of its _fill")
        if "_from_arrays" in vars(cls):
            faults.append(f"{name} defines its own _from_arrays")
    assert faults == []
    # numpy reads every nonempty string as True, so tags given for the flags must raise.
    with pytest.raises(TypeError):
        model.DecisionTree._from_arrays(("r", "a"), ["mu", "lambda"], [1, 0], [1.0], [0.0])


# The package functions with a handler that catches OverflowError: model._fsum,
# the one rule for an exact sum whose partial sums pass the float range; the
# conversions, which name a number past the range; loads, which reads a
# refused document again; and a square or a path sum past the range.
OVERFLOW_HANDLERS = {
    "model._fsum", "model._real", "model._reals", "model.Temperature.coerce",
    "problemio._as_number", "problemio._as_number_list", "problemio.loads",
    "sequential.taylor_ce_approx", "oracle.path_enumeration",
}


def package_nodes():
    """Every AST node of the package, with the dotted name of the function
    or class it sits in: the module, then each enclosing def or class."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}")
                continue
            yield scope, child
            yield from walk(child, scope)

    for path in sorted((ROOT / "src" / "freeutil").glob("*.py")):
        yield from walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def test_only_the_float_range_rule_and_the_conversions_catch_overflow():
    """No other package function catches OverflowError, by name, as an
    ArithmeticError, an Exception or a bare except: a sum goes through
    _fsum or _row_sums, which never raise it. When a change adds or drops
    such a handler, this points at it."""
    broad = {"OverflowError", "ArithmeticError", "Exception", "BaseException"}
    found = {
        scope for scope, node in package_nodes()
        if isinstance(node, ast.ExceptHandler) and (
            node.type is None
            or broad & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)})
    }
    assert found == OVERFLOW_HANDLERS


def test_each_temperature_rule_is_written_once():
    """UnsupportedRegime is raised in sequential.value_recursion alone,
    which every kind's solve and sweep runs, and cli.build_parser declares
    --lambda and --alpha once and --mu twice: the flags solve, sweep and
    verify share, and the risk-averse --mu of regimes. When a change writes
    one of these rules again, this points at it."""
    raised = [
        scope for scope, node in package_nodes()
        if isinstance(node, ast.Raise) and node.exc is not None
        and "UnsupportedRegime" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert raised == ["sequential.value_recursion"]
    flags = Counter(
        node.args[0].value for scope, node in package_nodes()
        if scope == "cli.build_parser" and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"
        and node.args and isinstance(node.args[0], ast.Constant)
    )
    assert (flags["--lambda"], flags["--mu"], flags["--alpha"]) == (1, 2, 1)


@pytest.mark.parametrize("name", ["control_basic", "two_stage_basic", "tree_mixed_tags"])
def test_a_loaded_problem_is_rebuilt_from_its_fields(name):
    problem = load(str(GOLDEN / f"{name}.json")).problem
    assert type(problem)._from_arrays(*problem._fields()) == problem
    assert pickle.loads(pickle.dumps(problem)) == problem
