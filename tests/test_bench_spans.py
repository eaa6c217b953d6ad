"""The traced benchmark run wraps freeutil functions by (module, name); these
names must keep resolving, or `bench/run.py --trace 1` breaks."""
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import freeutil
import freeutil.cli

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
