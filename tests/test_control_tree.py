"""A control problem is solved and swept as its depth-1 tree by
value_recursion. The reference below is the solve it replaced: one
exponential_tilt per alpha, kl_divergence of its policy against the prior
and expectation of the utility under it. The CLI's solve document and sweep CSV
must match the reference byte for byte, in nats and in bits, and on a
failing solve give the same error line, with no warning.
"""
import json
import math
import pickle
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from freeutil import cli
from freeutil.model import (
    FreeUtilError,
    Temperature,
    TemperatureSpec,
    expectation,
    kl_divergence,
)
from freeutil.problemio import load
from freeutil.sequential import value_recursion
from freeutil.variational import control_temperature, exponential_tilt
from test_cli_contract import run

GOLDEN = Path(__file__).parent / "golden"
ALPHAS = ["zero", "inf", "0.001", "0.1", "1", "7.5", "1e6"]


def reference_solve_doc(problem, alpha, units):
    tilt = exponential_tilt(problem.prior, problem.utility, alpha.reciprocal())
    policy = tilt.policy
    expected = expectation(policy, problem.utility)
    kl = kl_divergence(policy, problem.prior)
    cost = alpha.value * kl if alpha.is_finite else 0.0
    return cli._render({
        "command": "solve",
        "kind": "control",
        "alpha": alpha.spell(),
        "policy": policy.as_mapping(),
        "value": tilt.value,
        "log_partition": tilt.log_partition,
        "expected_utility": expected,
        "information_cost": cost,
        "achieved_kl": kl,
        "total": expected - cost,
        "units": units,
    }, units) + "\n"


def reference_sweep_rows(problem, grid):
    header = ["alpha"] + [f"p[{o}]" for o in problem.outcomes] + ["value", "achieved_kl"]
    rows = []
    for alpha in grid:
        tilt = exponential_tilt(problem.prior, problem.utility, alpha.reciprocal())
        kl = kl_divergence(tilt.policy, problem.prior)
        rows.append([alpha.spell()] + list(tilt.policy.probs) + [tilt.value, kl])
    return header, rows


def reference(solve):
    """(exit code, stdout, stderr, warnings) of a reference solve, as main
    reports it, for comparison with the contract test's run."""
    try:
        return 0, solve(), "", []
    except FreeUtilError as e:
        return 3, "", f"{type(e).__name__}: {e}\n", []


utilities = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308]),
    st.floats(-20, 20).map(lambda u: round(u, 1)),  # rounded, so that they tie
)


@st.composite
def control_files(draw):
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=n, max_size=n))
    if not any(weights):
        weights[-1] = 1
    total = sum(weights)
    return {
        "schema_version": "1",
        "kind": "control",
        "payload": {
            "outcomes": [f"o{i}" for i in range(n)],
            "prior": [w / total for w in weights],
            "utility": draw(st.lists(utilities, min_size=n, max_size=n)),
        },
    }


@settings(max_examples=150, deadline=None)
@given(control_files(), st.sampled_from(ALPHAS),
       st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=7),
       st.sampled_from(["nats", "bits"]))
def test_solve_and_sweep_match_the_tilt_reference(doc, alpha_text, grid_text, units):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "control.json")
        Path(path).write_text(json.dumps(doc))
        problem = load(path).problem
        alpha = control_temperature(Temperature.parse(alpha_text))
        got = run(["solve", path, "--alpha", alpha_text, "--units", units])
        assert got == reference(lambda: reference_solve_doc(problem, alpha, units))
        grid = [Temperature.parse(t) for t in grid_text]
        got = run(["sweep", path, "--param", "alpha", "--grid", ",".join(grid_text),
                   "--units", units])
        assert got == reference(lambda: cli._render_csv(*reference_sweep_rows(problem, grid),
                                                        units))


def test_golden_control_files_match_the_tilt_reference():
    for path in sorted(GOLDEN.glob("control_*.json")):
        problem = load(str(path)).problem
        for alpha_text in ALPHAS:
            alpha = control_temperature(Temperature.parse(alpha_text))
            for units in ("nats", "bits"):
                got = run(["solve", str(path), "--alpha", alpha_text, "--units", units])
                assert got == reference(lambda: reference_solve_doc(problem, alpha, units)), path


def test_the_tree_leaves_the_problem_value_unchanged():
    """Reading the depth-1 tree changes no field, ==, hash, repr or pickle."""
    fresh, solved = (load(str(GOLDEN / "control_basic.json")).problem for _ in range(2))
    tree = solved._tree
    assert tree == solved._tree and tree.tags == ("mu", "lambda", "lambda")
    assert math.isclose(value_recursion(tree, TemperatureSpec(1, 1)).root_value, math.log(1.5))
    assert solved == fresh and hash(solved) == hash(fresh) and repr(solved) == repr(fresh)
    assert pickle.dumps(solved) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(solved)) == fresh
