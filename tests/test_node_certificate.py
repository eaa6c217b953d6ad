"""The file certificate of ``verify``: every internal node of the problem's
tree against the simplex lattice, at either sign of mu.

Broken copies of the backup are monkeypatched into ``verify`` in place of
``value_recursion``; each must fail the certificate that a correct backup
passes.
"""
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeutil import cli, verify
from freeutil.model import (
    FiniteDistribution,
    Temperature,
    TemperatureSpec,
    TwoStageProblem,
    UtilityTable,
)
from freeutil.sequential import _tree_value, value_recursion

GOLDEN = Path(__file__).parent / "golden"
VERIFIABLE = sorted(p.name for p in GOLDEN.glob("*.json") if not p.name.startswith("invalid_"))


def run_verify(*args):
    """verify through cli.main in this process: exit code, document, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", *map(str, args)])
    return code, json.loads(out.getvalue()) if out.getvalue() else None, err.getvalue()


def objective_gap(*args):
    """The exit code of a file verify and its one objective-gap certificate."""
    code, doc, _ = run_verify(*args)
    (cert,) = [c for c in doc["certificates"] if c["name"].endswith("/objective-gap")]
    return code, cert


def break_backup(monkeypatch, change):
    """Put in verify a value_recursion that runs the real backup and then
    applies change(tree, values, policy) to copies of its flat arrays."""

    def broken(tree, temps):
        tv = value_recursion(tree, temps)
        values, policy = tv.flat_values.copy(), tv.flat_policy.copy()
        change(tree, values, policy)
        return _tree_value(tree, values, policy, tv.flat_log_z, tv.flat_kl)

    monkeypatch.setattr(verify, "value_recursion", broken)


@pytest.mark.parametrize("name, flags", [
    ("two_stage_basic.json", ["--mu=-1.5"]),
    ("two_stage_3x4.json", ["--mu=-4"]),
    ("tree_mixed_tags.json", ["--lambda=0.5", "--mu=-2"]),
    ("tree_mixed_tags.json", []),
])
def test_a_correct_backup_passes_at_either_sign_of_mu(name, flags):
    """A node with mu < 0 is a soft minimum; the certificate checks it as
    the maximum of the negated gains, so the correct solver passes."""
    code, cert = objective_gap(GOLDEN / name, *flags)
    assert code == 0 and cert["passed"] is True
    assert cert["gap"] <= 1e-12 and cert["tolerance"] == 1e-5


@pytest.mark.parametrize("name, level", [
    ("control_basic.json", 0),
    ("two_stage_basic.json", 0),
    ("two_stage_basic.json", 1),
    ("tree_mixed_tags.json", 1),
])
def test_a_scaled_level_fails(monkeypatch, name, level):
    def scale(tree, values, policy):
        lo, hi = tree.level_starts()[level : level + 2]
        values[lo:hi] *= 1.01

    break_backup(monkeypatch, scale)
    code, cert = objective_gap(GOLDEN / name)
    assert code == 4 and cert["passed"] is False


@pytest.mark.parametrize("name, mu", [
    ("two_stage_3x4.json", -2.0),
    ("two_stage_basic.json", -1.5),
    ("tree_mixed_tags.json", -2.0),
])
def test_a_mu_level_tilted_at_the_wrong_sign_fails(monkeypatch, name, mu):
    """The backup solved at +|mu|: the one-sided staged check this
    certificate replaced passed it on two_stage_3x4.json at mu = -2."""

    def wrong_sign(tree, temps):
        return value_recursion(tree, TemperatureSpec(temps.lam, abs(temps.mu.value)))

    monkeypatch.setattr(verify, "value_recursion", wrong_sign)
    code, cert = objective_gap(GOLDEN / name, f"--mu={mu}")
    assert code == 4 and cert["passed"] is False and cert["gap"] > 0.1


def test_one_wrong_node_of_a_mixed_tag_tree_fails(monkeypatch):
    def shift(tree, values, policy):
        values[tree.names.index("act2")] += 1e-3

    break_backup(monkeypatch, shift)
    code, cert = objective_gap(GOLDEN / "tree_mixed_tags.json")
    assert code == 4 and cert["passed"] is False
    assert cert["gap"] == pytest.approx(1e-3, rel=1e-6)
    assert cert["note"].startswith("worst node 'root/act2' of 3,")


@pytest.mark.parametrize("name, node", [
    ("control_basic.json", "root"),
    ("control_zero_prior.json", "root"),
    ("two_stage_basic.json", "root"),
    ("two_stage_basic.json", "risky"),
    ("tree_mixed_tags.json", "act1"),
])
def test_right_values_with_a_wrong_policy_row_fail(monkeypatch, name, node):
    """The node's values stay right and its policy row is its prior row."""

    def prior_row(tree, values, policy):
        i = tree.names.index(node)
        lo = tree.first_child[i] - 1
        edges = slice(lo, lo + tree.n_children[i])
        assert policy[edges].tolist() != tree.prior[edges].tolist()
        policy[edges] = tree.prior[edges]

    break_backup(monkeypatch, prior_row)
    code, cert = objective_gap(GOLDEN / name)
    assert code == 4 and cert["passed"] is False


@st.composite
def two_stage_problems(draw):
    """Two-stage problems up to 4x4, with zero prior and channel entries,
    and finite temperatures with mu of either sign."""
    actions = tuple(f"a{i}" for i in range(draw(st.integers(1, 4))))
    outcomes = tuple(f"o{j}" for j in range(draw(st.integers(1, 4))))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))

    def dist(labels):
        w = draw(st.lists(weight, min_size=len(labels), max_size=len(labels)).filter(any))
        return FiniteDistribution(labels, np.asarray(w) / sum(w))

    def table(labels):
        return UtilityTable(labels, draw(st.lists(st.floats(-10.0, 10.0), min_size=len(labels),
                                                  max_size=len(labels))))

    problem = TwoStageProblem(
        actions, outcomes, dist(actions), {a: dist(outcomes) for a in actions},
        table(actions), {a: table(outcomes) for a in actions},
    )
    lam = draw(st.floats(0.1, 10.0))
    mu = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    return problem, lam, mu


@settings(max_examples=60, deadline=None)
@given(two_stage_problems())
def test_a_correct_backup_passes_on_random_two_stage_problems(instance):
    problem, lam, mu = instance
    certs = verify.verify_two_stage(problem, Temperature.finite(lam), Temperature.finite(mu))
    (cert,) = [c for c in certs if c.name == "file/two-stage/objective-gap"]
    assert cert.passed, cert
    assert cert.analytic == value_recursion(problem._tree, TemperatureSpec(lam, mu)).root_value


def test_the_tolerance_covers_rounding_at_scale(tmp_path):
    """Utilities of 1e308 put the objectives' rounding near 2e292; the
    tolerance scales with the largest gain, and stays 1e-5 below it."""
    control = json.loads((GOLDEN / "control_basic.json").read_text())
    control["payload"]["utility"] = [1e308, 1e308]
    staged = json.loads((GOLDEN / "two_stage_basic.json").read_text())
    staged["payload"]["outcome_utility"]["risky"] = [1e308, 1e308]
    for i, raw in enumerate((control, staged)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(raw))
        code, cert = objective_gap(path)
        assert code == 0 and cert["passed"] is True
        assert cert["tolerance"] == pytest.approx(8 * 2.0**-52 * 1e308, rel=1e-11)


@pytest.mark.parametrize("name", VERIFIABLE)
def test_file_verify_calls_no_staged_or_control_solver(monkeypatch, name):
    """Every file verify gives the same document with the control and staged
    solvers and the staged oracle taken out of verify."""
    want = run_verify(GOLDEN / name)

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for attr in ("bounded_control", "outer_policy", "two_stage_objective", "exhaustive_two_stage"):
        monkeypatch.setattr(verify, attr, refuse)
    assert run_verify(GOLDEN / name) == want


@pytest.mark.parametrize("suite", ["control-optimality", "two-stage-optimality"])
def test_optimality_suites_call_no_staged_or_control_solver(monkeypatch, suite):
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for attr in ("bounded_control", "outer_policy", "two_stage_objective", "exhaustive_two_stage"):
        monkeypatch.setattr(verify, attr, refuse)
    certs = verify.run_suite(suite, 0)
    assert all(c.passed for c in certs)
    for c in certs:
        assert {type(getattr(c, f)) for f in ("analytic", "oracle", "gap", "tolerance")} == {float}


def test_the_node_cap_raises_too_large(monkeypatch):
    monkeypatch.setattr(verify, "MAX_CERTIFIED_NODES", 2)
    code, doc, err = run_verify(GOLDEN / "tree_mixed_tags.json")
    assert (code, doc) == (2, None)
    assert err == "TooLarge: node certificate takes at most 2 internal nodes, got 3\n"
