"""The file certificate of ``verify``: the optimality bracket at every
internal node of the problem's tree, at either sign of mu.

Broken copies of the backup are monkeypatched into ``verify`` in place of
``value_recursion``; each must fail the certificate that a correct backup
passes.
"""
import ast
import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freeutil import cli, verify
from freeutil.model import (
    DecisionTree,
    FiniteDistribution,
    Temperature,
    TemperatureSpec,
    TwoStageProblem,
    UtilityTable,
)
from freeutil.oracle import simplex_grid_search
from freeutil.problemio import ProblemFile, dump
from freeutil.sequential import _BLOCK_EDGES, _tree_value, value_recursion

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
    assert cert["note"] == "worst node 'root/act2' of 3"


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


def test_a_row_off_the_prior_support_fails_with_exit_4(monkeypatch):
    """A policy row with mass where the prior has none gets a finite failing
    gap, so the report is written with both certificates failed."""

    def off_support(tree, values, policy):
        policy[:] = [0.5, 0.25, 0.25]

    break_backup(monkeypatch, off_support)
    code, doc, err = run_verify(GOLDEN / "control_zero_prior.json")
    assert (code, err) == (4, "")
    certs = {c["name"]: c for c in doc["certificates"]}
    gap = certs["file/control/objective-gap"]
    assert gap["passed"] is False and gap["gap"] == 1.25
    assert certs["file/control/support-preservation"]["passed"] is False


def test_a_row_with_no_mass_fails_with_exit_4(monkeypatch):
    """Its bracket is infinite; the gap is the largest float, so the report
    is still written."""

    def no_mass(tree, values, policy):
        policy[:] = 0.0

    break_backup(monkeypatch, no_mass)
    code, cert = objective_gap(GOLDEN / "control_basic.json")
    assert code == 4 and cert["passed"] is False and cert["gap"] == 1.79769313486e308


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


@pytest.mark.parametrize("suite", ["ce-monotonicity", "cumulant-expansion"])
def test_a_nan_certainty_equivalent_fails_its_suite(monkeypatch, suite):
    """One NaN among the suite's certainty equivalents, on the 50th call,
    is the worst gap of every certificate, not dropped by a running max."""
    calls = []
    solve = verify.certainty_equivalent

    def nan_on_the_50th(*args):
        calls.append(None)
        return float("nan") if len(calls) == 50 else solve(*args)

    monkeypatch.setattr(verify, "certainty_equivalent", nan_on_the_50th)
    certs = verify.run_suite(suite, 0)
    assert len(calls) > 50
    for c in certs:
        assert np.isnan(c.gap) and not c.passed, c.name


def test_a_nan_objective_gap_fails_control_optimality(monkeypatch):
    """The third control instance's NaN gap is the suite's worst."""
    calls = []
    certify = verify.verify_control

    def nan_on_the_third(*args):
        objective, *rest = certify(*args)
        calls.append(None)
        if len(calls) == 3:
            objective = dataclasses.replace(objective, gap=float("nan"))
        return [objective, *rest]

    monkeypatch.setattr(verify, "verify_control", nan_on_the_third)
    gap = next(c for c in verify.run_suite("control-optimality", 0)
               if c.name == "control-optimality/objective-gap")
    assert np.isnan(gap.gap) and not gap.passed


def certificate_calls(node) -> int:
    return sum(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Certificate"
               for call in ast.walk(node))


def test_certificates_are_built_only_by_the_two_builders():
    """Every certificate of verify.py is the worst row of its checks or a
    count: Certificate( is called only inside _worst_cert and _count_cert."""
    module = ast.parse(Path(verify.__file__).read_text())
    callers = {fn.name for fn in module.body
               if isinstance(fn, ast.FunctionDef) and certificate_calls(fn)}
    assert callers == {"_worst_cert", "_count_cert"} and certificate_calls(module) == 2


@pytest.mark.parametrize("gaps, worst", [
    ([1.0, 1.0, 0.5], 0),
    ([2.0, 3.0, math.nan, 4.0, math.nan], 2),
    ([-0.0, 0.0], 0),
    ([0.0, -0.0], 0),
], ids=["equal-gaps", "nan-after-larger", "minus-zero-first", "zero-first"])
def test_a_certificate_is_its_worst_row(gaps, worst):
    """The largest gap, the first of equal gaps, and the first NaN ahead of
    everything else, as np.argmax picks them."""
    rows = [(gap, float(i), -float(i)) for i, gap in enumerate(gaps)]
    cert = verify._worst_cert("c", rows, 1.0, "note")
    assert (cert.analytic, cert.oracle, cert.tolerance, cert.note) == (worst, -worst, 1.0, "note")
    assert repr(cert.gap) == repr(gaps[worst])  # a NaN, and the sign of a zero


def test_two_stage_optimality_brackets_each_instance_once(monkeypatch):
    """The suite reads the bracket _objective_gap computed: one _node_bracket
    per instance."""
    calls = []
    bracket = verify._node_bracket

    def counted(*args):
        calls.append(None)
        return bracket(*args)

    monkeypatch.setattr(verify, "_node_bracket", counted)
    verify.run_suite("two-stage-optimality", 0)
    assert len(calls) == 20


@pytest.mark.parametrize("seed", [0, 7])
def test_minimax_convergence_solves_each_instance_once(monkeypatch, seed):
    """The verdict reads one risk-averse choice per instance, at mu = -3000:
    100 calls of risk_sensitive_argmax per run."""
    mus = []
    argmax = verify.risk_sensitive_argmax

    def counted(problem, mu):
        mus.append(mu)
        return argmax(problem, mu)

    monkeypatch.setattr(verify, "risk_sensitive_argmax", counted)
    verify.run_suite("minimax-convergence", seed)
    assert mus == [-3000.0] * 100


@st.composite
def nodes(draw):
    """One node's prior, utilities and t: 2-7 outcomes, a fifth of the prior
    entries zero, utilities from N(0, 5), |t| from 1e-2 to 1e2, either sign."""
    n, seed = draw(st.integers(2, 7)), draw(st.integers(0, 2**32 - 1))
    t = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-2.0, 2.0))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, n) * (rng.uniform(size=n) >= 0.2)
    w[int(rng.integers(n))] += 0.5
    return w / w.sum(), rng.normal(0.0, 5.0, n), t


@settings(max_examples=200, deadline=None)
@given(nodes())
# The row's second entry, about 5.7e-324, is rounded to the smallest subnormal.
@example((np.array([0.5, 0.5]), np.array([0.0, -744.3]), 1.0))
def test_the_bracket_holds_the_exact_optimum(node):
    """On a node solved at mu = t: the 80-digit optimum log Σ p·exp(τ·g)/τ,
    and the lattice maximum up to 4 outcomes, lie no higher than the top
    f(x) + width of the node's bracket, within 1e-12 and the objective's
    rounding; and the correct solve's gap is within the certificate's
    tolerance."""
    p, u, t = node
    n = len(p)
    names = ("r",) + tuple(f"o{i}" for i in range(n))
    tree = DecisionTree._from_arrays(names, [True] + [False] * n, [n] + [0] * n, p, u)
    temps = TemperatureSpec(1.0, t)
    _, _, g, f, width, gap = verify._node_bracket(tree, value_recursion(tree, temps), temps)
    top, scale = f[0] + width[0], np.abs(g[p > 0.0]).max()
    assert gap[0] <= max(1e-5, 8 * 2.0**-52 * scale)
    with mpmath.workdps(80):
        # Each prior entry is divided exactly by the float row's sum.
        total, tau = mpmath.fsum(map(mpmath.mpf, p)), mpmath.mpf(abs(t))
        z = mpmath.fsum(mpmath.mpf(pi) * mpmath.exp(tau * gi) for pi, gi in zip(p, g))
        assert mpmath.log(z / total) / tau - top <= 1e-12
    if n <= 4:
        prior = FiniteDistribution._trusted(names[1:], p)
        grid = simplex_grid_search(prior, UtilityTable(names[1:], g), 1.0 / abs(t), 1e-3)
        # Near a vertex the lattice's best point and x give the same
        # objective, so the two sides may differ by their rounding.
        assert grid.best_value <= top + 8 * 2.0**-52 * scale


def test_a_five_outcome_control_file_is_certified():
    code, cert = objective_gap(GOLDEN / "control_five_outcomes.json")
    assert code == 0 and cert["passed"] is True


@pytest.fixture(scope="module")
def block_tree_file(tmp_path_factory):
    """A mixed-tag tree file whose last level, 2·128·65 edges under
    lambda-tagged parents, is longer than one block of value_recursion."""
    counts = np.array([2] + [128] * 2 + [65] * 256 + [0] * 16640)
    assert counts[3:].sum() > _BLOCK_EDGES
    rng = np.random.default_rng(22)
    w = rng.uniform(0.1, 1.0, len(counts) - 1)
    w /= np.repeat(np.add.reduceat(w, np.cumsum(counts[:259]) - counts[:259]), counts[:259])
    names = tuple(f"n{i}" for i in range(len(counts)))
    is_mu = [False, True, True] + [False] * (len(counts) - 3)
    tree = DecisionTree._from_arrays(names, is_mu, counts, w, rng.uniform(-3.0, 3.0, len(w)))
    path = tmp_path_factory.mktemp("block") / "tree.json"
    dump(ProblemFile("1", "tree", tree), str(path))
    return path


def test_a_tree_with_a_level_past_one_block_is_certified(block_tree_file):
    code, cert = objective_gap(block_tree_file)
    assert code == 0 and cert["passed"] is True and cert["note"].endswith(" of 259")


def test_one_wrong_deep_node_of_a_block_tree_fails(monkeypatch, block_tree_file):
    def shift(tree, values, policy):
        values[258] += 1e-3

    break_backup(monkeypatch, shift)
    code, cert = objective_gap(block_tree_file)
    assert code == 4 and cert["passed"] is False
    assert cert["gap"] == pytest.approx(1e-3, rel=1e-6)
    assert cert["note"] == "worst node 'n0/n2/n258' of 259"
