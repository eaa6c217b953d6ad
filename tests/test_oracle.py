import dataclasses
import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freeutil import sequential, verify
from freeutil.model import (
    DecisionTree,
    DomainError,
    FiniteDistribution,
    Temperature,
    TemperatureSpec,
    TooLarge,
    TooManyOutcomes,
    TooManyPaths,
    TreeNode,
    TwoStageProblem,
    UtilityTable,
    expectation,
    kl_divergence,
)
from freeutil.oracle import (
    _logsumexp,
    enumerate_minimax,
    exhaustive_two_stage,
    path_enumeration,
    simplex_grid_search,
    two_stage_objective,
)
from freeutil.sequential import (
    minimax_solve,
    outer_policy,
    value_recursion,
)
from freeutil.problemio import load
from freeutil.variational import bounded_control, free_utility_difference

GOLDEN = Path(__file__).parent / "golden"

LOG2 = math.log(2.0)


def dist(labels, probs):
    return FiniteDistribution(labels, probs)


def util(labels, values):
    return UtilityTable(labels, values)


# ---------------------------------------------------------------------------
# simplex grid search


def test_grid_zero_utilities_stays_near_prior():
    prior = dist(["a", "b", "c"], [0.5, 0.3, 0.2])
    res = simplex_grid_search(prior, util(["a", "b", "c"], [0.0] * 3), 1.0, 1e-2)
    for got, want in zip(res.best_point.probs, prior.probs):
        assert abs(got - want) <= res.resolution
    assert res.best_value <= 0.0  # the KL-only objective peaks at exactly 0


def test_grid_recovers_gibbs_point():
    prior = FiniteDistribution.uniform(["a", "b"])
    res = simplex_grid_search(prior, util(["a", "b"], [0.0, LOG2]), 1.0, 1e-3)
    assert abs(res.best_point.probs[0] - 1 / 3) <= 2 * res.resolution
    assert res.evaluations == 1001
    assert res.resolution == 1e-3


def test_grid_never_beats_analytic_solution():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        labels = [f"o{i}" for i in range(n)]
        prior = dist(labels, rng.dirichlet(np.ones(n)))
        u = util(labels, rng.normal(size=n))
        alpha = float(rng.uniform(0.2, 3.0))
        star = bounded_control(prior, u, alpha)
        best = free_utility_difference(prior, star, u, alpha).total
        res = simplex_grid_search(prior, u, alpha, 1e-3)
        assert res.best_value <= best + 1e-5


def test_grid_matches_brute_force_enumeration():
    """The max-plus convolution equals a literal walk of the whole lattice."""
    prior = dist(["a", "b", "c"], [0.5, 0.25, 0.25])
    u = util(["a", "b", "c"], [1.0, -0.5, 0.3])
    alpha = 0.7
    N = 50
    best = -math.inf
    for c0 in range(N + 1):
        for c1 in range(N + 1 - c0):
            c2 = N - c0 - c1
            p = dist(["a", "b", "c"], [c0 / N, c1 / N, c2 / N])
            best = max(best, expectation(p, u) - alpha * kl_divergence(p, prior))
    res = simplex_grid_search(prior, u, alpha, 1 / N)
    assert res.best_value == pytest.approx(best, abs=1e-12)
    assert res.evaluations == math.comb(N + 2, 2)


def test_grid_respects_prior_support():
    prior = dist(["a", "b", "c"], [0.5, 0.5, 0.0])
    u = util(["a", "b", "c"], [0.0, 1.0, 100.0])
    res = simplex_grid_search(prior, u, 1.0, 1e-2)
    assert res.best_point.probs[2] == 0.0


def test_grid_rejects_five_outcomes():
    labels = [f"o{i}" for i in range(5)]
    with pytest.raises(TooManyOutcomes):
        simplex_grid_search(
            FiniteDistribution.uniform(labels), util(labels, [0.0] * 5), 1.0, 1e-2
        )


def test_grid_rejects_out_of_range_resolution():
    prior = FiniteDistribution.uniform(["a", "b"])
    u = util(["a", "b"], [0.0, 1.0])
    with pytest.raises(DomainError):
        simplex_grid_search(prior, u, 1.0, 1e-5)
    with pytest.raises(DomainError):
        simplex_grid_search(prior, u, 1.0, 0.5)


def test_grid_deterministic():
    prior = dist(["a", "b", "c"], [0.4, 0.35, 0.25])
    u = util(["a", "b", "c"], [0.2, -1.0, 0.9])
    r1 = simplex_grid_search(prior, u, 0.8, 1e-3)
    r2 = simplex_grid_search(prior, u, 0.8, 1e-3)
    assert r1.best_value == r2.best_value
    assert r1.best_point.probs == r2.best_point.probs


# ---------------------------------------------------------------------------
# staged grid search


def two_by_two(rows, outs, action_utils=None, prior=None):
    actions = list(rows)
    outcomes = rows[actions[0]].outcomes
    return TwoStageProblem(
        actions,
        outcomes,
        prior or FiniteDistribution.uniform(actions),
        rows,
        action_utils or util(actions, [0.0, 0.0]),
        outs,
    )


def random_two_by_two(rng):
    labels = ["x", "y"]
    rows = {
        "A": dist(labels, rng.dirichlet(np.ones(2))),
        "B": dist(labels, rng.dirichlet(np.ones(2))),
    }
    outs = {
        "A": util(labels, rng.normal(size=2)),
        "B": util(labels, rng.normal(size=2)),
    }
    return two_by_two(
        rows,
        outs,
        action_utils=util(["A", "B"], rng.normal(size=2)),
        prior=dist(["A", "B"], rng.dirichlet(np.ones(2))),
    )


def test_staged_zero_utilities_peak_at_priors():
    rows = {
        "A": dist(["x", "y"], [0.3, 0.7]),
        "B": dist(["x", "y"], [0.6, 0.4]),
    }
    outs = {a: util(["x", "y"], [0.0, 0.0]) for a in rows}
    problem = two_by_two(rows, outs, prior=dist(["A", "B"], [0.25, 0.75]))
    res = exhaustive_two_stage(problem, 1.0, 1.0, 1e-2)
    assert res.best_value <= 0.0
    p1, rowA, rowB = res.best_point
    assert abs(p1.probs[0] - 0.25) <= res.resolution
    assert abs(rowA.probs[0] - 0.3) <= res.resolution
    assert abs(rowB.probs[0] - 0.6) <= res.resolution


def test_staged_never_beats_analytic_solution():
    rng = np.random.default_rng(89)
    for lam, mu in [(0.5, 0.5), (1.0, 2.0), (2.0, 1.0)]:
        for _ in range(5):
            problem = random_two_by_two(rng)
            sol = outer_policy(problem, lam, mu)
            analytic = two_stage_objective(
                problem, lam, mu, sol.action_policy, sol.outcome_beliefs
            )
            res = exhaustive_two_stage(problem, lam, mu, 1e-3)
            assert res.best_value <= analytic + 1e-5


def test_staged_matches_literal_triple_loop_positive_mu():
    """The factored search equals brute force over the whole product lattice."""
    rng = np.random.default_rng(97)
    problem = random_two_by_two(rng)
    lam, mu = 1.0, 1.5
    N = 20
    xs = [k / N for k in range(N + 1)]

    def objective(pa, qa, qb):
        policy = dist(["A", "B"], [pa, 1 - pa])
        beliefs = {
            "A": dist(["x", "y"], [qa, 1 - qa]),
            "B": dist(["x", "y"], [qb, 1 - qb]),
        }
        try:
            return two_stage_objective(problem, lam, mu, policy, beliefs)
        except Exception:
            return -math.inf

    brute = max(
        objective(pa, qa, qb)
        for pa, qa, qb in itertools.product(xs, xs, xs)
    )
    res = exhaustive_two_stage(problem, lam, mu, 1 / N)
    assert res.best_value == pytest.approx(brute, abs=1e-10)
    assert res.evaluations == (N + 1) ** 3


def test_staged_matches_literal_max_min_negative_mu():
    """For an adversarial environment stage the rows are minimized first."""
    rng = np.random.default_rng(103)
    problem = random_two_by_two(rng)
    lam, mu = 1.0, -2.0
    N = 20
    xs = [k / N for k in range(N + 1)]

    def row_term(action, q0):
        row = dist(["x", "y"], [q0, 1 - q0])
        try:
            return (
                expectation(row, problem.outcome_utility[action])
                - kl_divergence(row, problem.channel[action]) / mu
            )
        except Exception:
            return math.inf

    worst = {a: min(row_term(a, q) for q in xs) for a in ("A", "B")}

    def outer(pa):
        policy = dist(["A", "B"], [pa, 1 - pa])
        total = sum(
            policy.prob(a) * (problem.action_utility.value(a) + worst[a])
            for a in ("A", "B")
            if policy.prob(a) > 0.0
        )
        try:
            return total - kl_divergence(policy, problem.prior_action) / lam
        except Exception:
            return -math.inf

    brute = max(outer(pa) for pa in xs)
    res = exhaustive_two_stage(problem, lam, mu, 1 / N)
    assert res.best_value == pytest.approx(brute, abs=1e-10)


def test_staged_rejects_larger_shapes():
    actions = ["A", "B", "C"]
    outcomes = ["x", "y"]
    problem = TwoStageProblem(
        actions,
        outcomes,
        FiniteDistribution.uniform(actions),
        {a: FiniteDistribution.uniform(outcomes) for a in actions},
        util(actions, [0.0] * 3),
        {a: util(outcomes, [0.0, 1.0]) for a in actions},
    )
    with pytest.raises(TooLarge):
        exhaustive_two_stage(problem, 1.0, 1.0, 1e-2)


def test_staged_rejects_degenerate_temperatures():
    rng = np.random.default_rng(5)
    problem = random_two_by_two(rng)
    with pytest.raises(DomainError):
        exhaustive_two_stage(problem, -1.0, 1.0, 1e-2)
    with pytest.raises(DomainError):
        exhaustive_two_stage(problem, 1.0, 0.0, 1e-2)


# ---------------------------------------------------------------------------
# minimax enumeration


def test_enumerate_agrees_with_solver_on_many_instances():
    rng = np.random.default_rng(107)
    for _ in range(200):
        n_a, n_o = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        actions = [f"a{i}" for i in range(n_a)]
        outcomes = [f"o{i}" for i in range(n_o)]
        rows = {}
        for a in actions:
            w = rng.uniform(0.1, 1.0, n_o)
            if rng.random() < 0.3 and n_o >= 3:
                w[int(rng.integers(0, n_o))] = 0.0
            rows[a] = dist(outcomes, w / w.sum())
        problem = TwoStageProblem(
            actions,
            outcomes,
            FiniteDistribution.uniform(actions),
            rows,
            util(actions, rng.normal(size=n_a)),
            {a: util(outcomes, rng.normal(size=n_o)) for a in actions},
        )
        assert minimax_solve(problem) == enumerate_minimax(problem)


def test_enumerate_constant_utilities():
    rows = {
        "A": dist(["x", "y"], [0.5, 0.5]),
        "B": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {a: util(["x", "y"], [3.0, 3.0]) for a in rows}
    assert enumerate_minimax(two_by_two(rows, outs)) == ("A", 3.0)


def test_enumerate_single_action():
    problem = TwoStageProblem(
        ["only"],
        ["x", "y"],
        FiniteDistribution.uniform(["only"]),
        {"only": dist(["x", "y"], [0.5, 0.5])},
        util(["only"], [1.0]),
        {"only": util(["x", "y"], [2.0, 5.0])},
    )
    assert enumerate_minimax(problem) == ("only", 3.0)


def test_minimax_certificate_checks_the_staged_solver(monkeypatch):
    problem = load(str(GOLDEN / "two_stage_basic.json")).problem
    solve = sequential.outer_policy

    def off_by_one(*args):
        sol = solve(*args)
        return dataclasses.replace(sol, value=sol.value + 1.0)

    monkeypatch.setattr(sequential, "outer_policy", off_by_one)
    certs = verify.verify_two_stage(problem, Temperature.pos_inf(), Temperature.neg_inf())
    (cert,) = [c for c in certs if c.name == "file/two-stage/minimax-agreement"]
    assert not cert.passed
    assert cert.gap == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# path enumeration


def leaf(name):
    return TreeNode(name)


def node(name, children, probs, utils, tag="lambda"):
    names = [c.name for c in children]
    return TreeNode(
        name,
        tuple(children),
        FiniteDistribution(names, probs),
        UtilityTable(names, utils),
        tag,
    )


def test_single_path_sums_edge_utilities():
    inner = node("mid", [leaf("end")], [1.0], [2.5])
    tree = DecisionTree(node("root", [inner], [1.0], [1.5]))
    for lam in (0.3, 1.0, 10.0):
        assert path_enumeration(tree, lam) == pytest.approx(4.0, abs=1e-12)


def test_paths_match_soft_recursion():
    rng = np.random.default_rng(109)
    for _ in range(20):
        mids = [
            node(
                f"m{i}",
                [leaf(f"m{i}a"), leaf(f"m{i}b"), leaf(f"m{i}c")],
                rng.dirichlet(np.ones(3)),
                rng.normal(size=3),
            )
            for i in range(3)
        ]
        tree = DecisionTree(
            node("root", mids, rng.dirichlet(np.ones(3)), rng.normal(size=3))
        )
        for lam in (0.5, 1.0, 5.0):
            direct = path_enumeration(tree, lam)
            recursed = value_recursion(tree, TemperatureSpec(lam, 1.0)).root_value
            assert direct == pytest.approx(recursed, abs=1e-9)


def test_paths_skip_zero_probability_edges():
    tree = DecisionTree(
        node("root", [leaf("dead"), leaf("live")], [0.0, 1.0], [500.0, 1.0])
    )
    assert path_enumeration(tree, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_paths_large_lambda_approaches_best_path():
    left = node("L", [leaf("a"), leaf("b")], [0.5, 0.5], [3.0, 0.0])
    right = node("R", [leaf("c"), leaf("d")], [0.5, 0.5], [0.0, 1.0])
    tree = DecisionTree(node("root", [left, right], [0.5, 0.5], [1.0, 2.0]))
    assert path_enumeration(tree, 1e4) == pytest.approx(4.0, abs=1e-2)


def test_paths_cap_enforced():
    # 2^17 = 131072 leaves exceeds the 1e5 path budget
    level = [leaf(f"x{i}") for i in range(2**17)]
    depth = 17
    nodes = level
    for d in range(depth):
        nodes = [
            node(f"d{d}_{i}", [nodes[2 * i], nodes[2 * i + 1]], [0.5, 0.5], [0.0, 0.0])
            for i in range(len(nodes) // 2)
        ]
    tree = DecisionTree(nodes[0])
    with pytest.raises(TooManyPaths):
        path_enumeration(tree, 1.0)


def test_paths_reject_degenerate_lambda():
    tree = DecisionTree(node("root", [leaf("a"), leaf("b")], [0.5, 0.5], [0.0, 1.0]))
    with pytest.raises(DomainError):
        path_enumeration(tree, 0.0)
    with pytest.raises(DomainError):
        path_enumeration(tree, float("inf"))


def test_logsumexp_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(1, 30))
        a = rng.normal(size=n) * rng.choice([1e-3, 1.0, 30.0, 700.0])
        if rng.random() < 0.3:
            a = np.round(a)  # repeated maxima
        assert _logsumexp(a) == float(special.logsumexp(a))


def test_import_leaves_scipy_out():
    code = "import sys, freeutil; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
