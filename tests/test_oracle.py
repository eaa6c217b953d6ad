import ast
import contextlib
import dataclasses
import io
import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from freeutil import cli, oracle, problemio, sequential, verify
from freeutil.model import (
    ARGMAX_TIE_TOL,
    DecisionTree,
    DomainError,
    FiniteDistribution,
    FreeUtilError,
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
    bellman_backup,
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
    """The lattice search equals a literal walk of the whole lattice."""
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


def test_grid_near_the_float_maximum_stays_at_the_prior_without_a_warning():
    # alpha·x·log(x/p) overflows off the prior point; RuntimeWarning is an error here.
    prior = dist(["a", "b"], [0.3, 0.7])
    res = simplex_grid_search(prior, util(["a", "b"], [1.0, 3.0]), 1.7e308, 0.1)
    assert res.best_point.probs == (0.3, 0.7)
    assert res.best_value == pytest.approx(2.4, abs=1e-12)


EDGE_UTILITIES = [1.7e308, -1.7e308, 1e308, -1e308, 1.0, -1.0, 0.0]
EDGE_ALPHAS = [5e-324, 1e-300, 0.05, 1.0, 1e300, 1.7e308]


@pytest.mark.parametrize("probs", [
    (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (5e-324, 1.0, 0.0), (1.0, 0.0, 0.0),
])
def test_grid_at_the_float_edges_warns_nothing_and_stays_on_the_support(probs):
    """Every utility triple and temperature at the edges of the float range:
    no warning, no mass where the prior has none, and a finite value or a
    FreeUtilError."""
    prior = dist(["a", "b", "c"], probs)
    for values in itertools.product(EDGE_UTILITIES, repeat=3):
        for alpha in EDGE_ALPHAS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    res = simplex_grid_search(prior, util(["a", "b", "c"], values), alpha, 0.1)
                except FreeUtilError:
                    continue
            assert all(x == 0.0 for x, p in zip(res.best_point.probs, probs) if p == 0.0)
            assert math.isfinite(res.best_value), (values, alpha, res)


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


def reference_simplex_grid_search(prior, u_star, alpha, resolution):
    """The lattice search as a max-plus convolution over the coordinates,
    each step building the whole (N+1)×(N+1) score matrix at once, with
    backpointers and a backtrack."""
    n = len(prior)
    N = int(round(1.0 / resolution))
    u = u_star.aligned_to(prior.outcomes)
    x = np.arange(N + 1) / N
    terms = []
    for i in range(n):
        p_i = prior.probs[i]
        t = np.full(N + 1, -np.inf)
        t[0] = 0.0
        if p_i > 0.0:
            xs = x[1:]
            t[1:] = xs * u[i] - alpha * xs * oracle._log_ratio(xs, p_i)
        terms.append(t)
    f = terms[0]
    choices = []
    for k in range(1, n):
        padded = np.concatenate([np.full(N, -np.inf), f])
        windows = sliding_window_view(padded, N + 1)[:, ::-1]
        scores = windows + terms[k][None, :]
        best_c = np.argmax(scores, axis=1)
        f = scores[np.arange(N + 1), best_c]
        choices.append(best_c)
    counts = [0] * n
    s = N
    for k in range(n - 1, 0, -1):
        c = int(choices[k - 1][s])
        counts[k] = c
        s -= c
    counts[0] = s
    best = FiniteDistribution(prior.outcomes, [c / N for c in counts])
    best_value = expectation(best, u_star) - alpha * kl_divergence(best, prior)
    return best_value, best.probs, math.comb(N + n - 1, n - 1)


@st.composite
def grid_instances(draw):
    """A prior with zero and subnormal coordinates among them, utilities with
    ties and large magnitudes, a temperature and a lattice."""
    n = draw(st.integers(1, 4))
    labels = [f"o{i}" for i in range(n)]
    weight = st.one_of(
        st.just(0.0),
        st.floats(1e-12, 1.0),
        st.sampled_from([0.25, 1e-6, 5e-324, 1e-310, 2.2250738585072014e-308]),
    )
    w = draw(st.lists(weight, min_size=n, max_size=n))
    if not any(w):
        w[draw(st.integers(0, n - 1))] = 1.0
    total = math.fsum(w)
    prior = FiniteDistribution(labels, [x / total for x in w])
    utility = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 1e9, -1e9, 1e15]),
        st.floats(-50.0, 50.0),
    )
    u = UtilityTable(labels, draw(st.lists(utility, min_size=n, max_size=n)))
    alpha = draw(st.floats(0.05, 20.0))
    N = draw(st.sampled_from([254, 255, 256, 1000]))
    return prior, u, alpha, 1.0 / N


def lattice_counts(point, N):
    """The counts c of a lattice point c/N."""
    return [round(p * N) for p in point.probs]


def exact_term(u_i, alpha, p_i, c, N):
    """x·u_i − α·x·log(x/p_i) at the rational x = c/N, in mpmath."""
    if c == 0:
        return mpmath.mpf(0)
    x = mpmath.mpf(c) / N
    return x * mpmath.mpf(u_i) - mpmath.mpf(alpha) * x * mpmath.log(x / mpmath.mpf(p_i))


def exact_objective(prior, u, alpha, counts, N):
    """The lattice objective at c/N, exact to 80 digits."""
    with mpmath.workdps(80):
        return mpmath.fsum(
            exact_term(u_i, alpha, p_i, c, N)
            for u_i, p_i, c in zip(u.aligned_to(prior.outcomes), prior.probs, counts) if c
        )


def gain_rounding(prior, u, alpha, N):
    """What rounding may move a float unit gain by, stated before any run:
    16 units of roundoff times α·max|x·log(x/p)| + (max u − min u)/N over the
    prior's support, the two parts each gain sums."""
    support = np.flatnonzero(prior.array > 0.0)
    xs = np.arange(1, N + 1) / N
    entropy = max(float(np.abs(xs * oracle._log_ratio(xs, prior.array[i])).max()) for i in support)
    values = u.aligned_to(prior.outcomes)[support]
    return 16 * 2.0**-53 * (alpha * entropy + float(values.max() - values.min()) / N)


@settings(max_examples=80, deadline=None)
@given(grid_instances())
# Equal utilities of 1e15: float sums of whole terms lose the entropy term.
@example((dist(["o0", "o1"], [0.5, 0.5]), util(["o0", "o1"], [1e15, 1e15]), 0.05, 1 / 255))
def test_no_unit_transfer_raises_the_exact_objective(instance):
    """Lattice optimality of the search's point: moving one unit of mass 1/N
    between two supported coordinates raises the exact objective by no more
    than the gains' rounding. The objective is separable and concave in each
    count, so no improving transfer means no better lattice point."""
    prior, u, alpha, resolution = instance
    res = simplex_grid_search(prior, u, alpha, resolution)
    N = round(1.0 / resolution)
    counts = lattice_counts(res.best_point, N)
    assert sum(counts) == N
    assert all(c == 0 for c, p in zip(counts, prior.probs) if p == 0.0)
    values = u.aligned_to(prior.outcomes)
    support = [i for i, p in enumerate(prior.probs) if p > 0.0]
    with mpmath.workdps(80):
        def unit(i, c):  # what the c-th unit of coordinate i adds
            term = [exact_term(values[i], alpha, prior.probs[i], k, N) for k in (c - 1, c)]
            return term[1] - term[0]

        rise = max(
            (unit(j, counts[j] + 1) - unit(i, counts[i])
             for i in support for j in support if i != j and counts[i] > 0),
            default=mpmath.mpf(0),
        )
    assert rise <= gain_rounding(prior, u, alpha, N), (rise, instance)


@settings(max_examples=80, deadline=None)
@given(grid_instances())
def test_grid_is_at_least_the_convolution(instance):
    """The search's point scores, exactly, at least the max-plus
    convolution's point, less the gains' rounding."""
    prior, u, alpha, resolution = instance
    res = simplex_grid_search(prior, u, alpha, resolution)
    _, probs, evaluations = reference_simplex_grid_search(prior, u, alpha, resolution)
    N = round(1.0 / resolution)
    with mpmath.workdps(80):
        shortfall = (
            exact_objective(prior, u, alpha, lattice_counts(dist(prior.outcomes, probs), N), N)
            - exact_objective(prior, u, alpha, lattice_counts(res.best_point, N), N)
        )
    assert shortfall <= gain_rounding(prior, u, alpha, N), (shortfall, instance)
    assert res.evaluations == evaluations


def test_grid_search_memory_stays_within_a_few_blocks():
    """A search at n = 4, N = 1000 holds its 4×1000 unit gains and their
    sort order, well under 2 MB; a whole 1001×1001 score matrix is 8 MB."""
    labels = ["a", "b", "c", "d"]
    prior = dist(labels, [0.1, 0.2, 0.3, 0.4])
    u = util(labels, [0.3, -1.0, 2.0, 0.5])
    simplex_grid_search(prior, u, 0.7, 1e-3)  # first call: any lazy import
    tracemalloc.start()
    try:
        simplex_grid_search(prior, u, 0.7, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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


def random_two_stage(rng, n_actions, n_outcomes):
    actions = [f"a{i}" for i in range(n_actions)]
    outcomes = [f"o{i}" for i in range(n_outcomes)]
    return TwoStageProblem(
        actions,
        outcomes,
        dist(actions, rng.dirichlet(np.ones(n_actions))),
        {a: dist(outcomes, rng.dirichlet(np.ones(n_outcomes))) for a in actions},
        util(actions, rng.normal(size=n_actions)),
        {a: util(outcomes, rng.normal(size=n_outcomes)) for a in actions},
    )


def lattice(n, N):
    """Every point of the simplex lattice {c/N} in n coordinates, one per row."""
    return np.array(
        [c for c in itertools.product(range(N + 1), repeat=n) if sum(c) == N]
    ) / N


def lattice_kls(points, q):
    """KL(point ‖ q) for every row of points, with 0·log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(points > 0.0, points * np.log(points / q), 0.0)
    return terms.sum(axis=1)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
@pytest.mark.parametrize("mu", [1.5, -2.0])
def test_staged_matches_the_whole_product_lattice(shape, mu):
    """On 3x2 and 2x3 problems the staged search equals the objective
    evaluated at every point of the product lattice, then maximized over the
    action point and maximized (mu > 0) or minimized (mu < 0) over the rows."""
    rng = np.random.default_rng(107 + shape[0])
    problem = random_two_stage(rng, *shape)
    lam, N = 0.8, 10
    actions = lattice(shape[0], N)
    rows = lattice(shape[1], N)
    # One axis per stage: objective[i, j_1, ..., j_A] at action point i and
    # row point j_a for action a.
    action_axis = (-1,) + (1,) * shape[0]
    objective = (-lattice_kls(actions, problem.prior_action.array) / lam).reshape(action_axis)
    for k, a in enumerate(problem.actions):
        inner = (
            rows @ problem.outcome_utility[a].array
            - lattice_kls(rows, problem.channel[a].array) / mu
        )
        gain = problem.action_utility.value(a) + inner
        row_axis = [1] * (shape[0] + 1)
        row_axis[k + 1] = -1
        objective = objective + actions[:, k].reshape(action_axis) * gain.reshape(row_axis)
    per_action = objective.reshape(len(actions), -1)
    inner_best = per_action.max(axis=1) if mu > 0.0 else per_action.min(axis=1)
    res = exhaustive_two_stage(problem, lam, mu, 1 / N)
    assert res.best_value == pytest.approx(inner_best.max(), abs=1e-10)
    assert res.evaluations == objective.size == len(actions) * len(rows) ** shape[0]
    p1, *beliefs = res.best_point
    assert p1.outcomes == problem.actions
    assert [b.outcomes for b in beliefs] == [problem.outcomes] * shape[0]
    assert two_stage_objective(
        problem, lam, mu, p1, dict(zip(problem.actions, beliefs))
    ) == pytest.approx(res.best_value, abs=1e-10)


def test_staged_rejects_larger_shapes():
    actions = ["A", "B", "C", "D", "E"]
    outcomes = ["x", "y"]
    problem = TwoStageProblem(
        actions,
        outcomes,
        FiniteDistribution.uniform(actions),
        {a: FiniteDistribution.uniform(outcomes) for a in actions},
        util(actions, [0.0] * 5),
        {a: util(outcomes, [0.0, 1.0]) for a in actions},
    )
    with pytest.raises(TooLarge, match="got 5x2"):
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


@pytest.mark.parametrize("module", ["freeutil", "freeutil.cli"])
def test_import_leaves_openssl_out(module):
    code = f"import sys, {module}; print(sorted({{'hashlib', '_hashlib'}} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_tree_solve_sweep_and_dumps_leave_numpy_ma_out():
    """A tree solve, a tree sweep and dumps import no numpy.ma, a module of
    about 1 MB that np.unique would load."""
    tree = str(GOLDEN / "tree_mixed_tags.json")
    code = (
        "import contextlib, io, sys\n"
        "from freeutil import cli, problemio\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['solve', {tree!r}]) == 0\n"
        f"    assert cli.main(['sweep', {tree!r}, '--param', 'mu', '--grid=-inf,-1,0,1,inf']) == 0\n"
        f"problemio.dumps(problemio.load({tree!r}))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# iterative tree oracles


def reference_bellman_backup(root):
    """The recursive hard-max program bellman_backup ran before it became
    iterative, over a graph of TreeNodes: (values, policies) in the order it
    filled them."""
    values, policies = {}, {}

    def backup(n, path):
        if n.is_leaf:
            values[path] = 0.0
            return 0.0
        totals = {}
        for child, u in zip(n.children, n.child_utility.values):
            v = backup(child, f"{path}/{child.name}")
            if n.child_prior.prob(child.name) > 0.0:
                totals[child.name] = u + v
        best = max(totals.values())
        winners = [c for c, t in totals.items() if abs(t - best) <= 1e-12]
        names = tuple(c.name for c in n.children)
        policies[path] = FiniteDistribution(
            names, [1.0 / len(winners) if c in winners else 0.0 for c in names]
        )
        values[path] = best
        return best

    backup(root, root.name)
    return values, policies


def reference_path_enumeration(root, lam):
    """The recursive path sum path_enumeration ran before it became
    iterative, over a graph of TreeNodes."""
    log_ps, utils = [], []

    def walk(n, log_p_terms, u_terms):
        if n.is_leaf:
            log_ps.append(math.fsum(log_p_terms))
            utils.append(math.fsum(u_terms))
            return
        for child in n.children:
            p = n.child_prior.prob(child.name)
            if p > 0.0:
                u = n.child_utility.value(child.name)
                walk(child, log_p_terms + [math.log(p)], u_terms + [u])

    walk(root, [], [])
    return _logsumexp(np.asarray(log_ps) + lam * np.asarray(utils)) / lam


def test_iterative_oracles_match_the_recursive_walks(monkeypatch):
    # _random_tree hands back the graph it built, not the tree of it.
    monkeypatch.setattr(verify, "DecisionTree", lambda root: root)
    rng = np.random.default_rng(2024)
    for i in range(40):
        root = verify._random_tree(rng, with_zero_edge=i % 2 == 0)
        tree = DecisionTree(root)
        values, policies = reference_bellman_backup(root)
        hard = bellman_backup(tree)
        assert list(hard.values.items()) == list(values.items())
        assert list(hard.policies.items()) == list(policies.items())
        for lam in (0.4, 2.5):
            assert path_enumeration(tree, lam) == reference_path_enumeration(root, lam)


def test_oracles_handle_a_chain_deeper_than_the_recursion_limit():
    depth = 5_000
    tip = leaf(f"n{depth}")
    for i in range(depth - 1, -1, -1):
        tip = node(f"n{i}", [tip], [1.0], [0.5])
    tree = DecisionTree(tip)
    assert path_enumeration(tree, 0.7) == pytest.approx(2500.0, rel=1e-12)
    hard = bellman_backup(tree)
    assert hard.root_value == 2500.0
    assert len(hard.values) == depth + 1 and len(hard.policies) == depth
    # post-order: the deepest leaf first, the root last
    assert next(iter(hard.values)) == "/".join(f"n{i}" for i in range(depth + 1))
    assert list(hard.values)[-1] == "n0"


GOLDEN_TREES = sorted(p.name for p in GOLDEN.glob("tree_*.json"))


def test_bellman_backup_reports_row_kls_and_no_log_partition():
    """Per internal node, in breadth-first order: flat_kl has the bits of
    kl_divergence of the policy row against the prior row, and flat_log_z is
    NaN, as at every infinite limit."""
    rng = np.random.default_rng(11)
    trees = [verify._random_tree(rng, with_zero_edge=i % 2 == 0) for i in range(30)]
    trees += [load(str(GOLDEN / name)).problem for name in GOLDEN_TREES]
    tie = node("r", [leaf("x"), leaf("y"), leaf("z")], [0.2, 0.3, 0.5], [1.0, 1.0 + 1e-13, 0.5])
    trees.append(DecisionTree(tie))
    for tree in trees:
        hard = bellman_backup(tree)
        internal = np.flatnonzero(tree.n_children).tolist()
        paths = tree.paths()
        kls = []
        for i in internal:
            lo, k = int(tree.first_child[i]), int(tree.n_children[i])
            prior = FiniteDistribution._trusted(tree.names[lo : lo + k], tree.prior[lo - 1 : lo - 1 + k].tolist())
            kls.append(kl_divergence(hard.policies[paths[i]], prior))
        assert hard.flat_kl.tolist() == kls
        assert len(hard.flat_log_z) == len(internal) and np.isnan(hard.flat_log_z).all()
    assert bellman_backup(DecisionTree(tie)).policies["r"].probs == (0.5, 0.5, 0.0)


@pytest.mark.parametrize("name", GOLDEN_TREES)
def test_verify_tree_builds_no_tree_nodes(name, monkeypatch):
    """A tree is its arrays: loading, certifying and solving a valid tree
    file construct no TreeNode."""
    built = []
    init = TreeNode.__init__
    monkeypatch.setattr(
        TreeNode, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k)
    )
    tree = load(str(GOLDEN / name)).problem
    certs = verify.verify_tree(tree, Temperature.finite(1.0), Temperature.finite(2.0))
    assert all(c.passed for c in certs)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["solve", str(GOLDEN / name)]) == 0
    assert out.getvalue().startswith("{") and built == []
    TreeNode("probe")  # the count sees a construction
    assert built == [("probe",)]


def per_label_enumerate_minimax(problem):
    """The per-label walk enumerate_minimax ran before it read the problem's
    matrices."""
    worst = {}
    for a, w in zip(problem.actions, problem.prior_action.probs):
        if w == 0.0:
            continue
        row = problem.channel[a]
        util = problem.outcome_utility[a]
        candidates = [util.value(o) for o, p in zip(row.outcomes, row.probs) if p > 0.0]
        worst[a] = problem.action_utility.value(a) + min(candidates)
    best = max(worst.values())
    return next(a for a, v in worst.items() if v >= best - ARGMAX_TIE_TOL), best


def per_label_worst_case_margin(problem):
    """The per-label walk verify._worst_case_margin ran before it read the
    problem's matrices."""
    worsts = [
        min(
            problem.outcome_utility[a].value(o)
            for o, p in zip(problem.outcomes, problem.channel[a].probs)
            if p > 0.0
        )
        for a in problem.actions
    ]
    ranked = sorted(worsts, reverse=True)
    return ranked[0] - ranked[1]


@st.composite
def minimax_problems(draw):
    """Two-stage problems with zero-prior actions, zero channel entries and
    utilities that tie exactly, within ARGMAX_TIE_TOL, or just outside it."""
    actions = tuple(f"a{i}" for i in range(draw(st.integers(1, 5))))
    outcomes = tuple(f"o{j}" for j in range(draw(st.integers(1, 5))))
    near = st.builds(
        lambda base, step: base + step,
        st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
        st.sampled_from([0.0, 0.4 * ARGMAX_TIE_TOL, -0.4 * ARGMAX_TIE_TOL, 3 * ARGMAX_TIE_TOL]),
    )
    values = st.one_of(near, st.floats(-10.0, 10.0))

    def dist(labels):
        w = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]), min_size=len(labels),
                          max_size=len(labels)).filter(any))
        return FiniteDistribution(labels, np.asarray(w) / sum(w))

    def table(labels):
        return UtilityTable(labels, draw(st.lists(values, min_size=len(labels), max_size=len(labels))))

    return TwoStageProblem(
        actions, outcomes, dist(actions), {a: dist(outcomes) for a in actions},
        table(actions), {a: table(outcomes) for a in actions},
    )


@settings(max_examples=300, deadline=None)
@given(minimax_problems())
def test_enumerate_minimax_equals_the_per_label_walk(problem):
    action, value = enumerate_minimax(problem)
    assert type(value) is float
    assert (action, value) == per_label_enumerate_minimax(problem)
    if len(problem.actions) > 1:
        assert verify._worst_case_margin(problem) == per_label_worst_case_margin(problem)


def package_imports(module) -> set[str]:
    """The package modules a module's source imports, at any level."""
    imported = set()
    for stmt in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(stmt, ast.Import):
            imported |= {alias.name for alias in stmt.names}
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module
            if stmt.level:
                base = "freeutil" + ("." + base if base else "")
            # `from . import sequential` names the module as the imported name.
            if base == "freeutil":
                imported |= {f"{base}.{alias.name}" for alias in stmt.names}
            else:
                imported.add(base)
    return {name for name in imported if name.split(".")[0] == "freeutil"}


def test_oracle_imports_nothing_of_the_solvers():
    """The oracles stay independent of the solvers they certify; the result
    shape they share with the solvers is model's."""
    assert package_imports(oracle).isdisjoint({"freeutil.sequential", "freeutil.variational"})
    assert oracle.TreeValue is sequential.TreeValue


def test_problemio_imports_no_package_module_but_model():
    assert package_imports(problemio) <= {"freeutil.model"}


@pytest.mark.parametrize("lam, mu, name", [
    (1e-310, 1.0, "lam"), (1.0, 1e-310, "mu"), (1.0, -1e-310, "mu"), (1.0, -5e-324, "mu"),
])
def test_staged_refuses_a_temperature_whose_reciprocal_overflows(lam, mu, name):
    """1/t past the float range leaves a stage no lattice alpha: a DomainError
    naming the temperature, raised before any search and without a warning."""
    problem = random_two_by_two(np.random.default_rng(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} must be"):
            exhaustive_two_stage(problem, lam, mu, 1e-2)


def mp_objective(x, q, u, alpha):
    """x·u0 + (1-x)·u1 − alpha·KL([x, 1-x] ‖ q) in mpmath at 50 digits."""
    mpmath.mp.dps = 50
    point = [mpmath.mpf(x), 1 - mpmath.mpf(x)]
    kl = sum(pi * mpmath.log(pi / mpmath.mpf(qi)) for pi, qi in zip(point, q) if pi > 0)
    return point[0] * u[0] + point[1] * u[1] - alpha * kl


def test_oracles_score_a_subnormal_prior_coordinate():
    """A prior coordinate of 5e-324 overflows x/p; the lattice search and the
    staged search, through a channel row, still score that coordinate,
    against mpmath, without a warning."""
    q = dist(["a", "b"], [5e-324, 1.0])
    u = util(["a", "b"], [1000.0, 0.0])
    res = simplex_grid_search(q, u, 1.0)
    assert res.best_point.probs == (1.0, 0.0)
    assert res.best_value == pytest.approx(float(mp_objective(1.0, q.probs, u.values, 1)), abs=1e-9)
    problem = two_by_two(
        {"A": q, "B": dist(["a", "b"], [0.5, 0.5])},
        {"A": u, "B": util(["a", "b"], [0.0, 0.0])},
    )
    staged = exhaustive_two_stage(problem, 1.0, 1.0, 1e-2)
    p1, row_a, row_b = staged.best_point
    assert row_a.probs == (1.0, 0.0) and row_b.probs == (0.5, 0.5)
    # Row A scores mp_objective at (1, 0) and row B scores 0, so the staged
    # objective at the action point (x, 1 - x) is x·gain_a − KL(· ‖ uniform).
    gain_a = mp_objective(1.0, q.probs, u.values, 1)  # sets mp.dps to 50
    x = mpmath.mpf(p1.probs[0])
    reference = x * gain_a - sum(w * mpmath.log(2 * w) for w in (x, 1 - x) if w > 0)
    assert staged.best_value == pytest.approx(float(reference), abs=1e-9)


# The argument pool of the API contract tests in test_variational.py: the
# edges of the float range and ordinary floats. Utilities take its finite
# members; temperatures take all of it.
FINITE_EDGES = [0.0, -0.0, 5e-324, 1e-320, 1e308, -1e308]
pool_utilities = st.one_of(
    st.sampled_from(FINITE_EDGES), st.floats(allow_nan=False, allow_infinity=False)
)
pool_temperatures = st.one_of(
    st.sampled_from([None, math.nan, math.inf, -math.inf, *FINITE_EDGES]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def pool_dist(draw, labels):
    """A prior whose weights may be zero or subnormal, normalised by its fsum."""
    w = draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-320, 0.25, 1.0]), min_size=len(labels),
                      max_size=len(labels)).filter(lambda w: max(w) >= 0.25))
    return FiniteDistribution(labels, [x / math.fsum(w) for x in w])


@st.composite
def pool_trees(draw):
    """A tree of depth up to 3 and fan-out up to 3, utilities from the pool."""
    counter = itertools.count()

    def node(depth):
        name = f"n{next(counter)}"
        if depth == 0 or not draw(st.booleans()):
            return TreeNode(name)
        children = tuple(node(depth - 1) for _ in range(draw(st.integers(1, 3))))
        names = [c.name for c in children]
        u = draw(st.lists(pool_utilities, min_size=len(names), max_size=len(names)))
        tag = draw(st.sampled_from(["lambda", "mu"]))
        return TreeNode(name, children, pool_dist(draw, names), util(names, u), tag)

    return DecisionTree(node(3))


@st.composite
def pool_two_stage(draw):
    """A problem of up to 3 actions and 3 outcomes, utilities from the pool."""
    actions = tuple(f"a{i}" for i in range(draw(st.integers(1, 3))))
    outcomes = tuple(f"o{j}" for j in range(draw(st.integers(1, 3))))

    def table(labels):
        return util(labels, draw(st.lists(pool_utilities, min_size=len(labels),
                                          max_size=len(labels))))

    return TwoStageProblem(
        actions, outcomes, pool_dist(draw, actions),
        {a: pool_dist(draw, outcomes) for a in actions},
        table(actions), {a: table(outcomes) for a in actions},
    )


@st.composite
def oracle_calls(draw):
    """One oracle call on a drawn tree or two-stage problem, each temperature
    from the pool."""
    fn = draw(st.sampled_from([bellman_backup, path_enumeration, enumerate_minimax,
                               two_stage_objective, exhaustive_two_stage]))
    if fn is bellman_backup:
        return fn, (draw(pool_trees()),)
    if fn is path_enumeration:
        return fn, (draw(pool_trees()), draw(pool_temperatures))
    problem = draw(pool_two_stage())
    if fn is enumerate_minimax:
        return fn, (problem,)
    temps = (draw(pool_temperatures), draw(pool_temperatures))
    if fn is two_stage_objective:
        return fn, (problem, *temps, problem.prior_action, problem.channel)
    return fn, (problem, *temps, 0.1)


def oracle_numbers(result) -> list[float]:
    """The numbers an oracle result holds; bellman_backup's log-partitions
    are NaN by design, there being none at the hard-max limit."""
    if isinstance(result, sequential.TreeValue):
        return [*result.flat_values, *result.flat_policy, *result.flat_kl]
    if isinstance(result, oracle.OracleResult):
        return [result.best_value]
    if isinstance(result, tuple):  # enumerate_minimax
        return [result[1]]
    return [result]


OVERFLOW_TREE = DecisionTree(TreeNode(
    "r",
    (TreeNode("m", (TreeNode("x"), TreeNode("y")), dist(["x", "y"], [0.5, 0.5]),
              util(["x", "y"], [1e308, 1e308])), TreeNode("z")),
    dist(["m", "z"], [0.5, 0.5]), util(["m", "z"], [1e308, 0.0]),
))
OVERFLOW_TWO_STAGE = two_by_two(
    {a: dist(["a", "b"], [0.5, 0.5]) for a in ("A", "B")},
    {a: util(["a", "b"], [1e308, 1e308]) for a in ("A", "B")},
    util(["A", "B"], [1e308, 1e308]),
)
TREE_BINARY = load(GOLDEN / "tree_binary.json").problem


@settings(max_examples=300, deadline=None)
@given(oracle_calls())
@example((bellman_backup, (OVERFLOW_TREE,)))  # a hard-max value past the float range
@example((path_enumeration, (OVERFLOW_TREE, 1.0)))  # a path utility past fsum's range
@example((path_enumeration, (TREE_BINARY, 1e308)))  # scores past the float range
@example((path_enumeration, (TREE_BINARY, -1e308)))
@example((enumerate_minimax, (OVERFLOW_TWO_STAGE,)))  # a worst-case value of inf
@example((two_stage_objective, (OVERFLOW_TWO_STAGE, 1, 1, OVERFLOW_TWO_STAGE.prior_action,
                                OVERFLOW_TWO_STAGE.channel)))  # an objective of inf
def test_oracles_give_finite_numbers_or_raise(call):
    """Each oracle returns finite numbers or raises a FreeUtilError, without
    a warning, as value_recursion and minimax_solve do."""
    fn, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args)
        except FreeUtilError:
            return
    assert all(map(math.isfinite, oracle_numbers(result))), (fn.__name__, args, result)


@settings(max_examples=300, deadline=None)
@given(pool_trees(), pool_temperatures, pool_temperatures)
@example(OVERFLOW_TREE, 1.0, 1.0)
@example(TREE_BINARY, 1e308, -1e308)
@example(TREE_BINARY, 5e-324, -1e-320)
def test_value_recursion_gives_finite_numbers_or_raises(tree, lam, mu):
    """value_recursion on a mixed-tag tree returns finite values, policies,
    KLs and log-partitions (NaN only at the infinite limits, where there is
    none), or raises a FreeUtilError, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            temps = TemperatureSpec(lam, mu)
            result = value_recursion(tree, temps)
        except FreeUtilError:
            return
    node_temps = [temps.mu if mu else temps.lam for mu in tree.is_mu[tree.n_children > 0]]
    log_z = [z for z, t in zip(result.flat_log_z.tolist(), node_temps)
             if not (t.is_pos_inf or t.is_neg_inf)]
    assert all(map(math.isfinite, [*oracle_numbers(result), *log_z])), (tree, temps, result)
