import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freeutil.model import (
    ARGMAX_TIE_TOL,
    DecisionTree,
    DomainError,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TemperatureSpec,
    TreeNode,
    TwoStageProblem,
    UnknownAction,
    UnsupportedRegime,
    UtilityTable,
    entropy,
    expectation,
    kl_divergence,
    validate,
)
from freeutil.oracle import (
    bellman_backup,
    enumerate_minimax,
    exhaustive_two_stage,
    path_enumeration,
    simplex_grid_search,
    two_stage_objective,
)
from freeutil.sequential import (
    certainty_equivalent,
    inner_policy,
    minimax_solve,
    outer_policy,
    regime_label,
    risk_sensitive_argmax,
    solve_regime,
    taylor_ce_approx,
    two_stage_to_tree,
    value_recursion,
)
from freeutil.variational import (
    bounded_control,
    exponential_tilt,
    free_utility,
    free_utility_difference,
    gibbs_measure,
)

LOG2 = math.log(2.0)


def dist(labels, probs):
    return FiniteDistribution(labels, probs)


def util(labels, values):
    return UtilityTable(labels, values)


def staged(channel_rows, outcome_utils, action_utils=None, prior=None):
    """Assemble a TwoStageProblem from per-action rows keyed by action label."""
    actions = list(channel_rows)
    outcomes = channel_rows[actions[0]].outcomes
    return TwoStageProblem(
        actions,
        outcomes,
        prior or FiniteDistribution.uniform(actions),
        channel_rows,
        action_utils or util(actions, [0.0] * len(actions)),
        outcome_utils,
    )


MU_LADDER = [
    Temperature.neg_inf(),
    -10.0,
    -5.0,
    -1.0,
    -0.1,
    Temperature.zero(),
    0.1,
    1.0,
    5.0,
    10.0,
    Temperature.pos_inf(),
]


# ---------------------------------------------------------------------------
# certainty equivalents


def test_ce_constant_utility_for_every_mu():
    p = dist(["a", "b"], [0.4, 0.6])
    u = util(["a", "b"], [2.5, 2.5])
    for mu in MU_LADDER:
        assert certainty_equivalent(p, u, mu) == pytest.approx(2.5, abs=1e-12)


def test_ce_zero_limit_is_expectation():
    p = FiniteDistribution.uniform(["lo", "hi"])
    u = util(["lo", "hi"], [1.0, 3.0])
    assert certainty_equivalent(p, u, Temperature.zero()) == 2.0


def test_ce_minus_infinity_is_worst_case():
    p = FiniteDistribution.uniform(["lo", "hi"])
    u = util(["lo", "hi"], [1.0, 3.0])
    assert certainty_equivalent(p, u, Temperature.neg_inf()) == 1.0
    assert certainty_equivalent(p, u, Temperature.pos_inf()) == 3.0


def test_ce_unit_mu_closed_form():
    p = FiniteDistribution.uniform(["lo", "hi"])
    u = util(["lo", "hi"], [1.0, 3.0])
    got = certainty_equivalent(p, u, 1.0)
    assert got == pytest.approx(math.log((math.e + math.e**3) / 2), abs=1e-12)
    assert got == pytest.approx(2.4337808304830273, abs=1e-12)


def test_ce_against_high_precision_summation():
    """The float log-sum-exp agrees with 50-digit arithmetic."""
    mpmath.mp.dps = 50
    p = dist(["a", "b", "c"], [0.2, 0.5, 0.3])
    u = util(["a", "b", "c"], [-1.0, 0.25, 2.0])
    for mu in (-3.0, -1.0, 0.5, 1.0, 4.0):
        exact = mpmath.log(
            mpmath.fsum(
                mpmath.mpf(pi) * mpmath.exp(mpmath.mpf(mu) * mpmath.mpf(vi))
                for pi, vi in zip(p.probs, u.values)
            )
        ) / mpmath.mpf(mu)
        assert certainty_equivalent(p, u, mu) == pytest.approx(
            float(exact), abs=1e-12
        )


def test_ce_zero_probability_outcomes_do_not_count():
    p = dist(["a", "b", "c"], [0.5, 0.5, 0.0])
    u = util(["a", "b", "c"], [1.0, 3.0, -50.0])
    assert certainty_equivalent(p, u, Temperature.neg_inf()) == 1.0
    assert certainty_equivalent(p, u, Temperature.pos_inf()) == 3.0
    # finite mu must agree with dropping the dead outcome entirely
    trimmed = certainty_equivalent(
        dist(["a", "b"], [0.5, 0.5]), util(["a", "b"], [1.0, 3.0]), -2.0
    )
    assert certainty_equivalent(p, u, -2.0) == pytest.approx(trimmed, abs=1e-12)


def test_ce_monotone_in_mu_and_bounded():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        labels = [f"o{i}" for i in range(n)]
        p = dist(labels, rng.dirichlet(np.ones(n)))
        u = util(labels, rng.normal(scale=2.0, size=n))
        ces = [certainty_equivalent(p, u, mu) for mu in MU_LADDER]
        for lo, hi in zip(ces, ces[1:]):
            assert hi >= lo - 1e-12
        assert ces[0] == min(u.values)
        assert ces[-1] == max(u.values)
        assert min(ces) >= min(u.values) - 1e-12
        assert max(ces) <= max(u.values) + 1e-12


def test_ce_at_a_huge_mu_stays_at_the_extreme():
    """(m + log s)/mu rounds past the maximum at mu = 1e305; the value is
    clamped to the supported utilities."""
    p = dist(["lo", "hi"], [0.5, 0.5])
    u = util(["lo", "hi"], [-1000.0, 1000.0])
    assert certainty_equivalent(p, u, 1e305) == 1000.0
    assert certainty_equivalent(p, u, -1e305) == -1000.0


CE_UTILITIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1000.0, -1000.0, 3.0, 3.0000000000000004, 1e308, -1e308, 5e-324]),
    st.floats(-1e6, 1e6),
)
CE_MUS = st.one_of(
    st.sampled_from(["zero", "inf", "-inf"]),
    st.builds(math.copysign, st.floats(5e-324, 1e300), st.sampled_from([1.0, -1.0])),
)


@st.composite
def ce_gambles(draw):
    """A prior with zeros (one entry at least positive) and utilities from
    the float range's edges and ordinary floats."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.0]), min_size=n,
                            max_size=n).filter(any))
    labels = [f"o{i}" for i in range(n)]
    values = draw(st.lists(CE_UTILITIES, min_size=n, max_size=n))
    return dist(labels, np.asarray(weights) / math.fsum(weights)), util(labels, values)


@settings(max_examples=300, deadline=None)
@given(ce_gambles(), CE_MUS)
@example((dist(["lo", "hi"], [0.5, 0.5]), util(["lo", "hi"], [-1000.0, 1000.0])), 1e305)
@example((dist(["a", "b"], [0.2810420553770037, 0.7189579446229963]),
          util(["a", "b"], [3.0, 3.0000000000000004])), "zero")
def test_ce_lies_within_the_supported_utilities_or_raises(gamble, mu):
    p, u = gamble
    supported = [v for v, w in zip(u.values, p.probs) if w > 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ce = certainty_equivalent(p, u, mu)
        except FreeUtilError:
            return
    assert min(supported) <= ce <= max(supported), (p, u, mu, ce)


# ---------------------------------------------------------------------------
# taylor expansion of the certainty equivalent


def test_taylor_constant_utility():
    p = dist(["a", "b"], [0.5, 0.5])
    u = util(["a", "b"], [4.0, 4.0])
    for mu in (-2.0, 0.0, 3.0):
        assert taylor_ce_approx(p, u, mu) == 4.0


def test_taylor_at_zero_is_expectation():
    p = dist(["a", "b"], [0.25, 0.75])
    u = util(["a", "b"], [0.0, 4.0])
    assert taylor_ce_approx(p, u, 0.0) == expectation(p, u) == 3.0


def test_taylor_close_to_ce_for_small_mu():
    p = FiniteDistribution.uniform(["a", "b"])
    u = util(["a", "b"], [0.0, 1.0])
    err = abs(taylor_ce_approx(p, u, 0.01) - certainty_equivalent(p, u, 0.01))
    assert err <= 1e-4


def test_taylor_sign_is_plus_half_mu_variance():
    """On a skewed gamble the plus-sign expansion tracks the exact value and
    the minus-sign variant misses by the full variance term."""
    p = dist(["a", "b"], [0.9, 0.1])
    u = util(["a", "b"], [0.0, 1.0])
    mu = 0.1
    mean, var = 0.1, 0.09
    exact = certainty_equivalent(p, u, mu)
    err_plus = abs(exact - taylor_ce_approx(p, u, mu))
    err_minus = abs(exact - (mean - 0.5 * mu * var))
    assert taylor_ce_approx(p, u, mu) == pytest.approx(mean + 0.5 * mu * var)
    # the plus-sign residual is the third-order term, about mu^2*skew/6
    assert err_plus < 3e-4
    assert err_minus > 5e-3
    assert err_minus > 50 * err_plus


# ---------------------------------------------------------------------------
# inner stage


def test_inner_zero_mu_returns_channel_row():
    problem = staged(
        {"A": dist(["x", "y"], [0.3, 0.7])},
        {"A": util(["x", "y"], [5.0, -5.0])},
    )
    beliefs, log_z2 = inner_policy(problem, "A", Temperature.zero())
    assert beliefs.probs == (0.3, 0.7)
    assert log_z2 == 0.0


def test_inner_positive_mu_tilts_up():
    problem = staged(
        {"A": FiniteDistribution.uniform(["x", "y"])},
        {"A": util(["x", "y"], [0.0, LOG2])},
    )
    beliefs, _ = inner_policy(problem, "A", 1.0)
    assert np.allclose(beliefs.probs, [1 / 3, 2 / 3], atol=1e-15)


def test_inner_negative_mu_reverses_mass():
    problem = staged(
        {"A": FiniteDistribution.uniform(["x", "y"])},
        {"A": util(["x", "y"], [0.0, LOG2])},
    )
    beliefs, _ = inner_policy(problem, "A", -1.0)
    assert np.allclose(beliefs.probs, [2 / 3, 1 / 3], atol=1e-15)


def test_inner_unknown_action():
    problem = staged(
        {"A": FiniteDistribution.uniform(["x", "y"])},
        {"A": util(["x", "y"], [0.0, 1.0])},
    )
    with pytest.raises(UnknownAction):
        inner_policy(problem, "Z", 1.0)


# ---------------------------------------------------------------------------
# outer stage


def test_outer_all_zero_utilities_returns_priors():
    prior = dist(["A", "B"], [0.3, 0.7])
    rows = {
        "A": dist(["x", "y"], [0.6, 0.4]),
        "B": dist(["x", "y"], [0.1, 0.9]),
    }
    zeros = {a: util(["x", "y"], [0.0, 0.0]) for a in rows}
    for lam, mu in [(1.0, 1.0), (0.5, -2.0), (3.0, Temperature.zero())]:
        sol = outer_policy(staged(rows, zeros, prior=prior), lam, mu)
        assert sol.action_policy.probs == prior.probs
        for a in rows:
            assert sol.outcome_beliefs[a].probs == rows[a].probs
        assert sol.achieved_c1 == 0.0
        assert sol.achieved_c2 == 0.0


def test_outer_constructed_gibbs_weights():
    # deterministic channels pin each action's certainty equivalent for any
    # mu: CE(A) = log 2, CE(B) = 0, so lambda = 1 gives weights (2, 1)
    rows = {
        "A": dist(["x", "y"], [1.0, 0.0]),
        "B": dist(["x", "y"], [1.0, 0.0]),
    }
    outs = {
        "A": util(["x", "y"], [LOG2, 0.0]),
        "B": util(["x", "y"], [0.0, 0.0]),
    }
    sol = outer_policy(staged(rows, outs), 1.0, 1.0)
    assert np.allclose(sol.action_policy.probs, [2 / 3, 1 / 3], atol=1e-14)
    assert sol.values["A"] == pytest.approx(LOG2, abs=1e-15)
    assert sol.values["B"] == 0.0


def test_outer_infinite_lambda_is_expected_utility_argmax():
    rows = {
        "A": dist(["x", "y"], [0.5, 0.5]),
        "B": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {
        "A": util(["x", "y"], [0.0, 4.0]),  # mean 2
        "B": util(["x", "y"], [2.5, 3.0]),  # mean 2.75
    }
    sol = outer_policy(staged(rows, outs), Temperature.pos_inf(), Temperature.zero())
    assert sol.action_policy.probs == (0.0, 1.0)
    assert sol.chosen_action() == "B"
    assert sol.value == 2.75


def test_outer_reports_consistent_budgets():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n_a, n_o = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        actions = [f"a{i}" for i in range(n_a)]
        outcomes = [f"o{i}" for i in range(n_o)]
        rows = {
            a: dist(outcomes, rng.dirichlet(np.ones(n_o))) for a in actions
        }
        outs = {a: util(outcomes, rng.normal(size=n_o)) for a in actions}
        problem = TwoStageProblem(
            actions,
            outcomes,
            dist(actions, rng.dirichlet(np.ones(n_a))),
            rows,
            util(actions, rng.normal(size=n_a)),
            outs,
        )
        lam, mu = float(rng.uniform(0.3, 3.0)), float(rng.uniform(-2.0, 2.0)) or 0.5
        sol = outer_policy(problem, lam, mu)
        c1 = kl_divergence(sol.action_policy, problem.prior_action)
        c2 = math.fsum(
            sol.action_policy.prob(a) * kl_divergence(sol.outcome_beliefs[a], rows[a])
            for a in actions
        )
        assert sol.achieved_c1 == pytest.approx(c1, abs=1e-9)
        assert sol.achieved_c2 == pytest.approx(c2, abs=1e-9)


def test_achieved_c2_against_a_subnormal_channel_entry():
    """A channel entry of 5e-324 overflows belief/channel; the row's relative
    entropy is still finite and matches mpmath."""
    outcomes = ["low", "high"]
    problem = TwoStageProblem(
        ["safe", "risky"],
        outcomes,
        dist(["safe", "risky"], [0.5, 0.5]),
        {"safe": dist(outcomes, [0.5, 0.5]), "risky": dist(outcomes, [5e-324, 1.0])},
        util(["safe", "risky"], [0.0, 0.0]),
        {"safe": util(outcomes, [2.0, 2.5]), "risky": util(outcomes, [1000.0, 0.0])},
    )
    sol = outer_policy(problem, 1.0, 1.0)
    mpmath.mp.dps = 50
    exact = mpmath.fsum(
        mpmath.mpf(sol.action_policy.prob(a))
        * mpmath.fsum(
            mpmath.mpf(b) * mpmath.log(mpmath.mpf(b) / mpmath.mpf(c))
            for b, c in zip(sol.outcome_beliefs[a].probs, problem.channel[a].probs)
            if b > 0.0
        )
        for a in problem.actions
    )
    assert sol.outcome_beliefs["risky"].probs[0] > 0.99
    assert sol.achieved_c2 == pytest.approx(float(exact), rel=1e-13)


def test_outer_log_partition_recursion_identity():
    """The outer log-normalizer recomputes from the inner ones."""
    rng = np.random.default_rng(59)
    for _ in range(25):
        actions = ["a0", "a1", "a2"]
        outcomes = ["o0", "o1"]
        rows = {a: dist(outcomes, rng.dirichlet(np.ones(2))) for a in actions}
        outs = {a: util(outcomes, rng.normal(size=2)) for a in actions}
        prior = dist(actions, rng.dirichlet(np.ones(3)))
        gains = util(actions, rng.normal(size=3))
        problem = TwoStageProblem(actions, outcomes, prior, rows, gains, outs)
        lam, mu = 2.0, 0.7
        sol = outer_policy(problem, lam, mu)
        rebuilt = math.log(
            math.fsum(
                prior.prob(a)
                * math.exp(lam * (gains.value(a) + sol.log_z2[a] / mu))
                for a in actions
            )
        )
        assert sol.log_z1 == pytest.approx(rebuilt, abs=1e-9)
        assert sol.value == pytest.approx(rebuilt / lam, abs=1e-9)


# ---------------------------------------------------------------------------
# regimes


def test_regime_labels():
    assert regime_label(TemperatureSpec(1.0, 1.0)) == "risk-seeking-bounded"
    assert regime_label(TemperatureSpec("inf", "zero")) == "risk-neutral"
    assert regime_label(TemperatureSpec("inf", -2.0)) == "risk-averse"
    assert regime_label(TemperatureSpec("inf", "-inf")) == "robust"
    assert regime_label(TemperatureSpec(1.0, -2.0)) == "risk-averse-bounded"
    assert regime_label(TemperatureSpec("inf", "inf")) == "optimistic"


def test_solve_regime_deterministic_at_rational_limit():
    rows = {
        "A": dist(["x", "y"], [0.5, 0.5]),
        "B": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {
        "A": util(["x", "y"], [0.0, 4.0]),
        "B": util(["x", "y"], [2.5, 3.0]),
    }
    sol = solve_regime(staged(rows, outs), TemperatureSpec("inf", "zero"))
    assert sol.regime == "risk-neutral"
    assert sol.action_policy.probs == (0.0, 1.0)


def test_solve_regime_robust_picks_max_min():
    rows = {
        "A": dist(["x", "y"], [0.5, 0.5]),
        "B": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {
        "A": util(["x", "y"], [3.0, 1.0]),
        "B": util(["x", "y"], [2.0, 2.0]),
    }
    sol = solve_regime(staged(rows, outs), TemperatureSpec("inf", "-inf"))
    assert sol.regime == "robust"
    assert sol.chosen_action() == "B"
    assert sol.value == 2.0


def test_solve_regime_rejects_zero_lambda():
    rows = {"A": dist(["x", "y"], [0.5, 0.5])}
    outs = {"A": util(["x", "y"], [0.0, 1.0])}
    with pytest.raises(UnsupportedRegime):
        solve_regime(staged(rows, outs), TemperatureSpec("zero", 1.0))


def test_solve_regime_requires_spec_instance():
    rows = {"A": dist(["x", "y"], [0.5, 0.5])}
    outs = {"A": util(["x", "y"], [0.0, 1.0])}
    with pytest.raises(DomainError):
        solve_regime(staged(rows, outs), (1.0, 1.0))


# Entry points given something other than the problem or tree they solve,
# each of which once raised AttributeError.
ONE_EDGE = TreeNode("r", (TreeNode("x"),), FiniteDistribution(["x"], [1.0]), UtilityTable(["x"], [0.0]))
NOT_A_PROBLEM = {
    "value_recursion(None)": lambda: value_recursion(None, TemperatureSpec(1.0, 1.0)),
    "value_recursion on a TreeNode": lambda: value_recursion(ONE_EDGE, TemperatureSpec(1.0, 1.0)),
    "outer_policy(None)": lambda: outer_policy(None, 1.0, 1.0),
    "outer_policy on a DecisionTree": lambda: outer_policy(DecisionTree(ONE_EDGE), 1.0, 1.0),
    "solve_regime(None)": lambda: solve_regime(None, TemperatureSpec(1.0, 1.0)),
    "inner_policy(None)": lambda: inner_policy(None, "x", 1.0),
    "minimax_solve(None)": lambda: minimax_solve(None),
    "risk_sensitive_argmax(None)": lambda: risk_sensitive_argmax(None, -1.0),
    "two_stage_to_tree(None)": lambda: two_stage_to_tree(None),
}


@pytest.mark.parametrize("call", sorted(NOT_A_PROBLEM))
def test_a_non_problem_argument_raises_a_named_domain_error(call):
    with pytest.raises(DomainError, match=r"^(problem must be a TwoStageProblem|tree must be a "
                                          r"DecisionTree), got (NoneType|TreeNode|DecisionTree)$"):
        NOT_A_PROBLEM[call]()


# Public entry points given None where a distribution, a utility table, a
# temperature pair, a problem or a tree is due, each of which once raised
# AttributeError or TypeError.
P, U = FiniteDistribution(["x", "y"], [0.5, 0.5]), UtilityTable(["x", "y"], [0.0, 1.0])
NONE_FIRST = {
    "certainty_equivalent": lambda: certainty_equivalent(None, U, 1.0),
    "taylor_ce_approx": lambda: taylor_ce_approx(None, U, 0.1),
    "regime_label": lambda: regime_label(None),
    "entropy": lambda: entropy(None),
    "expectation": lambda: expectation(None, U),
    "kl_divergence": lambda: kl_divergence(None, P),
    "validate": lambda: validate(None),
    "exponential_tilt": lambda: exponential_tilt(None, U, 1.0),
    "gibbs_measure": lambda: gibbs_measure(None, 1.0),
    "free_utility": lambda: free_utility(None, U, 1.0),
    "free_utility_difference": lambda: free_utility_difference(None, P, U, 1.0),
    "bounded_control": lambda: bounded_control(None, U, 1.0),
    "bellman_backup": lambda: bellman_backup(None),
    "enumerate_minimax": lambda: enumerate_minimax(None),
    "exhaustive_two_stage": lambda: exhaustive_two_stage(None, 1.0, 1.0),
    "path_enumeration": lambda: path_enumeration(None, 1.0),
    "two_stage_objective": lambda: two_stage_objective(None, 1.0, 1.0, P, {}),
    "simplex_grid_search": lambda: simplex_grid_search(None, U, 1.0),
}


@pytest.mark.parametrize("call", sorted(NONE_FIRST))
def test_none_for_the_first_argument_raises_a_named_domain_error(call):
    with pytest.raises(DomainError, match=r"^\w+ must be a (FiniteDistribution|UtilityTable|"
                                          r"TemperatureSpec|TwoStageProblem|DecisionTree), "
                                          r"got NoneType$"):
        NONE_FIRST[call]()


# Valid calls, each argument past the first of which is given None in turn.
STAGED = staged({"A": P, "B": dist(["x", "y"], [0.9, 0.1])}, {"A": U, "B": util(["x", "y"], [2.0, -1.0])})
NONE_LATER = {
    "exponential_tilt": (exponential_tilt, (P, U, 1.0)),
    "kl_divergence": (kl_divergence, (P, P)),
    "expectation": (expectation, (P, U)),
    "gibbs_measure": (gibbs_measure, (U, 1.0)),
    "free_utility": (free_utility, (P, U, 1.0)),
    "bounded_control": (bounded_control, (P, U, 1.0)),
    "certainty_equivalent": (certainty_equivalent, (P, U, 1.0)),
    "simplex_grid_search": (simplex_grid_search, (P, U, 1.0, 0.01)),
    "path_enumeration": (path_enumeration, (DecisionTree(ONE_EDGE), 1.0)),
    "exhaustive_two_stage": (exhaustive_two_stage, (STAGED, 1.0, 1.0, 0.01)),
    "two_stage_objective": (two_stage_objective,
                            (STAGED, 1.0, 1.0, STAGED.prior_action, STAGED.channel)),
    "free_utility_difference": (free_utility_difference, (P, P, U, 1.0)),
    "taylor_ce_approx": (taylor_ce_approx, (P, U, 0.1)),
    "inner_policy": (inner_policy, (STAGED, "A", 1.0)),
    "outer_policy": (outer_policy, (STAGED, 1.0, 1.0)),
    "solve_regime": (solve_regime, (STAGED, TemperatureSpec(1.0, 1.0))),
    "risk_sensitive_argmax": (risk_sensitive_argmax, (STAGED, -1.0)),
    "value_recursion": (value_recursion, (DecisionTree(ONE_EDGE), TemperatureSpec(1.0, 1.0))),
    "two_stage_to_tree": (two_stage_to_tree, (STAGED, "root")),
}


@pytest.mark.parametrize("name, position", [
    (name, position) for name, (_, args) in NONE_LATER.items() for position in range(1, len(args))
])
def test_none_for_any_later_argument_raises_a_named_error(name, position):
    """The call solves as given, and with None in that one place raises a
    FreeUtilError, not Python's TypeError or KeyError."""
    fn, args = NONE_LATER[name]
    fn(*args)
    with pytest.raises(FreeUtilError):
        fn(*args[:position], None, *args[position + 1:])


def test_two_stage_objective_names_an_action_without_beliefs():
    """Beliefs are read only for the actions the policy plays."""
    with pytest.raises(UnknownAction, match=r"^outcome_beliefs has no belief for action 'B'$"):
        two_stage_objective(STAGED, 1.0, 1.0, STAGED.prior_action, {"A": P})
    assert two_stage_objective(STAGED, 1.0, 1.0, dist(["A", "B"], [1.0, 0.0]), {"A": P}) == (
        two_stage_objective(STAGED, 1.0, 1.0, dist(["A", "B"], [1.0, 0.0]), STAGED.channel)
    )


def test_two_stage_objective_refuses_a_lam_not_positive_and_finite():
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="^lam must be a positive finite real"):
            two_stage_objective(STAGED, lam, 1.0, STAGED.prior_action, STAGED.channel)


def test_value_recursion_refuses_a_log_partition_past_the_float_range():
    """Constant gains of 1e308 at mu = 2 put t·g_max past the float range:
    DomainError, as outer_policy and exponential_tilt raise, and of two
    such nodes, the first in post-order."""
    def row(name, u, kids=("a", "b")):
        return TreeNode(name, tuple(map(TreeNode, kids)), dist(kids, [0.5, 0.5]),
                        util(kids, [u, u]), "mu")

    temps = TemperatureSpec(1, 2)
    with pytest.raises(DomainError, match=r"^the log-partition is not a finite number: inf$"):
        value_recursion(DecisionTree(row("r", 1e308)), temps)
    with pytest.raises(DomainError, match=r"^the log-partition is not a finite number: inf$"):
        exponential_tilt(dist(["a", "b"], [0.5, 0.5]), util(["a", "b"], [1e308, 1e308]), 2)
    for order, sign in ((("y", "x"), "-inf"), (("x", "y"), "inf")):
        below = {"x": row("x", 1e308), "y": row("y", -1e308)}
        root = TreeNode("r", tuple(below[k] for k in order), dist(order, [0.5, 0.5]),
                        util(order, [0.0, 0.0]))
        with pytest.raises(DomainError, match=rf"^the log-partition is not a finite number: {sign}$"):
            value_recursion(DecisionTree(root), temps)


def test_solve_regime_matches_tree_recursion():
    """The depth-2 tree recast reproduces the nested solution exactly."""
    rng = np.random.default_rng(61)
    for _ in range(20):
        actions = ["a0", "a1"]
        outcomes = ["o0", "o1", "o2"]
        rows = {a: dist(outcomes, rng.dirichlet(np.ones(3))) for a in actions}
        outs = {a: util(outcomes, rng.normal(size=3)) for a in actions}
        problem = TwoStageProblem(
            actions,
            outcomes,
            dist(actions, rng.dirichlet(np.ones(2))),
            rows,
            util(actions, rng.normal(size=2)),
            outs,
        )
        temps = TemperatureSpec(1.0, 1.0)
        sol = solve_regime(problem, temps)
        tv = value_recursion(two_stage_to_tree(problem), temps)
        assert tv.root_value == pytest.approx(sol.value, abs=1e-12)
        assert tv.policies["root"].probs == sol.action_policy.probs
        for a in actions:
            assert tv.policies[f"root/{a}"].probs == sol.outcome_beliefs[a].probs


# ---------------------------------------------------------------------------
# minimax and risk-sensitive scalar solvers


def test_minimax_example_rows():
    rows = {
        "A": dist(["x", "y"], [0.5, 0.5]),
        "B": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {
        "A": util(["x", "y"], [3.0, 1.0]),
        "B": util(["x", "y"], [2.0, 2.0]),
    }
    action, value = minimax_solve(staged(rows, outs))
    assert (action, value) == ("B", 2.0)


def test_minimax_constant_utilities_tie_break_first():
    rows = {
        "A": dist(["x", "y"], [0.5, 0.5]),
        "B": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {a: util(["x", "y"], [7.0, 7.0]) for a in rows}
    action, value = minimax_solve(staged(rows, outs))
    assert (action, value) == ("A", 7.0)


def test_minimax_ignores_unreachable_outcomes():
    rows = {
        "A": dist(["x", "y"], [1.0, 0.0]),
        "B": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {
        "A": util(["x", "y"], [3.0, -99.0]),  # the -99 outcome cannot happen
        "B": util(["x", "y"], [2.0, 2.5]),
    }
    action, value = minimax_solve(staged(rows, outs))
    assert (action, value) == ("A", 3.0)


def test_minimax_adds_action_utility():
    rows = {
        "A": dist(["x", "y"], [0.5, 0.5]),
        "B": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {
        "A": util(["x", "y"], [3.0, 1.0]),
        "B": util(["x", "y"], [2.0, 2.0]),
    }
    # a large bonus on A outweighs its worse outcome row
    problem = staged(rows, outs, action_utils=util(["A", "B"], [5.0, 0.0]))
    action, value = minimax_solve(problem)
    assert (action, value) == ("A", 6.0)


def test_risk_sensitive_tiny_mu_matches_neutral_choice():
    rows = {
        "A": dist(["x", "y"], [0.5, 0.5]),
        "B": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {
        "A": util(["x", "y"], [0.0, 4.0]),
        "B": util(["x", "y"], [2.5, 3.0]),
    }
    problem = staged(rows, outs)
    neutral = solve_regime(problem, TemperatureSpec("inf", "zero")).chosen_action()
    action, _ = risk_sensitive_argmax(problem, -1e-8)
    assert action == neutral == "B"


def test_risk_sensitive_large_negative_mu_goes_minimax():
    rows = {
        "safe": dist(["x", "y"], [0.5, 0.5]),
        "risky": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {
        "safe": util(["x", "y"], [2.0, 2.5]),   # worst 2.0, mean 2.25
        "risky": util(["x", "y"], [0.0, 6.0]),  # worst 0.0, mean 3.0
    }
    problem = staged(rows, outs)
    mean_action, _ = risk_sensitive_argmax(problem, 1e-8)
    assert mean_action == "risky"
    averse_action, averse_value = risk_sensitive_argmax(problem, -100.0)
    mm_action, mm_value = minimax_solve(problem)
    assert averse_action == mm_action == "safe"
    assert averse_value == pytest.approx(mm_value, abs=0.02)


def test_risk_sensitive_deterministic_channels_mu_independent():
    rows = {
        "A": dist(["x", "y"], [1.0, 0.0]),
        "B": dist(["x", "y"], [0.0, 1.0]),
    }
    outs = {
        "A": util(["x", "y"], [3.0, 0.0]),
        "B": util(["x", "y"], [0.0, 1.0]),
    }
    problem = staged(rows, outs)
    picks = {risk_sensitive_argmax(problem, mu) for mu in (-50.0, -1.0, 0.5, 20.0)}
    assert picks == {("A", 3.0)}


def test_minimax_skips_actions_without_prior_mass():
    rows = {
        "a": dist(["x", "y"], [0.5, 0.5]),
        "b": dist(["x", "y"], [0.5, 0.5]),
    }
    outs = {
        "a": util(["x", "y"], [5.0, 6.0]),  # worst case 5, but never chosen
        "b": util(["x", "y"], [1.0, 2.0]),
    }
    problem = staged(rows, outs, prior=dist(["a", "b"], [0.0, 1.0]))
    assert minimax_solve(problem) == enumerate_minimax(problem) == ("b", 1.0)


def random_tied_problem(rng):
    """Integer utilities (so values tie exactly), channel rows with zero
    entries and actions without prior mass."""
    n_a, n_o = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    actions = [f"a{i}" for i in range(n_a)]
    outcomes = [f"o{i}" for i in range(n_o)]

    def weights(n):
        w = rng.integers(0, 3, n).astype(float)
        if w.sum() == 0.0:
            w[int(rng.integers(0, n))] = 1.0
        return w / w.sum()

    return staged(
        {a: dist(outcomes, weights(n_o)) for a in actions},
        {a: util(outcomes, rng.integers(-2, 3, n_o)) for a in actions},
        action_utils=util(actions, rng.integers(-1, 2, n_a)),
        prior=dist(actions, weights(n_a)),
    )


def test_worst_case_and_risk_sensitive_choices_match_enumeration():
    # The action loop risk_sensitive_argmax used to run is the reference:
    # supported actions only, first-listed within ARGMAX_TIE_TOL of the best.
    rng = np.random.default_rng(2024)
    for _ in range(400):
        problem = random_tied_problem(rng)
        assert minimax_solve(problem) == enumerate_minimax(problem)
        for mu in (-50.0, -1.0, 0.5, 20.0):
            scores = {
                a: problem.action_utility.value(a)
                + certainty_equivalent(
                    problem.channel[a], problem.outcome_utility[a], mu
                )
                for a in problem.prior_action.support()
            }
            best = max(scores.values())
            first = next(a for a, v in scores.items() if v >= best - ARGMAX_TIE_TOL)
            assert risk_sensitive_argmax(problem, mu) == (first, best)


def test_risk_sensitive_rejects_degenerate_mu():
    rows = {"A": dist(["x", "y"], [0.5, 0.5])}
    outs = {"A": util(["x", "y"], [0.0, 1.0])}
    problem = staged(rows, outs)
    with pytest.raises(DomainError):
        risk_sensitive_argmax(problem, 0.0)
    with pytest.raises(DomainError):
        risk_sensitive_argmax(problem, float("inf"))


# ---------------------------------------------------------------------------
# decision trees


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


def chain_tree(utilities):
    """A single path: root -> n1 -> n2 -> ... with the given edge utilities."""
    child = leaf(f"n{len(utilities)}")
    for depth in range(len(utilities) - 1, -1, -1):
        child = node(
            f"n{depth}" if depth else "root", [child], [1.0], [utilities[depth]]
        )
    return DecisionTree(child)


def test_depth_one_tree_is_certainty_equivalent():
    probs = [0.3, 0.7]
    utils = [1.0, -0.5]
    tree = DecisionTree(node("root", [leaf("a"), leaf("b")], probs, utils))
    p = dist(["a", "b"], probs)
    u = util(["a", "b"], utils)
    for lam in (0.5, 1.0, 5.0):
        tv = value_recursion(tree, TemperatureSpec(lam, 1.0))
        assert tv.root_value == pytest.approx(
            certainty_equivalent(p, u, lam), abs=1e-12
        )
        assert tv.values["root/a"] == 0.0


def test_bellman_chain_sums_utilities():
    tree = chain_tree([1.0, 2.0, 3.0])
    assert bellman_backup(tree).root_value == 6.0


def test_bellman_binary_depth_two():
    # leaf path utilities 4, 1, 2, 3 -> best path worth 4
    left = node("L", [leaf("a"), leaf("b")], [0.5, 0.5], [3.0, 0.0])
    right = node("R", [leaf("c"), leaf("d")], [0.5, 0.5], [0.0, 1.0])
    tree = DecisionTree(node("root", [left, right], [0.5, 0.5], [1.0, 2.0]))
    tv = bellman_backup(tree)
    assert tv.root_value == 4.0
    assert tv.policies["root"].probs == (1.0, 0.0)
    assert tv.policies["root/L"].probs == (1.0, 0.0)


def test_bellman_matches_infinite_temperature_recursion():
    left = node("L", [leaf("a"), leaf("b")], [0.5, 0.5], [3.0, 0.0])
    right = node("R", [leaf("c"), leaf("d")], [0.5, 0.5], [0.0, 1.0])
    tree = DecisionTree(node("root", [left, right], [0.5, 0.5], [1.0, 2.0]))
    soft = value_recursion(tree, TemperatureSpec("inf", "inf"))
    hard = bellman_backup(tree)
    assert soft.values == hard.values
    assert soft.policies["root"].probs == hard.policies["root"].probs


def test_bellman_excludes_zero_probability_children():
    tree = DecisionTree(
        node("root", [leaf("a"), leaf("b")], [0.0, 1.0], [99.0, 1.0])
    )
    tv = bellman_backup(tree)
    assert tv.root_value == 1.0
    assert tv.policies["root"].probs == (0.0, 1.0)


def test_bellman_ties_become_uniform_policy():
    tree = DecisionTree(
        node("root", [leaf("a"), leaf("b"), leaf("c")], [0.2, 0.4, 0.4], [2.0, 2.0, 1.0])
    )
    tv = bellman_backup(tree)
    assert tv.policies["root"].probs == (0.5, 0.5, 0.0)


def test_soft_backup_converges_to_bellman():
    rng = np.random.default_rng(71)
    for _ in range(20):
        kids = [leaf(f"k{i}") for i in range(3)]
        mids = [
            node(f"m{i}", [leaf(f"m{i}a"), leaf(f"m{i}b")], [0.5, 0.5],
                 list(rng.normal(size=2)))
            for i in range(2)
        ]
        tree = DecisionTree(
            node("root", mids + kids[:1], [0.4, 0.4, 0.2], list(rng.normal(size=3)))
        )
        soft = value_recursion(tree, TemperatureSpec(1e4, 1e4)).root_value
        hard = bellman_backup(tree).root_value
        assert soft == pytest.approx(hard, abs=1e-2)


def test_tree_prior_recovery_with_zero_utilities():
    left = node("L", [leaf("a"), leaf("b")], [0.25, 0.75], [0.0, 0.0], tag="mu")
    tree = DecisionTree(node("root", [left, leaf("R")], [0.6, 0.4], [0.0, 0.0]))
    tv = value_recursion(tree, TemperatureSpec(2.0, 0.5))
    assert tv.policies["root"].probs == (0.6, 0.4)
    assert tv.policies["root/L"].probs == (0.25, 0.75)
    assert tv.root_value == 0.0


def test_tree_path_sum_identity_by_hand():
    """Root value telescopes into a log-sum over complete paths."""
    left = node("L", [leaf("a"), leaf("b")], [0.5, 0.5], [1.0, 2.0])
    right = node("R", [leaf("c"), leaf("d")], [0.25, 0.75], [0.0, 3.0])
    tree = DecisionTree(node("root", [left, right], [0.4, 0.6], [0.5, -0.5]))
    lam = 1.7
    paths = [
        (0.4 * 0.5, 0.5 + 1.0),
        (0.4 * 0.5, 0.5 + 2.0),
        (0.6 * 0.25, -0.5 + 0.0),
        (0.6 * 0.75, -0.5 + 3.0),
    ]
    expected = math.log(
        math.fsum(p * math.exp(lam * u) for p, u in paths)
    ) / lam
    tv = value_recursion(tree, TemperatureSpec(lam, 1.0))
    assert tv.root_value == pytest.approx(expected, abs=1e-12)


def test_tree_mixed_tags_use_their_temperatures():
    """A mu-tagged node backs up at mu while the root backs up at lambda."""
    inner = node("env", [leaf("bad"), leaf("good")], [0.5, 0.5], [0.0, 1.0], tag="mu")
    tree = DecisionTree(node("root", [inner, leaf("out")], [0.5, 0.5], [0.0, 0.2]))
    lam, mu = 2.0, -3.0
    v_env = certainty_equivalent(
        dist(["bad", "good"], [0.5, 0.5]), util(["bad", "good"], [0.0, 1.0]), mu
    )
    expected_root = math.log(
        0.5 * math.exp(lam * (0.0 + v_env)) + 0.5 * math.exp(lam * 0.2)
    ) / lam
    tv = value_recursion(tree, TemperatureSpec(lam, mu))
    assert tv.values["root/env"] == pytest.approx(v_env, abs=1e-12)
    assert tv.root_value == pytest.approx(expected_root, abs=1e-12)


def test_tree_rejects_zero_lambda():
    """value_recursion is the one refusal of lambda at the zero limit, in
    the wording every command prints."""
    tree = DecisionTree(node("root", [leaf("a"), leaf("b")], [0.5, 0.5], [0.0, 1.0]))
    with pytest.raises(UnsupportedRegime) as raised:
        value_recursion(tree, TemperatureSpec("zero", 1.0))
    assert str(raised.value) == (
        "lambda at the zero limit pins the policy to its prior; use a finite lambda or the inf limit"
    )


def test_two_stage_to_tree_shape():
    rows = {
        "A": dist(["x", "y"], [0.5, 0.5]),
        "B": dist(["x", "y"], [0.3, 0.7]),
    }
    outs = {a: util(["x", "y"], [0.0, 1.0]) for a in rows}
    tree = two_stage_to_tree(staged(rows, outs))
    pre, paths = tree.orders()[0].tolist(), tree.paths()
    assert [paths[i] for i in pre] == ["root", "root/A", "root/A/x", "root/A/y",
                                       "root/B", "root/B/x", "root/B/y"]
    tags = {paths[i]: tree.tags[i] for i in pre if tree.n_children[i]}
    assert tags == {"root": "lambda", "root/A": "mu", "root/B": "mu"}
