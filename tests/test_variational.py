import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freeutil.model import (
    DomainError,
    EmptySupport,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TemperatureSpec,
    UtilityTable,
    kl_divergence,
)
from freeutil.variational import (
    bounded_control,
    exponential_tilt,
    free_utility,
    free_utility_difference,
    gibbs_measure,
    information_work,
    prob_from_utility_gain,
    utility_gain_from_prob,
)
from freeutil.oracle import simplex_grid_search
from freeutil.problemio import load
from freeutil.sequential import (
    TwoStageSolution,
    certainty_equivalent,
    inner_policy,
    risk_sensitive_argmax,
    solve_regime,
    taylor_ce_approx,
)

GOLDEN = Path(__file__).parent / "golden"
LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def dist(labels, probs):
    return FiniteDistribution(labels, probs)


def util(labels, values):
    return UtilityTable(labels, values)


# ---------------------------------------------------------------------------
# probability <-> utility conversion


def test_certain_event_has_zero_gain():
    assert utility_gain_from_prob(1.0, 1.0) == 0.0
    assert utility_gain_from_prob(1.0, 17.3) == 0.0


def test_gain_at_one_over_e():
    assert utility_gain_from_prob(1.0 / math.e, 2.0) == pytest.approx(-2.0, abs=1e-12)


def test_gain_rejects_bad_probability():
    with pytest.raises(DomainError):
        utility_gain_from_prob(0.0, 1.0)
    with pytest.raises(DomainError):
        utility_gain_from_prob(-0.5, 1.0)
    with pytest.raises(DomainError):
        utility_gain_from_prob(1.5, 1.0)


def test_gain_rejects_bad_conversion_factor():
    with pytest.raises(DomainError):
        utility_gain_from_prob(0.5, 0.0)
    with pytest.raises(DomainError):
        utility_gain_from_prob(0.5, float("inf"))


def test_negative_conversion_factor_flips_sign():
    # adversarial assignment: rare events become attractive
    assert utility_gain_from_prob(0.5, -1.0) == pytest.approx(LOG2, abs=1e-12)


def test_prob_from_gain_identity_points():
    assert prob_from_utility_gain(0.0, 1.0) == 1.0
    assert prob_from_utility_gain(-LOG2, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_prob_from_gain_rejects_overflow():
    with pytest.raises(DomainError):
        prob_from_utility_gain(1.0, 1.0)
    with pytest.raises(DomainError):
        prob_from_utility_gain(-1.0, -1.0)


def test_conversion_round_trip():
    for p in (1e-6, 1e-4, 0.01, 0.1, 0.37, 0.5, 0.99, 1.0):
        for alpha in (0.1, 1.0, 2.0, -1.0, -0.3):
            back = prob_from_utility_gain(utility_gain_from_prob(p, alpha), alpha)
            assert back == pytest.approx(p, rel=1e-12)


def test_information_work_examples():
    assert information_work(1.0, 1.0) == 0.0
    assert information_work(0.5, 1.0) == pytest.approx(LOG2, abs=1e-12)
    assert information_work(0.25, 2.0) == pytest.approx(2.0 * math.log(4.0), abs=1e-12)
    with pytest.raises(DomainError):
        information_work(0.5, -1.0)
    with pytest.raises(DomainError):
        information_work(0.0, 1.0)


EDGE_FLOATS = [None, math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320, 1e308, -1e308]
numbers = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def conversion_calls(draw):
    """One call of the conversion law or the small-mu expansion, each
    numeric argument an edge of the float range or an ordinary float."""
    fn = draw(st.sampled_from(
        [utility_gain_from_prob, prob_from_utility_gain, information_work, taylor_ce_approx]
    ))
    if fn is taylor_ce_approx:
        values = draw(st.lists(
            st.one_of(st.sampled_from([1e308, -1e308]), st.floats(-1e3, 1e3)), min_size=1, max_size=4
        ))
        labels = [str(i) for i in range(len(values))]
        return fn, (FiniteDistribution.uniform(labels), util(labels, values), draw(numbers))
    return fn, (draw(numbers), draw(numbers))


@settings(max_examples=300, deadline=None)
@given(conversion_calls())
@example((utility_gain_from_prob, (math.nan, 1.0)))
@example((prob_from_utility_gain, (math.nan, 1.0)))
@example((information_work, (math.nan, 1.0)))
@example((taylor_ce_approx, (dist(["a", "b"], [0.5, 0.5]), util(["a", "b"], [0.0, 1.0]), math.nan)))
@example((utility_gain_from_prob, (5e-324, 1e308)))
@example((information_work, (5e-324, 1e308)))
@example((taylor_ce_approx, (dist(["a", "b"], [0.5, 0.5]), util(["a", "b"], [1e308, -1e308]), 1.0)))
@example((utility_gain_from_prob, (None, 1.0)))
@example((utility_gain_from_prob, (0.5, None)))
@example((prob_from_utility_gain, (None, 1.0)))
@example((prob_from_utility_gain, (-1.0, None)))
@example((information_work, (None, 1.0)))
@example((information_work, (0.5, None)))
@example((taylor_ce_approx, (dist(["a", "b"], [0.5, 0.5]), util(["a", "b"], [0.0, 1.0]), None)))
def test_conversion_law_returns_a_finite_float_or_raises(call):
    fn, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args)
        except FreeUtilError:
            return
    assert isinstance(result, float) and math.isfinite(result), (fn.__name__, args, result)


@pytest.mark.parametrize("call", [
    lambda: free_utility(GAMBLE[0], GAMBLE[1], None),
    lambda: free_utility_difference(GAMBLE[0], GAMBLE[0], GAMBLE[1], None),
    lambda: risk_sensitive_argmax(load(GOLDEN / "two_stage_basic.json").problem, None),
    lambda: simplex_grid_search(GAMBLE[0], GAMBLE[1], None),
    lambda: simplex_grid_search(GAMBLE[0], GAMBLE[1], 1.0, None),
    lambda: utility_gain_from_prob("half", 1.0),
], ids=["free_utility", "free_utility_difference", "risk_sensitive_argmax",
        "simplex_grid_search", "simplex_grid_search-resolution", "utility_gain_from_prob-str"])
def test_plain_number_arguments_refuse_a_non_number_by_type(call):
    """A plain-number argument that float() cannot read raises DomainError
    naming its type, not float()'s bare TypeError or ValueError."""
    with pytest.raises(DomainError, match=r"must be a real number, got (NoneType|str)$"):
        call()


TEMPERATURE_EDGES = [
    None, math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320, 1e308, -1e308, "zero", "inf", "-inf"
]
temperatures = st.one_of(
    st.sampled_from(TEMPERATURE_EDGES), st.floats(allow_nan=False, allow_infinity=False)
)
GAMBLE = (dist(["a", "b", "c"], [0.5, 0.5, 0.0]), util(["a", "b", "c"], [-1.0, 2.0, 7.0]))


@st.composite
def temperature_calls(draw):
    """One call of a public function taking a temperature, that argument an
    edge of the float range, a limit spelling, None or an ordinary float."""
    fn = draw(st.sampled_from(
        [exponential_tilt, certainty_equivalent, bounded_control, gibbs_measure, TemperatureSpec]
    ))
    if fn is TemperatureSpec:
        return fn, (draw(temperatures), draw(temperatures))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
    labels = [str(i) for i in range(len(values))]
    u = util(labels, values)
    if fn is gibbs_measure:
        return fn, (u, draw(temperatures))
    probs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=len(labels),
                          max_size=len(labels)).filter(any))
    return fn, (dist(labels, np.asarray(probs) / sum(probs)), u, draw(temperatures))


def numbers_of(result) -> list[float]:
    """The numbers a result holds; a log-partition of None (documented at the
    infinite limits) holds none."""
    if isinstance(result, TemperatureSpec):
        return [result.lam.value, result.mu.value]
    if isinstance(result, FiniteDistribution):
        return list(result.probs)
    if isinstance(result, float):
        return [result]
    return [*result.policy.probs, result.value] + (
        [] if result.log_partition is None else [result.log_partition]
    )


@settings(max_examples=400, deadline=None)
@given(temperature_calls())
@example((exponential_tilt, (*GAMBLE, None)))
@example((certainty_equivalent, (*GAMBLE, None)))
@example((bounded_control, (*GAMBLE, None)))
@example((gibbs_measure, (GAMBLE[1], None)))
@example((TemperatureSpec, (1.0, None)))
@example((bounded_control, (*GAMBLE, 1e-320)))
@example((gibbs_measure, (GAMBLE[1], -1e-320)))
@example((exponential_tilt, (dist(["a", "b"], [1.0, 0.0]), util(["a", "b"], [2.0, 0.0]), 1e308)))
def test_temperature_arguments_give_finite_numbers_or_raise(call):
    """Each call returns finite numbers or raises a FreeUtilError, without a
    warning; an error on finite temperatures names no value the caller did
    not pass, such as an overflowed reciprocal."""
    fn, args = call
    temps = [a for a in args if not isinstance(a, (FiniteDistribution, UtilityTable))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args)
        except FreeUtilError as exc:
            if all(isinstance(t, float) and math.isfinite(t) for t in temps):
                assert not re.search(r"got -?(inf|nan)\b", str(exc)), (fn.__name__, args, exc)
            return
    assert all(map(math.isfinite, numbers_of(result))), (fn.__name__, args, result)


def solve_regime_at(problem, lam, mu):
    return solve_regime(problem, TemperatureSpec(lam, mu))


TWO_STAGE_GOLDENS = sorted(GOLDEN.glob("two_stage_*.json"))
BASIC = load(GOLDEN / "two_stage_basic.json").problem
# Each action's channel row supports one outcome.
DETERMINISTIC = load(GOLDEN / "two_stage_deterministic.json").problem


@st.composite
def two_stage_entry_calls(draw):
    """One call of a public two-stage entry point, or of
    free_utility_difference on one of its channel rows, on a golden
    two-stage problem; each temperature an edge of the float range, a limit
    spelling, None or an ordinary float."""
    problem = load(draw(st.sampled_from(TWO_STAGE_GOLDENS))).problem
    action = draw(st.sampled_from(problem.actions))
    fn = draw(st.sampled_from(
        [free_utility_difference, inner_policy, solve_regime_at, risk_sensitive_argmax]
    ))
    if fn is free_utility_difference:
        row, u = problem.channel[action], problem.outcome_utility[action]
        return fn, (row, exponential_tilt(row, u, 1.0).policy, u, draw(temperatures))
    if fn is inner_policy:
        return fn, (problem, action, draw(temperatures))
    if fn is solve_regime_at:
        return fn, (problem, draw(temperatures), draw(temperatures))
    return fn, (problem, draw(temperatures))


def two_stage_numbers(result) -> list[float]:
    """The numbers a two-stage result holds; a log-normalizer of None
    (documented at the infinite limits) holds none."""
    if isinstance(result, TwoStageSolution):
        beliefs = [p for row in result.outcome_beliefs.values() for p in row.probs]
        log_zs = [z for z in [result.log_z1, *result.log_z2.values()] if z is not None]
        return [*result.action_policy.probs, *beliefs, *log_zs, *result.values.values(),
                result.value, result.achieved_c1, result.achieved_c2]
    if isinstance(result, tuple) and isinstance(result[0], str):  # risk_sensitive_argmax
        return [result[1]]
    if isinstance(result, tuple):  # inner_policy
        return list(result[0].probs) + ([] if result[1] is None else [result[1]])
    return [result.expected_utility, result.information_cost, result.total, result.achieved_kl]


@settings(max_examples=300, deadline=None)
@given(two_stage_entry_calls())
@example((solve_regime_at, (BASIC, 1e308, 1e308)))
@example((solve_regime_at, (BASIC, 5e-324, -1e-320)))
@example((solve_regime_at, (BASIC, "inf", None)))
@example((inner_policy, (BASIC, "risky", -1e308)))
@example((risk_sensitive_argmax, (BASIC, 5e-324)))
@example((risk_sensitive_argmax, (BASIC, -1e308)))
@example((solve_regime_at, (DETERMINISTIC, "inf", 1e308)))  # log-partition 3e308
@example((free_utility_difference, (dist(["a", "b"], [0.99, 0.01]), dist(["a", "b"], [0.0, 1.0]),
                                    util(["a", "b"], [0.0, 1.0]), 1e308)))  # cost 4.6e308
def test_two_stage_entry_points_give_finite_numbers_or_raise(call):
    """Each call returns finite numbers or raises a FreeUtilError, without a
    warning."""
    fn, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*args)
        except FreeUtilError:
            return
    assert all(map(math.isfinite, two_stage_numbers(result))), (fn.__name__, args, result)


# ---------------------------------------------------------------------------
# the tilted measure


def test_gibbs_flat_utilities_give_uniform():
    g = gibbs_measure(util(["a", "b", "c"], [0.0, 0.0, 0.0]), 1.0)
    assert g.probs == (1 / 3, 1 / 3, 1 / 3)


def test_gibbs_log2_gap_gives_one_third_two_thirds():
    g = gibbs_measure(util(["a", "b"], [0.0, LOG2]), 1.0)
    assert np.allclose(g.probs, [1 / 3, 2 / 3], atol=1e-15)


def test_gibbs_zero_limit_uniform_over_maximal_set():
    g = gibbs_measure(util(["a", "b", "c"], [1.0, 2.0, 2.0]), Temperature.zero())
    assert g.probs == (0.0, 0.5, 0.5)


def test_gibbs_infinite_limit_uniform_everywhere():
    g = gibbs_measure(util(["a", "b"], [5.0, -3.0]), Temperature.pos_inf())
    assert g.probs == (0.5, 0.5)


def test_gibbs_accepts_plain_float_limits():
    assert gibbs_measure(util(["a", "b"], [1.0, 0.0]), 0.0).probs == (1.0, 0.0)
    assert gibbs_measure(util(["a", "b"], [1.0, 0.0]), float("inf")).probs == (0.5, 0.5)


def test_gibbs_negative_temperature_prefers_minima():
    g = gibbs_measure(util(["a", "b"], [0.0, LOG2]), -1.0)
    assert np.allclose(g.probs, [2 / 3, 1 / 3], atol=1e-15)


def test_gibbs_extreme_utilities_stay_finite():
    g = gibbs_measure(util(["a", "b"], [0.0, 5000.0]), 1.0)
    assert g.probs[1] == 1.0
    g = gibbs_measure(util(["a", "b"], [-4000.0, 4000.0]), 0.5)
    assert math.isfinite(sum(g.probs))


def test_gibbs_shift_invariance_exact():
    # dyadic constants shift log-weights without any rounding at all
    u = util(["a", "b"], [0.0, 0.5])
    assert gibbs_measure(u.shifted(2.0), 1.0).probs == gibbs_measure(u, 1.0).probs
    # a generic constant may round differently in the exponent
    u2 = util(["a", "b", "c"], [0.3, -0.2, 1.1])
    g1 = gibbs_measure(u2, 0.7)
    g2 = gibbs_measure(u2.shifted(0.137), 0.7)
    assert np.allclose(g1.probs, g2.probs, atol=1e-12)


# ---------------------------------------------------------------------------
# free utility functional


def test_free_utility_pure_entropy_term():
    for n in (2, 3, 5):
        labels = [f"o{i}" for i in range(n)]
        p = FiniteDistribution.uniform(labels)
        u = util(labels, [0.0] * n)
        assert free_utility(p, u, 1.0) == pytest.approx(math.log(n), abs=1e-12)


def test_free_utility_point_mass_zero():
    p = dist(["a", "b"], [1.0, 0.0])
    assert free_utility(p, util(["a", "b"], [0.0, LOG2]), 1.0) == 0.0


def test_log_partition_identity_small_case():
    u = util(["a", "b"], [0.0, LOG2])
    value = free_utility(gibbs_measure(u, 1.0), u, 1.0)
    assert value == pytest.approx(LOG3, abs=1e-9)


def test_log_partition_identity_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        labels = [f"o{i}" for i in range(n)]
        u = util(labels, rng.normal(scale=3.0, size=n))
        alpha = float(rng.uniform(0.2, 5.0))
        value = free_utility(gibbs_measure(u, alpha), u, alpha)
        reference = alpha * math.log(
            math.fsum(math.exp(v / alpha) for v in u.values)
        )
        assert value == pytest.approx(reference, abs=1e-9)


def test_free_utility_maximal_at_gibbs():
    """No simplex sample beats the tilted measure; clear gaps are strict."""
    rng = np.random.default_rng(41)
    for u_vals, alpha in [
        ([0.0, LOG2], 1.0),
        ([1.0, -1.0, 0.5], 0.5),
        ([0.0, 0.0, 0.0, 2.0], 2.0),
    ]:
        labels = [f"o{i}" for i in range(len(u_vals))]
        u = util(labels, u_vals)
        star = gibbs_measure(u, alpha)
        best = free_utility(star, u, alpha)
        for _ in range(1000):
            p = dist(labels, rng.dirichlet(np.ones(len(u_vals))))
            candidate = free_utility(p, u, alpha)
            assert candidate <= best + 1e-12
            tv = 0.5 * sum(abs(a - b) for a, b in zip(p.probs, star.probs))
            if tv > 1e-3:
                assert candidate < best


def test_free_utility_shifts_by_constant():
    rng = np.random.default_rng(9)
    labels = ["a", "b", "c"]
    p = dist(labels, rng.dirichlet(np.ones(3)))
    u = util(labels, [0.4, -1.2, 2.0])
    base = free_utility(p, u, 1.3)
    assert free_utility(p, u.shifted(5.0), 1.3) == pytest.approx(base + 5.0, abs=1e-12)


def test_free_utility_rejects_bad_alpha():
    p = dist(["a", "b"], [0.5, 0.5])
    u = util(["a", "b"], [0.0, 1.0])
    with pytest.raises(DomainError):
        free_utility(p, u, 0.0)
    with pytest.raises(DomainError):
        free_utility(p, u, -1.0)


# ---------------------------------------------------------------------------
# bounded control


def test_constant_utilities_return_prior_bitwise():
    prior = dist(["a", "b", "c"], [0.2, 0.5, 0.3])
    for c in (0.0, -3.7, 12.0):
        out = bounded_control(prior, util(["a", "b", "c"], [c, c, c]), 0.7)
        assert out.probs == prior.probs


def test_control_uniform_prior_log2_gap():
    prior = FiniteDistribution.uniform(["a", "b"])
    out = bounded_control(prior, util(["a", "b"], [0.0, LOG2]), 1.0)
    assert np.allclose(out.probs, [1 / 3, 2 / 3], atol=1e-15)


def test_control_infinite_temperature_returns_prior():
    prior = dist(["a", "b"], [0.9, 0.1])
    out = bounded_control(prior, util(["a", "b"], [0.0, 10.0]), Temperature.pos_inf())
    assert out.probs == (0.9, 0.1)


def test_control_zero_temperature_argmax_on_support():
    prior = dist(["a", "b", "c"], [0.5, 0.5, 0.0])
    u = util(["a", "b", "c"], [1.0, 2.0, 99.0])
    out = bounded_control(prior, u, Temperature.zero())
    # "c" has the top utility but no prior mass, so "b" wins
    assert out.probs == (0.0, 1.0, 0.0)


def test_control_support_never_grows():
    rng = np.random.default_rng(17)
    labels = ["a", "b", "c", "d"]
    for _ in range(50):
        weights = rng.uniform(0.1, 1.0, 4)
        weights[int(rng.integers(0, 4))] = 0.0
        prior = dist(labels, weights / weights.sum())
        u = util(labels, rng.normal(size=4))
        out = bounded_control(prior, u, float(rng.uniform(0.1, 5.0)))
        for p_out, p_in in zip(out.probs, prior.probs):
            if p_in == 0.0:
                assert p_out == 0.0


def test_control_matches_gibbs_for_uniform_prior():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        labels = [f"o{i}" for i in range(n)]
        u = util(labels, rng.normal(size=n))
        alpha = float(rng.uniform(0.2, 4.0))
        a = bounded_control(FiniteDistribution.uniform(labels), u, alpha)
        b = gibbs_measure(u, alpha)
        assert a.probs == b.probs


def test_control_shift_invariance():
    prior = dist(["a", "b"], [0.3, 0.7])
    u = util(["a", "b"], [0.0, 0.5])
    assert (
        bounded_control(prior, u.shifted(2.0), 1.0).probs
        == bounded_control(prior, u, 1.0).probs
    )


def test_control_kl_non_increasing_in_temperature():
    prior = dist(["a", "b", "c"], [0.6, 0.3, 0.1])
    u = util(["a", "b", "c"], [0.0, 1.0, 3.0])
    grid = [0.1 * k for k in range(1, 101)]
    kls = [kl_divergence(bounded_control(prior, u, a), prior) for a in grid]
    for lo, hi in zip(kls, kls[1:]):
        assert hi <= lo + 1e-12


def test_control_rejects_negative_temperature():
    prior = dist(["a", "b"], [0.5, 0.5])
    u = util(["a", "b"], [0.0, 1.0])
    with pytest.raises(DomainError):
        bounded_control(prior, u, -1.0)
    with pytest.raises(DomainError):
        bounded_control(prior, u, Temperature.neg_inf())


def test_tilt_rejects_empty_support_after_masking():
    # a prior cannot be all-zero by construction, so empty support arises
    # only from degenerate inputs to the raw tilt
    prior = dist(["a", "b"], [1.0, 0.0])
    out = exponential_tilt(prior, util(["a", "b"], [0.0, 100.0]), Temperature.finite(1.0))
    assert out.policy.probs == (1.0, 0.0)


def test_empty_support_error_type_exists():
    with pytest.raises(EmptySupport):
        FiniteDistribution([], [])


# ---------------------------------------------------------------------------
# free-utility difference reports


def test_difference_no_move_no_cost():
    prior = dist(["a", "b"], [0.4, 0.6])
    u = util(["a", "b"], [1.0, 3.0])
    report = free_utility_difference(prior, prior, u, 1.0)
    assert report.information_cost == 0.0
    assert report.achieved_kl == 0.0
    assert report.total == report.expected_utility == pytest.approx(2.2, abs=1e-12)


def test_difference_log_partition_decomposition():
    prior = FiniteDistribution.uniform(["a", "b"])
    posterior = dist(["a", "b"], [1 / 3, 2 / 3])
    u = util(["a", "b"], [0.0, LOG2])
    report = free_utility_difference(prior, posterior, u, 1.0)
    assert report.total == pytest.approx(LOG3 - LOG2, abs=1e-12)
    assert report.total == pytest.approx(
        report.expected_utility - report.information_cost, abs=1e-12
    )


def test_difference_negligible_temperature_is_pure_utility():
    prior = FiniteDistribution.uniform(["a", "b"])
    posterior = dist(["a", "b"], [0.2, 0.8])
    u = util(["a", "b"], [0.0, 1.0])
    report = free_utility_difference(prior, posterior, u, 1e-9)
    assert abs(report.total - report.expected_utility) < 1e-6


def test_difference_is_maximized_by_bounded_control():
    rng = np.random.default_rng(37)
    prior = dist(["a", "b", "c"], [0.5, 0.25, 0.25])
    u = util(["a", "b", "c"], [0.0, 1.0, -0.5])
    alpha = 0.8
    star = bounded_control(prior, u, alpha)
    best = free_utility_difference(prior, star, u, alpha).total
    for _ in range(500):
        p = dist(["a", "b", "c"], rng.dirichlet(np.ones(3)))
        assert free_utility_difference(prior, p, u, alpha).total <= best + 1e-12


@st.composite
def control_instances(draw):
    """A prior with zero coordinates, a utility with ties, a temperature and
    a policy perturbed from the solution within the prior's support."""
    n = draw(st.integers(1, 6))
    labels = [f"o{i}" for i in range(n)]
    w = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n))
    if not any(w):
        w[draw(st.integers(0, n - 1))] = 1.0
    total = math.fsum(w)
    prior = dist(labels, [x / total for x in w])
    utility = st.one_of(st.sampled_from([0.0, 1.0, -2.0]), st.floats(-100.0, 100.0))
    u = util(labels, draw(st.lists(utility, min_size=n, max_size=n)))
    alpha = draw(st.floats(0.05, 20.0))
    q = [draw(st.floats(0.0, 1.0)) if p > 0.0 else 0.0 for p in prior.probs]
    if not any(q):
        q = list(prior.probs)
    t = draw(st.sampled_from([1e-6, 1e-3, 0.1, 0.5, 1.0]))
    return prior, u, alpha, [x / math.fsum(q) for x in q], t


@settings(max_examples=200, deadline=None)
@given(control_instances())
def test_bounded_control_maximizes_the_free_utility(instance):
    """The variational principle: no policy on the prior's support beats the
    tilted prior's Σ P·U − α·KL(P‖P0)."""
    prior, u, alpha, q, t = instance
    star = bounded_control(prior, u, alpha)
    best = free_utility_difference(prior, star, u, alpha).total
    moved = dist(prior.outcomes, [(1.0 - t) * s + t * x for s, x in zip(star.probs, q)])
    tol = 1e-12 * (1.0 + max(map(abs, u.values)))
    assert free_utility_difference(prior, moved, u, alpha).total <= best + tol


def test_estimation_returns_target():
    # The estimation branch minimizes KL(p_f‖·): the target itself scores
    # exactly zero and any other estimate scores above it.
    p = dist(["a", "b"], [0.3, 0.7])
    point = FiniteDistribution.point_mass(["a", "b"], "a")
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(point, point) == 0.0
    assert kl_divergence(point, p) == pytest.approx(math.log(1 / 0.3), abs=1e-12)
