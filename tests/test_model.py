import dataclasses
import itertools
import math
import sys
from operator import attrgetter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeutil import verify
from freeutil.model import (
    ControlProblem,
    CyclicTree,
    DecisionTree,
    DomainError,
    DuplicateLabel,
    EmptySupport,
    FiniteDistribution,
    FreeUtilError,
    LabelMismatch,
    NegativeProbability,
    NotNormalized,
    SupportMismatch,
    Temperature,
    TemperatureSpec,
    TreeNode,
    TwoStageProblem,
    UnknownAction,
    UnknownTemperatureTag,
    UtilityTable,
    _VALID_TAGS,
    _check_node_name,
    _require,
    entropy,
    expectation,
    kl_divergence,
    validate,
)
from freeutil.problemio import ProblemFile, dumps, load, loads
from freeutil.sequential import certainty_equivalent, taylor_ce_approx
from freeutil.variational import free_utility, free_utility_difference, gibbs_measure


GOLDEN = Path(__file__).parent / "golden"


def dist(labels, probs):
    return FiniteDistribution(labels, probs)


def util(labels, values):
    return UtilityTable(labels, values)


# ---------------------------------------------------------------------------
# distribution construction and validation


def test_valid_symmetric_distribution():
    d = dist(["a", "b"], [0.5, 0.5])
    validate(d)
    assert d.probs == (0.5, 0.5)


def test_sum_above_tolerance_rejected():
    with pytest.raises(NotNormalized):
        dist(["a", "b"], [0.5, 0.6])


def test_negative_probability_rejected():
    with pytest.raises(NegativeProbability):
        dist(["a", "b"], [1.2, -0.2])


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel):
        dist(["a", "a"], [0.5, 0.5])


def test_empty_distribution_rejected():
    with pytest.raises(EmptySupport):
        dist([], [])
    with pytest.raises(EmptySupport):
        FiniteDistribution.uniform([])


def test_length_mismatch_rejected():
    with pytest.raises(LabelMismatch):
        dist(["a", "b"], [1.0])


def test_non_finite_probability_rejected():
    with pytest.raises(DomainError):
        dist(["a", "b"], [float("nan"), 1.0])


def test_tiny_imbalance_renormalized_once():
    # within the 1e-9 window the vector is accepted and snapped to sum one
    d = dist(["a", "b"], [0.5, 0.5 + 4e-10])
    assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)


def test_point_mass_and_uniform_constructors():
    u = FiniteDistribution.uniform(["x", "y", "z", "w"])
    assert u.probs == (0.25, 0.25, 0.25, 0.25)
    p = FiniteDistribution.point_mass(["x", "y"], "y")
    assert p.probs == (0.0, 1.0)
    assert p.support() == ("y",)
    with pytest.raises(LabelMismatch):
        FiniteDistribution.point_mass(["x", "y"], "q")


def test_mapping_round_trip():
    d = FiniteDistribution.from_mapping({"a": 0.3, "b": 0.7})
    assert d.as_mapping() == {"a": 0.3, "b": 0.7}
    assert d.prob("b") == 0.7
    with pytest.raises(LabelMismatch):
        d.prob("zzz")


# ---------------------------------------------------------------------------
# utility tables


def test_utility_requires_finite_values():
    with pytest.raises(DomainError):
        util(["a"], [float("inf")])


def test_utility_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel, match=r"^duplicate outcome label in utility table$"):
        util(["a", "b", "a"], [0.0, 1.0, 2.0])


def test_utility_from_mapping_is_the_constructor_on_its_items():
    mapping = {"b": 2.0, "a": -1.0, "c": 0.5}
    u = UtilityTable.from_mapping(mapping)
    assert u == util(["b", "a", "c"], [2.0, -1.0, 0.5]) and u.outcomes == ("b", "a", "c")
    with pytest.raises(DomainError, match=r"^utility of 'a' is not finite: nan$"):
        UtilityTable.from_mapping({"b": 2.0, "a": math.nan})


def test_utility_alignment_permutes_values():
    u = util(["a", "b", "c"], [1.0, 2.0, 3.0])
    assert np.array_equal(u.aligned_to(["c", "a", "b"]), [3.0, 1.0, 2.0])
    with pytest.raises(LabelMismatch):
        u.aligned_to(["a", "b", "x"])


def test_utility_shift():
    u = util(["a", "b"], [1.0, 2.0]).shifted(10.0)
    assert u.values == (11.0, 12.0)


# ---------------------------------------------------------------------------
# kl divergence


def test_kl_identical_is_zero():
    p = dist(["a", "b"], [0.3, 0.7])
    assert kl_divergence(p, p) == 0.0


def test_kl_point_mass_against_uniform_is_log2():
    p = dist(["a", "b"], [1.0, 0.0])
    q = dist(["a", "b"], [0.5, 0.5])
    assert kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-12)


def test_kl_zero_support_violation():
    p = dist(["a", "b"], [0.5, 0.5])
    q = dist(["a", "b"], [1.0, 0.0])
    with pytest.raises(SupportMismatch):
        kl_divergence(p, q)


def test_kl_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        labels = [f"o{i}" for i in range(n)]
        p = dist(labels, rng.dirichlet(np.ones(n)))
        q = dist(labels, rng.dirichlet(np.ones(n)))
        d = kl_divergence(p, q)
        assert d >= 0.0
        if max(abs(a - b) for a, b in zip(p.probs, q.probs)) > 1e-9:
            assert d > 0.0
        assert kl_divergence(p, p) == 0.0


def test_kl_aligns_permuted_labels():
    p = dist(["a", "b"], [0.25, 0.75])
    q = dist(["b", "a"], [0.5, 0.5])
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("q0", [5e-324, 1e-310, 2.5e-308, 1e-300])
@pytest.mark.parametrize("p0", [1.0, 0.25, 1e-200])
def test_kl_against_a_tiny_reference_probability_is_finite(p0, q0):
    """p/q may overflow for a subnormal q; the value is still log p - log q,
    checked against mpmath, and is bit for bit the ratio form, in numpy's
    log as the row kernel takes it, where p/q does not overflow."""
    p = dist(["a", "b"], [p0, 1.0 - p0])
    q = dist(["a", "b"], [q0, 1.0])
    mpmath.mp.dps = 50
    exact = sum(
        mpmath.mpf(pi) * mpmath.log(mpmath.mpf(pi) / mpmath.mpf(qi))
        for pi, qi in zip(p.probs, q.probs) if pi > 0.0
    )
    got = kl_divergence(p, q)
    assert got == pytest.approx(float(exact), rel=1e-14)
    support = np.array(p.probs) > 0.0
    p_arr, q_arr = np.array(p.probs)[support], np.array(q.probs)[support]
    with np.errstate(over="ignore"):
        in_range = (p_arr / q_arr < math.inf).all()
    if in_range:
        ratio_form = math.fsum((p_arr * np.log(p_arr / q_arr)).tolist())
        assert got == max(ratio_form, 0.0)


# The error bound of kl_divergence, fixed from float64 before any run: with
# u = 2**-53, the ratio, the log and the product each round once, so a term
# p·log(p/q) is off by at most about p·u·(1 + 3·|log p/q|) (the log p - log q
# form past the float range, by less: there |log p/q| > 700 and |log p| < 37),
# and the math.fsum of the terms rounds once more. 8·u·(1 + Σ p·|log p/q|)
# bounds the sum with room.
KL_ERROR_SCALE = 8 * 2.0**-53

SMALL_Q = [5e-324, 1e-320, 1e-310, 2.5e-308]


@st.composite
def kl_pairs(draw):
    """Distributions p and q over one label set: zeros in p, subnormal and
    normal entries in q, and q zero only where p is."""
    n = draw(st.integers(1, 6))
    weight = st.one_of(st.sampled_from([0.0, 1, 0.5]), st.floats(1e-6, 10.0))
    p = draw(st.lists(weight, min_size=n, max_size=n))
    if not any(p):
        p[0] = 1
    q_entry = st.one_of(st.sampled_from(SMALL_Q), st.floats(1e-300, 10.0))
    q = [draw(q_entry if pi or draw(st.booleans()) else st.just(0.0)) for pi in p]
    labels = [f"o{i}" for i in range(n)]
    return dist(labels, [w / math.fsum(p) for w in p]), dist(labels, [w / math.fsum(q) for w in q])


@given(kl_pairs())
def test_kl_is_within_its_error_bound_of_mpmath(pair):
    p, q = pair
    unsupported = [o for o, pi, qi in zip(p.outcomes, p.probs, q.probs) if pi > 0.0 and qi == 0.0]
    if unsupported:  # a subnormal q entry that normalising took to 0
        with pytest.raises(SupportMismatch, match=f"q\\({unsupported[0]!r}\\) = 0"):
            kl_divergence(p, q)
        return
    mpmath.mp.dps = 50
    terms = [
        mpmath.mpf(pi) * mpmath.log(mpmath.mpf(pi) / mpmath.mpf(qi))
        for pi, qi in zip(p.probs, q.probs) if pi > 0.0
    ]
    exact = mpmath.fsum(terms)
    bound = KL_ERROR_SCALE * (1 + float(mpmath.fsum(map(abs, terms))))
    got = kl_divergence(p, q)
    assert got >= 0.0
    assert abs(mpmath.mpf(got) - exact) <= bound


# ---------------------------------------------------------------------------
# entropy


def test_entropy_deterministic_zero():
    assert entropy(dist(["a", "b"], [1.0, 0.0])) == 0.0


def test_entropy_uniform_four_is_log4():
    d = FiniteDistribution.uniform(["a", "b", "c", "d"])
    assert entropy(d) == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_dyadic_example():
    d = dist(["a", "b", "c"], [0.5, 0.25, 0.25])
    assert entropy(d) == pytest.approx(1.5 * math.log(2), abs=1e-12)


def test_entropy_maximal_at_uniform():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        labels = [f"o{i}" for i in range(n)]
        cap = entropy(FiniteDistribution.uniform(labels))
        assert cap == pytest.approx(math.log(n), abs=1e-12)
        for _ in range(50):
            d = dist(labels, rng.dirichlet(np.ones(n)))
            assert entropy(d) <= cap + 1e-12


# ---------------------------------------------------------------------------
# expectation


def test_expectation_midpoint():
    d = dist(["lo", "hi"], [0.5, 0.5])
    assert expectation(d, util(["lo", "hi"], [1.0, 3.0])) == 2.0


def test_expectation_point_mass():
    d = dist(["a", "b"], [1.0, 0.0])
    assert expectation(d, util(["a", "b"], [7.0, -2.0])) == 7.0


def test_expectation_weighted():
    d = dist(["a", "b"], [0.25, 0.75])
    assert expectation(d, util(["a", "b"], [0.0, 4.0])) == 3.0


def test_expectation_label_mismatch():
    d = dist(["a", "b"], [0.5, 0.5])
    with pytest.raises(LabelMismatch):
        expectation(d, util(["a", "x"], [0.0, 1.0]))


def test_expectation_permutation_invariant():
    rng = np.random.default_rng(3)
    labels = ["a", "b", "c", "d"]
    probs = rng.dirichlet(np.ones(4))
    vals = rng.normal(size=4)
    base = expectation(dist(labels, probs), util(labels, vals))
    for _ in range(10):
        perm = rng.permutation(4)
        shuffled = expectation(
            dist([labels[i] for i in perm], [probs[i] for i in perm]),
            util(labels, vals),
        )
        assert shuffled == pytest.approx(base, abs=1e-12)


def test_measures_continuous_under_small_perturbation():
    """An epsilon-size change in probs moves each measure by O(eps log 1/eps)."""
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(20):
        n = int(rng.integers(2, 5))
        labels = [f"o{i}" for i in range(n)]
        base = rng.dirichlet(np.ones(n)) * (1 - 2 * n * eps) + eps
        base = base / base.sum()
        bump = rng.dirichlet(np.ones(n)) * eps
        other = (base + bump) / (base + bump).sum()
        p, p2 = dist(labels, base), dist(labels, other)
        u = util(labels, rng.normal(size=n))
        w = rng.dirichlet(np.ones(n)) + 0.1
        q = dist(labels, w / w.sum())
        assert abs(entropy(p) - entropy(p2)) < 1e-4
        assert abs(expectation(p, u) - expectation(p2, u)) < 1e-4
        assert abs(kl_divergence(p, q) - kl_divergence(p2, q)) < 1e-4


# ---------------------------------------------------------------------------
# temperatures


def test_temperature_parse_spellings():
    assert Temperature.parse("inf").is_pos_inf
    assert Temperature.parse("-inf").is_neg_inf
    assert Temperature.parse("zero").is_zero
    assert Temperature.parse("2.5").finite_value == 2.5
    assert Temperature.parse(" 1 ").finite_value == 1.0


def test_temperature_parse_rejects_garbage():
    with pytest.raises(DomainError):
        Temperature.parse("warm")
    with pytest.raises(DomainError):
        Temperature.parse("Infinity")
    with pytest.raises(DomainError):
        Temperature.parse("nan")


def test_temperature_coerce_canonicalizes_floats():
    assert Temperature.coerce(0.0).is_zero
    assert Temperature.coerce(float("inf")).is_pos_inf
    assert Temperature.coerce(float("-inf")).is_neg_inf
    assert Temperature.coerce(3.0).finite_value == 3.0
    with pytest.raises(DomainError):
        Temperature.coerce(float("nan"))


def test_temperature_spell_round_trip():
    for text in ("inf", "-inf", "zero", "0.25", "-3"):
        t = Temperature.parse(text)
        assert Temperature.parse(t.spell()) == t


def test_temperature_reciprocal_pairs_limits():
    assert Temperature.finite(4.0).reciprocal().finite_value == 0.25
    assert Temperature.zero().reciprocal().is_pos_inf
    assert Temperature.pos_inf().reciprocal().is_zero
    with pytest.raises(DomainError):
        Temperature.neg_inf().reciprocal()


def test_temperature_finite_value_guard():
    with pytest.raises(DomainError):
        _ = Temperature.zero().finite_value


def test_temperature_spec_domain():
    spec = TemperatureSpec(1.0, -2.0)
    assert spec.lam.finite_value == 1.0
    assert spec.mu.finite_value == -2.0
    assert TemperatureSpec("inf", "-inf").mu.is_neg_inf
    # the zero limit is representable for lambda (solvers reject it later)
    assert TemperatureSpec("zero", 1.0).lam.is_zero
    with pytest.raises(DomainError):
        TemperatureSpec(-1.0, 1.0)
    with pytest.raises(DomainError):
        TemperatureSpec("-inf", 1.0)


# ---------------------------------------------------------------------------
# two-stage problems


def two_by_two():
    actions = ["A", "B"]
    outcomes = ["x", "y"]
    return TwoStageProblem(
        actions,
        outcomes,
        FiniteDistribution.uniform(actions),
        {a: FiniteDistribution.uniform(outcomes) for a in actions},
        util(actions, [0.0, 0.0]),
        {a: util(outcomes, [0.0, 1.0]) for a in actions},
    )


def test_two_stage_row_lookup():
    p = two_by_two()
    assert p.channel_row("A").probs == (0.5, 0.5)
    assert p.outcome_utility_row("B").values == (0.0, 1.0)
    with pytest.raises(UnknownAction):
        p.channel_row("C")
    with pytest.raises(UnknownAction):
        p.outcome_utility_row("C")


def test_two_stage_rejects_missing_channel_row():
    actions = ["A", "B"]
    outcomes = ["x", "y"]
    with pytest.raises(LabelMismatch):
        TwoStageProblem(
            actions,
            outcomes,
            FiniteDistribution.uniform(actions),
            {"A": FiniteDistribution.uniform(outcomes)},
            util(actions, [0.0, 0.0]),
            {a: util(outcomes, [0.0, 1.0]) for a in actions},
        )


def test_two_stage_rejects_misordered_utility():
    actions = ["A", "B"]
    outcomes = ["x", "y"]
    with pytest.raises(LabelMismatch):
        TwoStageProblem(
            actions,
            outcomes,
            FiniteDistribution.uniform(actions),
            {a: FiniteDistribution.uniform(outcomes) for a in actions},
            util(["B", "A"], [0.0, 0.0]),
            {a: util(outcomes, [0.0, 1.0]) for a in actions},
        )


def test_control_problem_names_a_prior_that_is_not_a_distribution():
    with pytest.raises(DomainError, match="^prior must be a FiniteDistribution, got list$"):
        ControlProblem([0.5, 0.5], util(["a", "b"], [0.0, 1.0]))


def test_two_stage_problem_names_a_prior_action_that_is_not_a_distribution():
    actions, outcomes = ["A", "B"], ["x", "y"]
    with pytest.raises(DomainError, match="^prior_action must be a FiniteDistribution, got list$"):
        TwoStageProblem(
            actions,
            outcomes,
            [0.5, 0.5],
            {a: FiniteDistribution.uniform(outcomes) for a in actions},
            util(actions, [0.0, 0.0]),
            {a: util(outcomes, [0.0, 1.0]) for a in actions},
        )


def test_two_stage_problem_names_the_action_of_a_channel_row_that_is_not_a_distribution():
    actions, outcomes = ["A", "B"], ["x", "y"]
    message = "^channel row for 'B' must be a FiniteDistribution, got list$"
    with pytest.raises(DomainError, match=message):
        TwoStageProblem(
            actions,
            outcomes,
            FiniteDistribution.uniform(actions),
            {"A": FiniteDistribution.uniform(outcomes), "B": [0.5, 0.5]},
            util(actions, [0.0, 0.0]),
            {a: util(outcomes, [0.0, 1.0]) for a in actions},
        )


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


def test_tree_paths_and_leaf_count():
    t = DecisionTree(
        node(
            "root",
            [node("L", [leaf("a"), leaf("b")], [0.5, 0.5], [1.0, 2.0]), leaf("R")],
            [0.4, 0.6],
            [0.0, 3.0],
        )
    )
    paths = t.paths()
    assert [paths[i] for i in t.orders()[0]] == ["root", "root/L", "root/L/a", "root/L/b", "root/R"]
    assert t.n_leaves() == 3


def test_tree_rejects_shared_node_object():
    # a diamond: the same leaf object reachable through two parents
    shared = leaf("s")
    left = node("L", [shared], [1.0], [0.0])
    right = node("R", [shared], [1.0], [0.0])
    with pytest.raises(CyclicTree):
        DecisionTree(node("root", [left, right], [0.5, 0.5], [0.0, 0.0]))


def test_tree_rejects_slash_in_node_name():
    # "a/b" under the root and "a" -> "b" would both be the path "r/a/b"
    tree = node(
        "r",
        [leaf("a/b"), node("a", [leaf("b")], [1.0], [2.0])],
        [0.5, 0.5],
        [1.0, 0.0],
    )
    with pytest.raises(DomainError, match="'/'"):
        DecisionTree(tree)


def test_tree_rejects_unknown_tag():
    with pytest.raises(UnknownTemperatureTag):
        DecisionTree(
            node("root", [leaf("a"), leaf("b")], [0.5, 0.5], [0.0, 0.0], tag="beta")
        )


def test_tree_rejects_a_leaf_with_an_unknown_tag_in_pre_order():
    """A leaf's tag is checked as an internal node's is, the first bad tag in
    pre-order named; a leaf's known tag reads back as "lambda"."""
    bad_leaf = TreeNode("x", temperature_tag=5)
    bad_node = node("b", [leaf("y")], [1.0], [0.0], tag="beta")
    for kids, name, tag in [([bad_leaf, bad_node], "x", 5), ([bad_node, bad_leaf], "b", "beta")]:
        named = f"node {name!r} has temperature tag {tag!r}"
        with pytest.raises(UnknownTemperatureTag, match=named):
            DecisionTree(node("r", kids, [0.5, 0.5], [0.0, 0.0]))
    kids = [TreeNode("x", temperature_tag="mu"), leaf("y")]
    tree = DecisionTree(node("r", kids, [0.5, 0.5], [0.0, 1.0]))
    assert tree.tags == ("lambda", "lambda", "lambda")


def test_tree_rejects_leaf_with_priors():
    bad_leaf = TreeNode("a", (), FiniteDistribution(["x"], [1.0]), None)
    with pytest.raises(LabelMismatch):
        DecisionTree(
            TreeNode(
                "root",
                (bad_leaf, leaf("b")),
                FiniteDistribution(["a", "b"], [0.5, 0.5]),
                UtilityTable(["a", "b"], [0.0, 0.0]),
            )
        )


def test_tree_names_the_node_whose_child_priors_are_not_a_distribution():
    tree = node("r", [node("a", [leaf("x")], [1.0], [0.0]), leaf("b")], [0.5, 0.5], [0.0, 0.0])
    bad = dataclasses.replace(tree.children[0], child_prior=[1.0])
    message = "^the child priors of 'a' must be a FiniteDistribution, got list$"
    with pytest.raises(DomainError, match=message):
        DecisionTree(dataclasses.replace(tree, children=(bad, leaf("b"))))


def test_tree_names_the_node_with_a_child_that_is_not_a_tree_node():
    kids = (leaf("a"), "b")
    with pytest.raises(DomainError, match="^a child of 'r' must be a TreeNode, got str$"):
        DecisionTree(TreeNode("r", kids, dist(["a", "b"], [0.5, 0.5]), util(["a", "b"], [0, 0])))


def test_tree_rejects_prior_child_name_mismatch():
    kids = (leaf("a"), leaf("b"))
    with pytest.raises(LabelMismatch):
        DecisionTree(
            TreeNode(
                "root",
                kids,
                FiniteDistribution(["a", "zzz"], [0.5, 0.5]),
                UtilityTable(["a", "b"], [0.0, 0.0]),
            )
        )


def chain(depth):
    tip = leaf(f"n{depth}")
    for i in range(depth - 1, -1, -1):
        tip = node(f"n{i}", [tip], [1.0], [0.5])
    return tip


def test_tree_walkers_handle_a_chain_deeper_than_the_recursion_limit():
    depth = 10_000
    tree = DecisionTree(chain(depth))
    paths = tree.paths()
    paths = [paths[i] for i in tree.orders()[0].tolist()]
    assert len(paths) == depth + 1
    assert paths[:3] == ["n0", "n0/n1", "n0/n1/n2"]
    assert paths[-1] == "/".join(f"n{i}" for i in range(depth + 1))


def test_dumps_handles_a_chain_deeper_than_the_recursion_limit():
    # 600 tree levels nest 1,802 JSON containers. The layout indents six
    # spaces per tree level, so the text grows with the square of the depth
    # (about 10 MB here; a 10,000-deep chain would need about 2.7 GB).
    depth = 600
    text = dumps(ProblemFile("1", "tree", DecisionTree(chain(depth))))
    assert text.count('"name": ') == depth + 1
    assert "\n" + " " * (4 + 6 * depth) + f'"name": "n{depth}"\n' in text


# The dataclass methods TreeNode's explicit-stack ==, hash and repr replace:
# a plain frozen dataclass with the same fields, under the same name.
ReferenceNode = dataclasses.make_dataclass(
    "TreeNode",
    [(f.name, f.type, dataclasses.field(default=f.default)) for f in dataclasses.fields(TreeNode)],
    frozen=True,
)


def copied(n, node_class=TreeNode, container=None):
    """The same small tree of new node_class objects (recursive). Each
    children container keeps its type, or takes the type container(children)
    gives; a child that is not a TreeNode is kept as it is."""
    if not isinstance(n, TreeNode):
        return n
    kids = [copied(c, node_class, container) for c in n.children]
    kind = container(n.children) if container else type(n.children)
    return node_class(n.name, kind(kids), n.child_prior, n.child_utility, n.temperature_tag)


def as_reference(n: TreeNode):
    """The same small tree as ReferenceNodes."""
    return copied(n, ReferenceNode)


def flipped(n: TreeNode) -> TreeNode:
    """The same tree with every children tuple a list and every list a tuple."""
    return copied(n, container=lambda kids: tuple if type(kids) is list else list)


@st.composite
def small_trees(draw, name="r", depth=0):
    """Trees up to 3 levels deep over few names, utilities and tags, so that
    two independent draws are often equal. Children come in a tuple or a
    list; a child may be its elder sibling's subtree again, or a value that
    is not a TreeNode (0 and 0.0 are equal)."""
    if depth >= 3 or draw(st.booleans()):
        return TreeNode(name)
    names = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    kids = []
    for c in names:
        kind = draw(st.sampled_from(["node", "node", "shared", "other"]))
        if kind == "shared" and kids:
            kids.append(kids[-1])
        elif kind == "other":
            kids.append(draw(st.sampled_from(["x", 0, 0.0, None])))
        else:
            kids.append(draw(small_trees(c, depth + 1)))
    utils = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(names), max_size=len(names)))
    return TreeNode(name, draw(st.sampled_from([tuple, list]))(kids),
                    dist(names, [1.0 / len(names)] * len(names)), util(names, utils),
                    draw(st.sampled_from(["lambda", "mu"])))


@given(small_trees(), small_trees())
def test_tree_node_methods_match_the_dataclass_methods(a, b):
    assert repr(a) == repr(as_reference(a))
    for other in (b, flipped(a)):
        assert (a == other) == (as_reference(a) == as_reference(other))
        assert (a != other) == (as_reference(a) != as_reference(other))
        if a == other:
            assert hash(a) == hash(other)
    copy = copied(a)
    assert copy is not a and copy == a and hash(copy) == hash(a)


def test_tree_node_repr_of_a_small_tree_is_the_dataclass_repr():
    tree = node("r", [leaf("a"), node("b", [leaf("x")], [1.0], [2.0], "mu")], [0.25, 0.75], [0, -1])
    assert repr(tree) == repr(as_reference(tree))
    assert repr(tree).startswith("TreeNode(name='r', children=(TreeNode(name='a', children=(), ")
    assert repr(leaf("x")) == repr(ReferenceNode("x"))


DEEP = 2_000  # past the recursion limit


def test_tree_node_compares_chains_deeper_than_the_recursion_limit():
    one, other = chain(DEEP), chain(DEEP)
    assert one == other and not one != other
    assert one != chain(DEEP - 1)


def test_tree_node_hashes_a_chain_deeper_than_the_recursion_limit():
    assert hash(chain(DEEP)) == hash(chain(DEEP))


def cycle(length: int) -> TreeNode:
    """A chain of length nodes, each with list children, whose last node
    lists the first as its child."""
    first = tip = TreeNode("n0", [])
    for i in range(1, length):
        tip.children.append(TreeNode(f"n{i}", []))
        tip = tip.children[0]
    tip.children.append(first)
    return first


@pytest.mark.parametrize("length", [1, 3])
def test_tree_node_refuses_to_compare_or_hash_a_cycle(length):
    """==, != and hash on a node that is its own ancestor raise CyclicTree,
    even below a root that is not on the cycle; a node reached twice but
    never below itself compares and hashes as before."""
    named = "^node 'n0' is its own ancestor; the structure is not a tree$"
    for make in (lambda: cycle(length), lambda: TreeNode("r", (cycle(length),))):
        for call in (hash, lambda n: n == make(), lambda n: n != make()):
            with pytest.raises(CyclicTree, match=named):
                call(make())
    shared = leaf("s")
    twice = TreeNode("r", (shared, shared))
    assert twice == TreeNode("r", (leaf("s"), leaf("s")))
    assert hash(twice) == hash(TreeNode("r", (leaf("s"), leaf("s"))))


def test_tree_names_a_cycle_as_a_node_reached_twice():
    """DecisionTree's check meets a cycle's node a second time before the
    walk would go below it, so it keeps its message, the recursive walk's."""
    kids0, kids1 = [], []
    n0 = TreeNode("n0", kids0, dist(["n1"], [1.0]), util(["n1"], [0.0]))
    n1 = TreeNode("n1", kids1, dist(["n0"], [1.0]), util(["n0"], [0.0]))
    kids0.append(n1)
    kids1.append(n0)
    for check in (DecisionTree, reference_validate):
        with pytest.raises(CyclicTree, match="^node 'n0' is reachable twice; the structure is not a tree$"):
            check(n0)


def test_tree_node_prints_a_chain_deeper_than_the_recursion_limit():
    depth = DEEP
    # The dataclass repr of a chain, built level by level.
    heads, tails = [], []
    for i in range(depth):
        prior, utility = dist([f"n{i + 1}"], [1.0]), util([f"n{i + 1}"], [0.5])
        heads.append(f"TreeNode(name='n{i}', children=(")
        tails.append(f",), child_prior={prior!r}, child_utility={utility!r}, "
                     "temperature_tag='lambda')")
    tip = (f"TreeNode(name='n{depth}', children=(), child_prior=None, child_utility=None, "
           "temperature_tag='lambda')")
    assert repr(chain(depth)) == "".join(heads) + tip + "".join(reversed(tails))


def reference_validate(root):
    """The recursive validation walk DecisionTree used before it became
    iterative: the first violation in pre-order, with the same messages."""
    seen = set()

    def walk(n):
        if id(n) in seen:
            raise CyclicTree(
                f"node {n.name!r} is reachable twice; the structure is not a tree"
            )
        seen.add(id(n))
        if "/" in n.name:
            raise DomainError(
                f"node name {n.name!r} contains '/', which separates "
                "the names in a node path"
            )
        if n.temperature_tag not in ("lambda", "mu"):
            raise UnknownTemperatureTag(
                f"node {n.name!r} has temperature tag {n.temperature_tag!r}; "
                f"expected one of {('lambda', 'mu')}"
            )
        if n.is_leaf:
            if n.child_prior is not None or n.child_utility is not None:
                raise LabelMismatch(
                    f"leaf {n.name!r} must not carry child priors or utilities"
                )
            return
        names = tuple(c.name for c in n.children)
        if n.child_prior is None or n.child_prior.outcomes != names:
            raise LabelMismatch(
                f"child priors of {n.name!r} must cover the child names {names}"
            )
        if n.child_utility is None or n.child_utility.outcomes != names:
            raise LabelMismatch(
                f"child utilities of {n.name!r} must cover the child names {names}"
            )
        for c in n.children:
            walk(c)

    walk(root)


def reference_paths(root):
    def walk(n, path):
        yield path
        for c in n.children:
            yield from walk(c, f"{path}/{c.name}")

    return list(walk(root, root.name))


FAULTS = ("none",) * 6 + ("slash", "tag", "leaf_prior", "prior", "utility", "shared")


@st.composite
def faulty_trees(draw):
    """A small tree in which each node may carry one validation fault."""
    built = []
    ids = itertools.count()

    def build(level):
        fault = draw(st.sampled_from(FAULTS))
        name = f"v{next(ids)}" + ("/x" if fault == "slash" else "")
        n_children = draw(st.integers(0, 3)) if level < 3 else 0
        if fault == "shared" and built:
            shared = draw(st.sampled_from(built))
            children = [shared] + [build(level + 1) for _ in range(n_children)]
        else:
            children = [build(level + 1) for _ in range(n_children)]
        names = [c.name for c in children]
        tag = "beta" if fault == "tag" else draw(st.sampled_from(["lambda", "mu"]))
        if not children:
            prior = FiniteDistribution(["z"], [1.0]) if fault == "leaf_prior" else None
            result = TreeNode(name, (), prior, None, tag)
        else:
            names_p = names + ["extra"] if fault == "prior" else names
            names_u = names[:-1] if fault == "utility" else names
            result = TreeNode(
                name,
                tuple(children),
                FiniteDistribution(names_p, [1.0 / len(names_p)] * len(names_p)),
                UtilityTable(names_u, [0.0] * len(names_u)),
                tag,
            )
        built.append(result)
        return result

    return build(0)


@given(faulty_trees())
def test_tree_validation_matches_the_recursive_walk(root):
    try:
        reference_validate(root)
    except FreeUtilError as expected:
        with pytest.raises(type(expected)) as raised:
            DecisionTree(root)
        assert str(raised.value) == str(expected)
        return
    tree = DecisionTree(root)
    paths = tree.paths()
    assert [paths[i] for i in tree.orders()[0].tolist()] == reference_paths(root)


# ---------------------------------------------------------------------------
# DecisionTree(root) checks and reads a TreeNode graph in one walk. The two
# walks it replaced are kept here as references, as they were: the
# pre-order check and the breadth-first read.


def reference_pre_order(root):
    """root and every node below it in pre-order, children in order, from an
    explicit stack, so depth is bounded by memory. A child that is not a
    TreeNode comes as itself, with nothing below it; a node met below itself
    comes once more, and CyclicTree is raised in place of its children."""
    stack, path = [(root, 0)], {}  # path: the ids of the nodes above the next one, in order
    while stack:
        node, depth = stack.pop()
        while len(path) > depth:
            path.popitem()
        yield node
        if isinstance(node, TreeNode):
            if id(node) in path:
                raise CyclicTree(f"node {node.name!r} is its own ancestor; the structure is not a tree")
            path[id(node)] = None
            stack.extend((child, depth + 1) for child in reversed(node.children))


def reference_check_tree(root: TreeNode) -> None:
    """Raise the first violation of the tree invariants in pre-order."""
    _require(root, TreeNode, "the root of a decision tree")
    seen: set[int] = set()
    for node in reference_pre_order(root):
        if id(node) in seen:
            raise CyclicTree(
                f"node {node.name!r} is reachable twice; the structure is not a tree"
            )
        seen.add(id(node))
        _check_node_name(node.name)
        if node.temperature_tag not in _VALID_TAGS:
            raise UnknownTemperatureTag(
                f"node {node.name!r} has temperature tag {node.temperature_tag!r}; "
                f"expected one of {_VALID_TAGS}"
            )
        if node.is_leaf:
            if node.child_prior is not None or node.child_utility is not None:
                raise LabelMismatch(
                    f"leaf {node.name!r} must not carry child priors or utilities"
                )
            continue
        for child in node.children:
            if not isinstance(child, TreeNode):  # the message is built only for a fault
                _require(child, TreeNode, f"a child of {node.name!r}")
        names = tuple(map(attrgetter("name"), node.children))
        for what, table, cls in (("priors", node.child_prior, FiniteDistribution),
                                 ("utilities", node.child_utility, UtilityTable)):
            if not isinstance(table, cls) or table.outcomes != names:
                if table is not None:
                    _require(table, cls, f"the child {what} of {node.name!r}")
                raise LabelMismatch(
                    f"child {what} of {node.name!r} must cover the child names {names}"
                )


def reference_read(root) -> tuple:
    """The arguments the breadth-first read of a checked graph gave _fill."""
    nodes = [root]
    for node in nodes:  # the list grows level by level while it is read
        nodes.extend(node.children)
    internal = [node for node in nodes if node.children]
    n_edges = len(nodes) - 1
    return (
        tuple(node.name for node in nodes),
        [node.temperature_tag == "mu" for node in nodes],
        [len(node.children) for node in nodes],
        np.fromiter(itertools.chain.from_iterable(n.child_prior.probs for n in internal),
                    float, n_edges),
        np.fromiter(itertools.chain.from_iterable(n.child_utility.values for n in internal),
                    float, n_edges),
    )


class Unwalkable:
    """Children that cannot be iterated, as the reference check meets them:
    its first read of them, where it asks whether the node is a leaf, raises
    the error DecisionTree raises at that node's place in pre-order."""

    def __init__(self, name, value):
        self.message = f"the children of {name!r} must be iterable, got {type(value).__name__}"

    def __bool__(self):
        raise DomainError(self.message)


def unordered(name, kind, items):
    """Children in a set or frozenset (kind), as the reference walk meets
    them: they iterate as kind(items) does, and reversing them to put them
    on its stack raises the error DecisionTree raises at that point of its
    walk, unless there are none."""

    class Unordered(kind):
        def __reversed__(self):
            if self:
                raise DomainError(f"the children of {name!r} must be in a sequence, "
                                  f"got {kind.__name__}")
            return iter(())

    return Unordered(items)


GRAPH_FAULTS = ("twice", "other", "slash", "tag", "leaf_table", "labels", "table_type",
                "iterator", "unwalkable", "set")


@st.composite
def tree_graphs(draw):
    """The plan of a random TreeNode graph of up to 9 nodes n0 (the root),
    n1, ..., each below an earlier one, with up to three faults: another
    reference to any node (a node reached twice, or a cycle when it is an
    ancestor), a child that is not a TreeNode, a '/' in a name, an unknown
    tag, child priors or utilities on a leaf, with labels that are not the
    child names, or of the wrong class, children in an iterator (read
    once), children that cannot be iterated, and children in a set or a
    frozenset. Other children come in a tuple or a list."""
    n = draw(st.integers(1, 9))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    kids = [[("node", j) for j in range(n) if parents[j] == i] for i in range(n)]
    names = [f"n{i}" for i in range(n)]
    tags = [draw(st.sampled_from(["lambda", "mu"])) for _ in range(n)]
    containers = [draw(st.sampled_from([tuple, list])) for _ in range(n)]
    table_faults, unwalkable = {}, {}
    for fault, i, j in draw(st.lists(st.tuples(st.sampled_from(GRAPH_FAULTS),
                                               st.integers(0, n - 1), st.integers(0, n - 1)),
                                     max_size=3)):
        if fault == "twice" and ("node", j) not in kids[i]:
            kids[i].insert(draw(st.integers(0, len(kids[i]))), ("node", j))
        elif fault == "other":
            value = draw(st.sampled_from(["x", 0, None, 2.5]))
            kids[i].insert(draw(st.integers(0, len(kids[i]))), ("other", value))
        elif fault == "slash":
            names[i] += "/x"
        elif fault == "tag":
            tags[i] = "beta"
        elif fault == "iterator":
            containers[i] = iter
        elif fault == "unwalkable":
            unwalkable[i] = draw(st.sampled_from([5, None, 2.5, False]))
        elif fault == "set":
            containers[i] = draw(st.sampled_from([set, frozenset]))
        else:
            table_faults[i] = fault
    for i in range(n):
        # Both graphs' sets iterate in one order only if each member hashes
        # alike in both. A later node is still bare when a set is made; an
        # earlier one is finished, and its hash may read an iterator's id or
        # fail on a set.
        if containers[i] in (set, frozenset) and any(("node", j) in kids[i] for j in range(i)):
            containers[i] = tuple
    tables = []
    for i in range(n):
        labels = [names[j] if kind == "node" else f"o{k}" for k, (kind, j) in enumerate(kids[i])]
        prior = utility = None
        if labels:
            weights = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                                    min_size=len(labels), max_size=len(labels)))
            prior = FiniteDistribution(labels, [w / sum(weights) for w in weights])
            utility = UtilityTable(labels, draw(st.lists(
                st.sampled_from([-1.0, -0.0, 0.0, 0.5]), min_size=len(labels), max_size=len(labels))))
        fault, which = table_faults.get(i), draw(st.sampled_from(["prior", "utility"]))
        if fault == "leaf_table" and not labels:
            prior, utility = ((FiniteDistribution(["z"], [1.0]), None) if which == "prior"
                              else (None, UtilityTable(["z"], [0.0])))
        elif fault == "labels" and labels:
            wrong = draw(st.sampled_from([labels + ["extra"], labels[::-1], labels[:-1], ["z"]]))
            if wrong and wrong != labels:
                if which == "prior":
                    prior = FiniteDistribution(wrong, [1.0 / len(wrong)] * len(wrong))
                else:
                    utility = UtilityTable(wrong, [0.0] * len(wrong))
        elif fault == "table_type":
            wrong = draw(st.sampled_from([utility if which == "prior" else prior, {"z": 1.0}]))
            prior, utility = (wrong, utility) if which == "prior" else (prior, wrong)
        tables.append((prior, utility))
    return names, tags, kids, tables, containers, unwalkable


def built(plan, reference=False):
    """The root of the graph a tree_graphs plan draws; for the reference
    check, with children that cannot be iterated or come in a set given as
    their stand-ins."""
    names, tags, kids, tables, containers, unwalkable = plan
    nodes = [TreeNode(name, temperature_tag=tag) for name, tag in zip(names, tags)]
    for i, node in enumerate(nodes):
        items = [nodes[j] if kind == "node" else j for kind, j in kids[i]]
        if i in unwalkable:
            children = Unwalkable(names[i], unwalkable[i]) if reference else unwalkable[i]
        elif reference and containers[i] in (set, frozenset):
            children = unordered(names[i], containers[i], items)
        else:
            children = containers[i](items)
        # The nodes are frozen; a cycle can only be closed once they exist.
        object.__setattr__(node, "children", children)
        object.__setattr__(node, "child_prior", tables[i][0])
        object.__setattr__(node, "child_utility", tables[i][1])
    return nodes[0]


@settings(max_examples=400, deadline=None)
@given(tree_graphs())
def test_tree_reads_a_graph_as_the_check_and_the_breadth_first_read_did(plan):
    """Every fault raises the reference check's error, children that cannot
    be iterated the new DomainError at their node's place in pre-order, and
    children in a set DomainError where the walk reverses them; a valid
    graph fills the reference read's arrays, bit for bit."""
    try:
        reference_check_tree(built(plan, reference=True))
    except FreeUtilError as expected:
        with pytest.raises(type(expected)) as raised:
            DecisionTree(built(plan))
        assert str(raised.value) == str(expected)
        return
    root = built(plan)
    tree, names, is_mu, n_children, prior, utility = DecisionTree(root), *reference_read(root)
    assert tree.names == names and tree.n_children.tolist() == n_children
    assert tree.is_mu.tolist() == [mu and count > 0 for mu, count in zip(is_mu, n_children)]
    assert tree.prior.tobytes() == prior.tobytes() and tree.utility.tobytes() == utility.tobytes()


@pytest.mark.parametrize("value", [5, None, 2.5, False])
def test_tree_names_the_node_whose_children_cannot_be_iterated(value):
    """DomainError, not TypeError, at that node's place in pre-order: after
    the faults of earlier nodes, before those of later ones."""
    expected = f"^the children of 'r' must be iterable, got {type(value).__name__}$"
    one = FiniteDistribution(["a"], [1.0]), UtilityTable(["a"], [0.0])
    with pytest.raises(DomainError, match=expected):
        DecisionTree(TreeNode("r", value, *one))
    with pytest.raises(DomainError, match=expected.replace("'r'", "'a'")):
        DecisionTree(node("r", [TreeNode("a", value), leaf("b/")], [0.5, 0.5], [0.0, 0.0]))
    with pytest.raises(DomainError, match="^node name 'a/' contains '/'"):
        DecisionTree(node("r", [leaf("a/"), TreeNode("b", value)], [0.5, 0.5], [0.0, 0.0]))


@pytest.mark.parametrize("kind", [set, frozenset])
def test_tree_refuses_children_in_a_set(kind):
    """The order of a set of str names changes with PYTHONHASHSEED, so a
    set is refused, with DomainError naming the node where the walk
    reverses its children: after that node's table checks, before the
    faults of later nodes. An empty set is a leaf."""
    def parent(name, kids, order):
        return TreeNode(name, kids, dist(order, [1 / len(order)] * len(order)),
                        util(order, [0.0] * len(order)))

    kids = kind((leaf("a"), leaf("b")))
    order = [c.name for c in kids]
    expected = f"^the children of 'r' must be in a sequence, got {kind.__name__}$"
    with pytest.raises(DomainError, match=expected):
        DecisionTree(parent("r", kids, order))
    with pytest.raises(LabelMismatch, match=r"^child priors of 'r' must cover the child names"):
        DecisionTree(parent("r", kids, order[::-1]))
    with pytest.raises(DomainError, match=expected.replace("'r'", "'m'")):
        DecisionTree(parent("r", (parent("m", kids, order), leaf("z/")), ["m", "z/"]))
    with pytest.raises(DomainError, match="^node name 'z/' contains '/'"):
        DecisionTree(parent("r", (leaf("z/"), parent("m", kids, order)), ["z/", "m"]))
    assert DecisionTree(TreeNode("r", kind())).names == ("r",)


def test_tree_node_compares_and_hashes_children_that_cannot_be_iterated():
    """As the dataclass == compares them, with a hash that agrees."""
    for kids, other in ((5, 5), (5, 6), (None, None), (5, ()), (5, (leaf("a"),)), (2.0, 2)):
        one, two = TreeNode("r", kids), TreeNode("r", other)
        assert (one == two) == (ReferenceNode("r", kids) == ReferenceNode("r", other))
        assert (one != two) == (ReferenceNode("r", kids) != ReferenceNode("r", other))
        if one == two:
            assert hash(one) == hash(two)
    below = TreeNode("r", (TreeNode("a", 5),))
    assert below == TreeNode("r", (TreeNode("a", 5),)) and below != TreeNode("r", (TreeNode("a", 6),))
    assert hash(below) == hash(TreeNode("r", (TreeNode("a", 5),)))


@pytest.mark.parametrize("kind", [set, frozenset])
def test_tree_node_hashes_children_in_a_set_as_it_compares_them(kind):
    """A set and a frozenset of children compare as the dataclass ==
    compares them, by their members in any order, and nodes that compare
    equal hash alike, a node below and a set that is itself a child too."""
    one = TreeNode("r", kind({leaf("a"), leaf("b")}))
    for other in (set, frozenset):
        two = TreeNode("r", other({leaf("b"), leaf("a")}))
        assert one == two and hash(one) == hash(two)
        assert (one == two) == (as_reference(one) == as_reference(two))
        assert TreeNode("q", (one,)) == TreeNode("q", (two,))
        assert hash(TreeNode("q", (one,))) == hash(TreeNode("q", (two,)))
        child, twin = TreeNode("r", (kind({1, 2}),)), TreeNode("r", (other({2, 1}),))
        assert child == twin and hash(child) == hash(twin)
    for other in (TreeNode("r", kind({leaf("a"), leaf("c")})), TreeNode("r", (leaf("a"), leaf("b")))):
        assert one != other and as_reference(one) != as_reference(other)


def test_tree_node_hash_of_sequence_and_iterator_children_is_the_hash_of_its_records():
    """Only a set's record is hashed another way."""
    kids = (leaf("a"), node("b", [leaf("x")], [1.0], [2.0], "mu"))
    for children in (kids, list(kids), iter(kids), (iter(kids),), 5):
        n = TreeNode("r", children)
        assert hash(n) == hash(tuple(n._records()))


# ---------------------------------------------------------------------------
# Validation runs on builtins over the whole list and walks entry by entry
# only after a failure; the entry-by-entry walks are the reference.


def reference_distribution(outcomes, probs):
    """FiniteDistribution's construction as an entry-by-entry walk: the
    normalized probabilities, or the exception it raises."""
    outcomes = tuple(outcomes)
    probs = [float(p) for p in probs]
    if len(outcomes) != len(probs):
        raise LabelMismatch(f"{len(outcomes)} labels but {len(probs)} probabilities")
    if len(outcomes) == 0:
        raise EmptySupport("a distribution needs at least one outcome")
    seen: set = set()
    for label in outcomes:
        if label in seen:
            raise DuplicateLabel(f"duplicate outcome label {label!r}")
        seen.add(label)
    for label, p in zip(outcomes, probs):
        if not math.isfinite(p):
            raise DomainError(f"probability of {label!r} is not finite: {p!r}")
        if p < 0.0:
            raise NegativeProbability(f"probability of {label!r} is {p}")
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        raise NotNormalized(f"probabilities sum to {total!r}, expected 1")
    return tuple(p / total for p in probs)


def reference_utilities(outcomes, values):
    """UtilityTable's construction as an entry-by-entry walk."""
    outcomes = tuple(outcomes)
    vals = tuple(float(v) for v in values)
    if len(outcomes) != len(vals):
        raise LabelMismatch(f"{len(outcomes)} labels but {len(vals)} values")
    if len(set(outcomes)) != len(outcomes):
        raise DuplicateLabel("duplicate outcome label in utility table")
    for label, v in zip(outcomes, vals):
        if not math.isfinite(v):
            raise DomainError(f"utility of {label!r} is not finite: {v!r}")
    return vals


def outcome_of(build, *args):
    """(exception type, message) if build raises, else ("ok", result)."""
    try:
        return "ok", build(*args)
    except FreeUtilError as e:
        return type(e), str(e)


entries = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.25, 0.5, 0.0, -0.0, -0.25, -1e-300, math.inf, -math.inf, math.nan]),
    st.integers(-1, 2),
    st.booleans(),
)


@given(
    st.lists(st.sampled_from("abcd"), min_size=0, max_size=6),
    st.lists(entries, min_size=0, max_size=6),
    st.booleans(),
)
def test_distribution_checks_match_the_entry_walk(labels, probs, as_array):
    if as_array:
        probs = np.array(probs, dtype=float)
    got = outcome_of(lambda: FiniteDistribution(labels, probs).probs)
    assert got == outcome_of(reference_distribution, labels, probs)
    if got[0] == "ok":
        assert all(type(p) is float for p in got[1])
        validate(FiniteDistribution(labels, probs))


@given(
    st.lists(st.sampled_from("abcd"), min_size=0, max_size=6),
    st.lists(entries, min_size=0, max_size=6),
    st.booleans(),
)
def test_utility_checks_match_the_entry_walk(labels, values, as_array):
    if as_array:
        values = np.array(values, dtype=float)
    got = outcome_of(lambda: UtilityTable(labels, values).values)
    assert got == outcome_of(reference_utilities, labels, values)
    if got[0] == "ok":
        assert all(type(v) is float for v in got[1])


def test_distribution_skips_the_division_only_when_it_changes_nothing():
    exact = [0.25, 0.25, 0.5]
    assert FiniteDistribution("abc", exact).probs == tuple(exact)
    off = [0.1, 0.2, 0.7 + 1e-12]
    total = math.fsum(off)
    assert FiniteDistribution("abc", off).probs == tuple(p / total for p in off)


# Calls of the Python API with an argument of the wrong type or out of its
# range, each of which once raised a raw TypeError, ValueError,
# OverflowError or AttributeError, or named the wrong fault.
WRONG_TYPES = {
    "loads(123)": lambda: loads(123),
    "loads of bytes that are not UTF-8": lambda: loads(b'{"a": "\xff"}'),
    "load(None)": lambda: load(None),
    "dumps('x')": lambda: dumps("x"),
    "Temperature.parse(None)": lambda: Temperature.parse(None),
    "UtilityTable(['a'], [None])": lambda: UtilityTable(["a"], [None]),
    "FiniteDistribution over a column": lambda: FiniteDistribution(["a", "b"], np.array([[0.5], [0.5]])),
    "DecisionTree(TreeNode(3))": lambda: DecisionTree(TreeNode(3)),
    "Temperature.finite('x')": lambda: Temperature.finite("x"),
    "Temperature.finite(10**400)": lambda: Temperature.finite(10**400),
    "Temperature.finite(None)": lambda: Temperature.finite(None),
    "UtilityTable.shifted('x')": lambda: util(["a"], [1.0]).shifted("x"),
    "run_suite with seed -1": lambda: verify.run_suite("gibbs-optimality", -1),
}


@pytest.mark.parametrize("call", sorted(WRONG_TYPES))
def test_an_argument_of_the_wrong_type_raises_a_named_domain_error(call):
    with pytest.raises(DomainError, match="must be|writes a ProblemFile"):
        WRONG_TYPES[call]()


def two_stage_over(prior_labels, first_row_labels):
    """A two-stage problem over actions AB and outcomes xy whose action
    prior and first channel row are over the given labels."""
    rows = {"A": dist(first_row_labels, [0.5, 0.5]), "B": dist("xy", [0.5, 0.5])}
    return TwoStageProblem("AB", "xy", dist(prior_labels, [0.5, 0.5]), rows,
                           util("AB", [0.0, 0.0]), {a: util("xy", [0.0, 1.0]) for a in "AB"})


# Refusals of the model's constructors and lookups, each with its exact
# type and message.
REFUSALS = {
    "ControlProblem, utility labels in another order": (
        lambda: ControlProblem(dist("ab", [0.5, 0.5]), util("ba", [0.0, 1.0])),
        LabelMismatch, "utility label order must match prior label order"),
    "ControlProblem, utility over other labels": (
        lambda: ControlProblem(dist("ab", [0.5, 0.5]), util("ax", [0.0, 1.0])),
        LabelMismatch, "utility labels do not match prior labels"),
    "TwoStageProblem, prior_action over other labels": (
        lambda: two_stage_over("AC", "xy"),
        LabelMismatch, "prior_action labels must equal the action list"),
    "TwoStageProblem, a channel row over other outcomes": (
        lambda: two_stage_over("AB", "xz"),
        LabelMismatch, "channel row for 'A' must cover the outcome list"),
    "Temperature('warm')": (lambda: Temperature("warm"), DomainError,
                            "unknown temperature kind 'warm'"),
    "Temperature.finite(0.0)": (lambda: Temperature.finite(0.0), DomainError,
                                "finite temperature must be a nonzero finite real, got 0.0"),
    "UtilityTable.value of an unknown label": (
        lambda: util("ab", [0.0, 1.0]).value("q"), LabelMismatch, "unknown outcome label 'q'"),
    "gibbs_measure at the -inf limit": (
        lambda: gibbs_measure(util("ab", [0.0, 1.0]), "-inf"), DomainError,
        "temperature cannot be the -inf limit"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_refusal_raises_its_type_and_message(case):
    call, error, message = REFUSALS[case]
    assert outcome_of(call) == (error, message)


# Calls at the top of the float range, each of which once raised a bare
# OverflowError from math.fsum or returned inf: five utilities of the
# largest float, whose expected utility under EDGE_PRIOR rounds past it.
EDGE_PRIOR = dist("abcde", [0.17301578503569864, 0.18208246417692872, 0.2550019478149193,
                            0.1494838617420918, 0.24041594123036164])
EDGE_UTILITY = util("abcde", [sys.float_info.max] * 5)
PAST_THE_RANGE = "is not a finite number: inf"
FLOAT_EDGE = {
    "certainty_equivalent at the zero limit": (
        lambda: certainty_equivalent(EDGE_PRIOR, EDGE_UTILITY, "zero"), ("ok", sys.float_info.max)),
    "expectation": (lambda: expectation(EDGE_PRIOR, EDGE_UTILITY),
                    (DomainError, f"the expected utility {PAST_THE_RANGE}")),
    "taylor_ce_approx": (lambda: taylor_ce_approx(EDGE_PRIOR, EDGE_UTILITY, 0.1),
                         (DomainError, f"the mean of the utilities {PAST_THE_RANGE}")),
    "free_utility": (lambda: free_utility(EDGE_PRIOR, EDGE_UTILITY, 1.0),
                     (DomainError, f"the expected utility {PAST_THE_RANGE}")),
    "free_utility_difference": (
        lambda: free_utility_difference(EDGE_PRIOR, EDGE_PRIOR, EDGE_UTILITY, 1.0),
        (DomainError, f"the expected utility {PAST_THE_RANGE}")),
    "free_utility at alpha 1.7e308": (
        lambda: free_utility(FiniteDistribution.uniform("abcd"), util("abcd", [0.0] * 4), 1.7e308),
        (DomainError, f"the free utility {PAST_THE_RANGE}")),
}


@pytest.mark.parametrize("call", sorted(FLOAT_EDGE))
def test_a_call_at_the_float_edge_returns_a_finite_float_or_a_domain_error(call):
    fn, outcome = FLOAT_EDGE[call]
    assert outcome_of(fn) == outcome


def test_an_unknown_suite_raises_a_named_domain_error():
    with pytest.raises(DomainError, match=r"^unknown suite 'nope'; choose from \["):
        verify.run_suite("nope", 0)


def test_numeric_strings_still_read_as_numbers():
    assert UtilityTable(["a"], ["0.5"]).values == (0.5,)
    assert FiniteDistribution(["a", "b"], ["0.5", 0.5]).probs == (0.5, 0.5)
    assert Temperature.parse(" 0.5 ") == Temperature.finite(0.5)


def test_a_problem_or_a_node_never_equals_an_object_of_another_type():
    """== between a problem or a TreeNode and an object of another type,
    another problem kind included, is False both ways."""
    control = load(str(GOLDEN / "control_basic.json")).problem
    two_stage = load(str(GOLDEN / "two_stage_basic.json")).problem
    tree = load(str(GOLDEN / "tree_mixed_tags.json")).problem
    node = TreeNode("r")
    kinds = [control, two_stage, tree, node]
    for a in kinds:
        for b in kinds + [None, 1, "r", (a,), control.prior, tree.names]:
            if b is not a:
                assert a != b and not (a == b) and not (b == a), (a, b)
