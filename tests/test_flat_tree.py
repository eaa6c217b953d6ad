"""The flat tree store: level-ordered arrays from parse to render.

A tree read from a file goes straight into DecisionTree's breadth-first
arrays; the TreeNode path (the file read by _parse_tree into TreeNodes, then
DecisionTree(root)) is the reference. Values, policies, documents and errors
must match it bit for bit and in order."""
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeutil import cli
from freeutil.model import (
    DecisionTree,
    DomainError,
    FiniteDistribution,
    FreeUtilError,
    TemperatureSpec,
    TreeNode,
    TwoStageProblem,
    UtilityTable,
)
from freeutil.problemio import ProblemFile, _parse_tree, dump, dumps, load, loads
from freeutil.sequential import outer_policy, value_recursion
from freeutil.variational import exponential_tilt

TEMPS = [
    TemperatureSpec(lam, mu)
    for lam, mu in [(0.7, -1.5), ("inf", "zero"), (2.0, "-inf"), (0.3, "inf"), ("inf", 1.1)]
]

# A stand-in number written as 1e+300, replaced in the text by a literal
# the decoder reads as inf.
OVERFLOWING = 1e300


def document(payload) -> str:
    doc = {"schema_version": "1", "kind": "tree", "payload": payload}
    return json.dumps(doc).replace("1e+300", "1e400")


def reference_tree(text) -> DecisionTree:
    """The file read through TreeNodes, the way loads read every tree before."""
    return DecisionTree(_parse_tree(json.loads(text)["payload"]))


def outcome_of(build, *args):
    try:
        return "ok", build(*args)
    except FreeUtilError as e:
        return type(e), str(e)


def same_tree(a: DecisionTree, b: DecisionTree) -> None:
    """Equal, and the same bits in every array."""
    assert a == b
    assert a.names == b.names and a.tags == b.tags
    for field in ("n_children", "first_child", "prior", "utility"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


NODE_FAULTS = (
    "unknown key", "name not a string", "no name", "slash in name", "bad tag",
    "children null", "children empty", "children an object",
)
ENTRY_FAULTS = (
    "entry not an object", "entry without prior", "entry with an extra key",
    "entry with a wrong key", "prior a bool", "utility a string", "prior huge",
    "utility huge", "prior inf", "utility inf", "negative prior",
    "negative prior, sum kept",
)
NODE_LEVEL_FAULTS = ("unnormalized", "duplicate names", "all priors zero", "prior sum overflows")
FAULTS = NODE_FAULTS + ENTRY_FAULTS + NODE_LEVEL_FAULTS


@st.composite
def payloads(draw, faults=(), depth=0, name="r"):
    """A tree payload: zero and -0.0 priors, int and float numbers, child
    priors whose sum is off 1.0 within the tolerance, lambda and mu mixed
    within levels; about one node in three carries one of the given faults."""
    fault = draw(st.sampled_from(faults)) if faults and draw(st.integers(0, 2)) == 0 else None
    node = {"name": name}
    if draw(st.booleans()):
        node["temperature_tag"] = draw(st.sampled_from(["lambda", "mu"]))
    if fault == "unknown key":
        node["value"] = 1
    elif fault == "name not a string":
        node["name"] = 7
    elif fault == "no name":
        del node["name"]
    elif fault == "slash in name":
        node["name"] = name + "/x"
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        return node
    if fault == "bad tag":
        node["temperature_tag"] = draw(st.sampled_from(["beta", 5, [1], None]))
    k = draw(st.integers(1, 4))
    weight = st.one_of(st.sampled_from([0, 0.0, -0.0, 1, 2, 0.5, 0.1]), st.floats(0.01, 10))
    weights = draw(st.lists(weight, min_size=k, max_size=k))
    if not any(weights):
        weights[0] = 1
    total = math.fsum(weights)
    scale = 1.0 + draw(st.sampled_from([0.0, 1e-10, -4e-10, 3e-16, 9e-10]))
    priors = [w if total == 1 and scale == 1.0 else w / total * scale for w in weights]
    utilities = draw(st.lists(
        st.one_of(st.integers(-2, 2), st.floats(-5, 5, allow_nan=False)), min_size=k, max_size=k
    ))
    names = [f"c{i}" for i in range(k)]
    if fault == "duplicate names":
        names = ["c0"] * k
    entries = [
        {"prior": p, "utility": u, "node": draw(payloads(faults, depth + 1, c))}
        for p, u, c in zip(priors, utilities, names)
    ]
    entry = entries[draw(st.integers(0, k - 1))]
    if fault == "entry not an object":
        entries[-1] = [1]
    elif fault == "entry without prior":
        del entry["prior"]
    elif fault == "entry with an extra key":
        entry["weight"] = 1
    elif fault == "entry with a wrong key":
        entry["child"] = entry.pop("node")
    elif fault == "prior a bool":
        entry["prior"] = True
    elif fault == "utility a string":
        entry["utility"] = "1"
    elif fault == "prior huge":
        entry["prior"] = 10**400
    elif fault == "utility huge":
        entry["utility"] = -(10**400)
    elif fault == "prior inf":
        entry["prior"] = OVERFLOWING
    elif fault == "utility inf":
        entry["utility"] = OVERFLOWING
    elif fault == "negative prior":
        entry["prior"] = -0.25
    elif fault == "negative prior, sum kept" and k > 1:
        entries[0]["prior"] -= 0.25
        entries[1]["prior"] += 0.25
    elif fault == "unnormalized":
        entry["prior"] += 1e-6
    elif fault == "all priors zero":
        for e in entries:
            e["prior"] = 0.0
    elif fault == "prior sum overflows":
        entries[0]["prior"] = entry["prior"] = 1.5e308
    node["children"] = entries
    if fault == "children null":
        node["children"] = None
    elif fault == "children empty":
        node["children"] = []
    elif fault == "children an object":
        node["children"] = {"c0": 1}
    return node


def assert_loads_like_the_treenode_path(payload):
    text = document(payload)
    expected = outcome_of(reference_tree, text)
    got = outcome_of(lambda t: loads(t).problem, text)
    if expected[0] == "ok":
        assert got[0] == "ok", got
        same_tree(got[1], expected[1])
    else:
        assert got == expected


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_loads_raises_what_the_treenode_path_raises(fault, data):
    assert_loads_like_the_treenode_path(data.draw(payloads((fault,))))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(FAULTS), min_size=2, max_size=3).flatmap(payloads))
def test_loads_meets_mixed_faults_in_the_treenode_order(payload):
    assert_loads_like_the_treenode_path(payload)


def tree_doc(tree, temps) -> dict:
    """The tree solve document, its floats written in full, read back."""
    return json.loads(cli._solve_tree_doc(tree, temps, "nats", float.__repr__))


def reference_value_recursion(tree, temps):
    """The recursive backup over TreeNodes, one exponential_tilt per node:
    (values, policies) in the order it filled them."""
    values, policies = {}, {}

    def backup(node, path):
        if node.is_leaf:
            values[path] = 0.0
            return 0.0
        child_values = [backup(c, f"{path}/{c.name}") for c in node.children]
        names = tuple(c.name for c in node.children)
        gains = UtilityTable(
            names, [u + v for u, v in zip(node.child_utility.values, child_values)]
        )
        t = temps.lam if node.temperature_tag == "lambda" else temps.mu
        result = exponential_tilt(node.child_prior, gains, t)
        values[path] = result.value
        policies[path] = result.policy
        return result.value

    backup(tree.root, tree.root.name)
    return values, policies


def reference_tree_doc(tree, temps):
    """The document _solve_tree_doc built from the labelled results, walking
    the TreeNodes depth first."""
    values, policies = reference_value_recursion(tree, temps)
    node_values, node_policies = {}, {}
    for path, node in tree.iter_nodes():
        node_values[path] = values[path]
        if not node.is_leaf:
            node_policies[path] = dict(zip(policies[path].outcomes, policies[path].probs))
    return values[tree.root.name], node_values, node_policies


def bits(mapping):
    """Items with every float as its bits, so -0.0 and 0.0 differ."""
    out = []
    for key, value in mapping.items():
        if isinstance(value, dict):
            value = bits(value)
        elif isinstance(value, FiniteDistribution):
            value = (value.outcomes, np.array(value.probs).tobytes())
        else:
            value = np.float64(value).tobytes()
        out.append((key, value))
    return out


@settings(max_examples=100, deadline=None)
@given(payloads())
def test_flat_solve_matches_the_treenode_path(payload):
    text = document(payload)
    flat, reference = loads(text).problem, reference_tree(text)
    same_tree(flat, reference)
    assert flat.root == reference.root
    assert dumps(ProblemFile("1", "tree", flat)) == dumps(ProblemFile("1", "tree", reference))
    for temps in TEMPS:
        tv = value_recursion(flat, temps)
        values, policies = reference_value_recursion(reference, temps)
        assert bits(tv.values) == bits(values)
        assert bits(tv.policies) == bits(policies)
        assert np.float64(tv.root_value).tobytes() == np.float64(values[flat.names[0]]).tobytes()
        doc = tree_doc(flat, temps)
        value, node_values, node_policies = reference_tree_doc(reference, temps)
        assert np.float64(doc["value"]).tobytes() == np.float64(value).tobytes()
        assert bits(doc["node_values"]) == bits(node_values)
        assert bits(doc["node_policies"]) == bits(node_policies)


@settings(max_examples=40, deadline=None)
@given(payloads())
def test_tree_sweep_rows_match_the_treenode_path(payload):
    if "children" not in payload:
        return
    tree = loads(document(payload)).problem
    temps = TemperatureSpec(1.0, 1.0)
    grid = [t.mu for t in TEMPS]
    header, rows = cli._sweep_rows_tree(tree, "mu", grid, temps)
    root = tree.root
    assert header == ["mu"] + [f"p[{c.name}]" for c in root.children] + ["value", "achieved_kl"]
    for point, row in zip(grid, rows):
        values, policies = reference_value_recursion(tree, TemperatureSpec(1.0, point))
        policy = policies[root.name]
        kl = cli.kl_divergence(policy, root.child_prior)
        assert row == [point.spell()] + list(policy.probs) + [values[root.name], kl]


def node(name, children, probs, utils, tag="lambda"):
    names = [c.name for c in children]
    return TreeNode(name, tuple(children), FiniteDistribution(names, probs),
                    UtilityTable(names, utils), tag)


def test_loaded_tree_equals_the_tree_it_was_written_from(tmp_path):
    root = node("r", [
        node("a", [TreeNode("x"), TreeNode("y")], [0.25, 0.75], [1.0, -2.0], "mu"),
        TreeNode("b"),
    ], [0.5, 0.5], [0.0, 3.0])
    pf = ProblemFile("1", "tree", DecisionTree(root))
    path = tmp_path / "tree.json"
    dump(pf, str(path))
    again = load(str(path))
    assert again == pf and hash(again) == hash(pf)
    assert pickle.loads(pickle.dumps(again)) == again
    assert again.problem.root == root
    assert DecisionTree(again.problem.root) == again.problem
    assert dumps(again) == path.read_text()
    changed = node("r", [root.children[0], TreeNode("b")], [0.5, 0.5], [0.0, 3.5])
    assert DecisionTree(changed) != pf.problem


def test_tree_arrays_are_level_ordered_and_immutable():
    tree = DecisionTree(node("r", [
        node("a", [TreeNode("x"), TreeNode("y")], [0.25, 0.75], [1.0, -2.0], "mu"),
        TreeNode("b"),
        node("c", [TreeNode("z")], [1.0], [4.0]),
    ], [0.2, 0.3, 0.5], [0.0, 3.0, 1.0]))
    assert tree.names == ("r", "a", "b", "c", "x", "y", "z")
    assert tree.tags == ("lambda", "mu", "lambda", "lambda", "lambda", "lambda", "lambda")
    assert tree.n_children.tolist() == [3, 2, 0, 1, 0, 0, 0]
    assert tree.first_child.tolist() == [1, 4, 6, 6, 7, 7, 7]
    assert tree.prior.tolist() == [0.2, 0.3, 0.5, 0.25, 0.75, 1.0]
    assert tree.utility.tolist() == [0.0, 3.0, 1.0, 1.0, -2.0, 4.0]
    assert tree.paths() == ["r", "r/a", "r/b", "r/c", "r/a/x", "r/a/y", "r/c/z"]
    pre, post = tree.orders()
    assert [tree.paths()[i] for i in pre] == [p for p, _ in tree.iter_nodes()]
    assert pre.tolist() == [0, 1, 4, 5, 2, 3, 6]
    assert post.tolist() == [4, 5, 1, 2, 6, 3, 0]
    assert tree.n_leaves() == 4
    with pytest.raises(AttributeError):
        tree.names = ()
    with pytest.raises(ValueError):
        tree.prior[0] = 1.0


def test_single_leaf_tree():
    tree = loads(document({"name": "only"})).problem
    assert tree.names == ("only",) and tree.n_leaves() == 1
    assert tree.root == TreeNode("only")
    tv = value_recursion(tree, TemperatureSpec(1.0, 1.0))
    assert tv.root_value == 0.0 and dict(tv.values) == {"only": 0.0} and not tv.policies
    pre, post = tree.orders()
    assert pre.tolist() == post.tolist() == [0]


@pytest.mark.parametrize("temps", TEMPS, ids=str)
def test_a_kept_row_is_the_prior_bit_for_bit(temps):
    # normalised, these priors sum (math.fsum) to 1 - 2**-53, not to 1.0
    prior = [0.3123419336437785, 0.6876580666562214]
    tree = DecisionTree(node("r", [TreeNode("a"), TreeNode("b")], prior, [2.0, 2.0]))
    assert math.fsum(tree.root.child_prior.probs) != 1.0
    tv = value_recursion(tree, temps)
    assert tv.policies["r"].probs == tree.root.child_prior.probs
    policy = tree_doc(tree, temps)["node_policies"]["r"]
    assert list(policy.values()) == list(tree.root.child_prior.probs)


def huge_utility_node(name):
    """A node whose tilt at a large temperature is NaN: its log-weights are
    +inf and -inf."""
    return node(name, [TreeNode("hi"), TreeNode("lo")], [0.5, 0.5], [1e308, -1e308])


@pytest.mark.parametrize("first", [0, 1])
def test_unnormalisable_policy_raises_the_first_error_in_post_order(first):
    kids = [huge_utility_node("p"), node("q", [huge_utility_node("s")], [1.0], [0.0])]
    if first:
        kids.reverse()
    tree = DecisionTree(node("r", kids, [0.5, 0.5], [0.0, 0.0]))
    temps = TemperatureSpec(10.0, 1.0)
    with pytest.raises(DomainError) as expected:
        reference_value_recursion(tree, temps)
    with pytest.raises(DomainError) as raised:
        value_recursion(tree, temps)
    assert str(raised.value) == str(expected.value)


def random_two_stage(rng, n_actions, n_outcomes):
    actions = [f"a{i}" for i in range(n_actions)]
    outcomes = [f"o{j}" for j in range(n_outcomes)]
    channel = rng.uniform(0.1, 1.0, (n_actions, n_outcomes))
    channel[rng.uniform(size=channel.shape) < 0.2] = 0.0
    channel[:, 0] += 0.1
    return TwoStageProblem(
        actions,
        outcomes,
        FiniteDistribution(actions, np.full(n_actions, 1.0 / n_actions)),
        {a: FiniteDistribution(outcomes, row / row.sum()) for a, row in zip(actions, channel)},
        UtilityTable(actions, rng.normal(size=n_actions)),
        {a: UtilityTable(outcomes, rng.integers(-2, 3, n_outcomes)) for a in actions},
    )


@pytest.mark.parametrize("mu", [-3.0, "-inf", "zero", 0.5, "inf"])
def test_lazy_outcome_beliefs_equal_the_per_row_tilts(mu):
    rng = np.random.default_rng(31)
    for shape in [(3, 4), (70, 300)]:  # the second spans several blocks
        problem = random_two_stage(rng, *shape)
        sol = outer_policy(problem, 1.5, mu)
        expected = {
            a: exponential_tilt(problem.channel[a], problem.outcome_utility[a], mu).policy
            for a in problem.actions
        }
        assert list(sol.outcome_beliefs) == list(problem.actions)
        assert bits(sol.outcome_beliefs) == bits(expected)
        for a in problem.actions:
            if expected[a] is problem.channel[a]:
                assert sol.outcome_beliefs[a] is problem.channel[a]


def test_unnormalisable_belief_row_raises_at_solve():
    actions, outcomes = ["a", "b"], ["hi", "lo"]
    problem = TwoStageProblem(
        actions,
        outcomes,
        FiniteDistribution(actions, [0.5, 0.5]),
        {a: FiniteDistribution(outcomes, [0.5, 0.5]) for a in actions},
        UtilityTable(actions, [0.0, 0.0]),
        {
            "a": UtilityTable(outcomes, [1.0, 2.0]),
            "b": UtilityTable(outcomes, [1e308, -1e308]),
        },
    )
    with pytest.raises(DomainError) as expected:
        exponential_tilt(problem.channel["b"], problem.outcome_utility["b"], 10.0)
    with pytest.raises(DomainError) as raised:
        outer_policy(problem, 1.0, 10.0)
    assert str(raised.value) == str(expected.value)


def test_labelled_objects_are_built_only_when_read(monkeypatch):
    built = []
    init = FiniteDistribution.__init__
    monkeypatch.setattr(
        FiniteDistribution, "__init__", lambda self, *a: built.append(a) or init(self, *a)
    )
    payload = {"name": "r", "temperature_tag": "mu", "children": [
        {"prior": 0.5, "utility": float(i), "node": {"name": f"c{i}", "children": [
            {"prior": 0.25, "utility": 1.0, "node": {"name": "x"}},
            {"prior": 0.75, "utility": -1.0, "node": {"name": "y"}},
        ]}} for i in range(2)
    ]}
    tree = loads(document(payload)).problem
    temps = TemperatureSpec(2.0, -1.0)
    tv = value_recursion(tree, temps)
    tree_doc(tree, temps)
    cli._sweep_rows_tree(tree, "mu", [t.mu for t in TEMPS], temps)
    assert built == []
    assert len(tv.policies) == 3 and tree.root.name == "r"
    problem = random_two_stage(np.random.default_rng(5), 4, 6)
    built.clear()
    sol = outer_policy(problem, 1.5, 0.5)
    assert len(built) == 1  # the action policy
    assert len(sol.outcome_beliefs) == 4 and len(built) == 5
