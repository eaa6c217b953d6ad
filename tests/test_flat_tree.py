"""The flat tree store: level-ordered arrays from parse to render.

A tree read from a file goes straight into DecisionTree's breadth-first
arrays; the TreeNode path (the file read by _parse_tree into TreeNodes, then
DecisionTree(root)) is the reference. Values, policies, documents and errors
must match it bit for bit and in order."""
import gc
import json
import math
import pickle
import random
import weakref
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeutil import cli, problemio, sequential, verify
from freeutil.model import (
    DecisionTree,
    DomainError,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TemperatureSpec,
    TreeNode,
    TwoStageProblem,
    UtilityTable,
    kl_divergence,
)
from freeutil.problemio import ProblemFile, _parse_tree, dump, dumps, load, loads
from freeutil.sequential import outer_policy, two_stage_to_tree, value_recursion
from freeutil.variational import exponential_tilt
from test_cli_snapshot import SNAPSHOT, run as run_cli

GOLDEN = Path(__file__).parent / "golden"

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


def reference_graph(text) -> TreeNode:
    """The file read into TreeNodes, the way loads read every tree before."""
    return _parse_tree(json.loads(text)["payload"])


def reference_tree(text) -> DecisionTree:
    """The file read through TreeNodes, the way loads read every tree before."""
    return DecisionTree(reference_graph(text))


def graph_nodes(root: TreeNode):
    """(path, node) for every TreeNode of a graph, depth first in child order."""
    stack = [(root.name, root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend((f"{path}/{c.name}", c) for c in reversed(node.children))


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
    if fault == "bad tag":
        node["temperature_tag"] = draw(st.sampled_from(["beta", 5, [1], None]))
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        return node
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
    """The tree solve document, its floats written in full by %r, read back."""
    with patch.object(cli, "_TREE_FLOAT", "%r"):
        return json.loads("".join(cli._solve_tree_doc(tree, temps, "nats")))


def reference_value_recursion(root, temps):
    """The recursive backup over a graph of TreeNodes, one exponential_tilt
    per node: (values, policies) in the order it filled them."""
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

    backup(root, root.name)
    return values, policies


def reference_tree_doc(root, temps):
    """The document _solve_tree_doc built from the labelled results, walking
    the TreeNodes depth first; adding 0.0 writes -0.0 as 0.0, as the
    document does."""
    values, policies = reference_value_recursion(root, temps)
    node_values, node_policies = {}, {}
    for path, node in graph_nodes(root):
        node_values[path] = values[path] + 0.0
        if not node.is_leaf:
            probs = [p + 0.0 for p in policies[path].probs]
            node_policies[path] = dict(zip(policies[path].outcomes, probs))
    return values[root.name] + 0.0, node_values, node_policies


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
    graph = reference_graph(text)
    flat, reference = loads(text).problem, DecisionTree(graph)
    same_tree(flat, reference)
    assert DecisionTree(graph) == flat
    assert dumps(ProblemFile("1", "tree", flat)) == dumps(ProblemFile("1", "tree", reference))
    for temps in TEMPS:
        tv = value_recursion(flat, temps)
        values, policies = reference_value_recursion(graph, temps)
        assert bits(tv.values) == bits(values)
        assert bits(tv.policies) == bits(policies)
        assert np.float64(tv.root_value).tobytes() == np.float64(values[flat.names[0]]).tobytes()
        doc = tree_doc(flat, temps)
        value, node_values, node_policies = reference_tree_doc(graph, temps)
        assert np.float64(doc["value"]).tobytes() == np.float64(value).tobytes()
        assert bits(doc["node_values"]) == bits(node_values)
        assert bits(doc["node_policies"]) == bits(node_policies)


@settings(max_examples=40, deadline=None)
@given(payloads())
def test_tree_sweep_rows_match_the_treenode_path(payload):
    if "children" not in payload:
        return
    text = document(payload)
    tree = loads(text).problem
    temps = TemperatureSpec(1.0, 1.0)
    grid = [t.mu for t in TEMPS]
    header, rows = cli._sweep_rows_staged(tree, "mu", grid, temps)
    root = reference_graph(text)
    assert header == ["mu"] + [f"p[{c.name}]" for c in root.children] + ["value", "achieved_kl"]
    for point, row in zip(grid, rows):
        values, policies = reference_value_recursion(root, TemperatureSpec(1.0, point))
        policy = policies[root.name]
        kl = cli.kl_divergence(policy, root.child_prior)
        assert row == [point.spell()] + list(policy.probs) + [values[root.name], kl]


@settings(max_examples=60, deadline=None)
@given(payloads(), st.integers(1, 5))
def test_blocked_backup_matches_the_treenode_path(payload, block):
    """Blocks of `block` edges split every level, tags mixed within it; the
    backup keeps its bits, and per internal node the log-partition of its
    tilt and the relative entropy of its row, both bit for bit."""
    text = document(payload)
    flat, graph = loads(text).problem, reference_graph(text)
    paths = flat.paths()
    rows = {paths[i]: r for r, i in enumerate(np.flatnonzero(flat.n_children).tolist())}
    for temps in TEMPS:
        with patch.object(sequential, "_BLOCK_EDGES", block):
            tv = value_recursion(flat, temps)
        values, policies = reference_value_recursion(graph, temps)
        assert bits(tv.values) == bits(values)
        assert bits(tv.policies) == bits(policies)
        assert len(tv.flat_log_z) == len(tv.flat_kl) == len(rows)
        for path, node in graph_nodes(graph):
            if node.is_leaf:
                continue
            kids = [c.name for c in node.children]
            gains = [u + values[f"{path}/{c}"] for u, c in zip(node.child_utility.values, kids)]
            t = temps.mu if node.temperature_tag == "mu" else temps.lam
            tilt = exponential_tilt(node.child_prior, UtilityTable(kids, gains), t)
            log_z = tv.flat_log_z[rows[path]].item()
            if tilt.log_partition is None:
                assert math.isnan(log_z)
            else:
                assert float.hex(log_z) == float.hex(tilt.log_partition)
            kl = kl_divergence(tilt.policy, node.child_prior)
            assert float.hex(tv.flat_kl[rows[path]].item()) == float.hex(kl)


@settings(max_examples=60, deadline=None)
@given(payloads(), st.integers(1, 5))
def test_flat_kl_is_kl_divergence_of_the_normalised_rows(payload, block):
    """flat_kl[r] has the bits of kl_divergence of internal node r's
    normalised policy row against its prior row, at every temperature and
    with blocks of `block` edges."""
    tree = loads(document(payload)).problem
    internal = np.flatnonzero(tree.n_children).tolist()
    for temps in TEMPS:
        with patch.object(sequential, "_BLOCK_EDGES", block):
            tv = value_recursion(tree, temps)
        assert len(tv.flat_kl) == len(internal)
        for r, i in enumerate(internal):
            lo, hi = int(tree.first_child[i]), int(tree.first_child[i] + tree.n_children[i])
            names = tree.names[lo:hi]
            policy = FiniteDistribution._trusted(names, tv.flat_policy[lo - 1 : hi - 1].tolist())
            prior = FiniteDistribution._trusted(names, tree.prior[lo - 1 : hi - 1].tolist())
            assert float.hex(tv.flat_kl[r].item()) == float.hex(kl_divergence(policy, prior))


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
    assert DecisionTree(root) == again.problem
    assert DecisionTree(reference_graph(path.read_text())) == again.problem
    assert dumps(again) == path.read_text()
    changed = node("r", [root.children[0], TreeNode("b")], [0.5, 0.5], [0.0, 3.5])
    assert DecisionTree(changed) != pf.problem


TREE_GOLDENS = sorted(p.name for p in GOLDEN.glob("tree_*.json"))
RECORDED = json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def reordered(text: str, order: str) -> str:
    """The document with every object's keys sorted, or shuffled by a
    generator seeded with the text."""
    if order == "sorted":
        return json.dumps(json.loads(text), indent=2, sort_keys=True)
    rng = random.Random(text)
    return json.dumps(json.loads(text, object_pairs_hook=lambda pairs: dict(
        rng.sample(pairs, len(pairs)))), indent=2)


def refuse(payload):
    raise AssertionError("a valid tree was read by _parse_tree")


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
@pytest.mark.parametrize("name", [*TREE_GOLDENS, "tree_random.json"])
def test_a_tree_keyed_in_any_order_is_read_without_the_node_reader(tmp_path, monkeypatch, name,
                                                                   order):
    """A copy of a tree file with every object's keys sorted or shuffled
    folds and is read into the arrays, never by _parse_tree; it is the same
    problem, and every CLI call recorded on the golden files prints the same
    bytes on it. The random tree's calls are run on the file itself."""
    monkeypatch.setattr(problemio, "_parse_tree", refuse)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "golden" / name
    path.parent.mkdir()
    argvs = [[r["argv"][0], f"golden/{name}", *r["argv"][2:]]
             for r in RECORDED if r["argv"][1] == "golden/tree_binary.json"]
    if name in TREE_GOLDENS:
        original = load(str(GOLDEN / name))
        text = (GOLDEN / name).read_text()
        wants = [r for r in RECORDED if r["argv"][1:2] == [f"golden/{name}"]]
    else:
        tree = verify._random_tree(np.random.default_rng(27))
        original = ProblemFile("1", "tree", tree, lam=Temperature.finite(0.7),
                               mu=Temperature.finite(-1.5))
        text = dumps(original)
        path.write_text(text)
        wants = list(map(run_cli, argvs))
    assert [want["argv"] for want in wants] == argvs
    copy_text = reordered(text, order)
    assert copy_text != json.dumps(json.loads(text), indent=2)
    path.write_text(copy_text)
    copy = load(str(path))
    assert copy == original and hash(copy) == hash(original)
    assert dumps(copy) == dumps(original)
    for want in wants:
        assert run_cli(want["argv"]) == want


def refuse_every_node(self):
    raise AssertionError("a path or an order was built for every node")


def test_file_calls_build_the_paths_and_orders_of_no_node(monkeypatch):
    """Every recorded call on a golden file prints the same bytes when no
    path or order of every node can be built: a control solve takes its
    root row from the flat policy, and verify names its worst node by
    walking up from it."""
    monkeypatch.setattr(DecisionTree, "paths", refuse_every_node)
    monkeypatch.setattr(DecisionTree, "orders", refuse_every_node)
    monkeypatch.chdir(GOLDEN.parent)
    wants = [want for want in RECORDED if want["argv"][1] != "--suite"]
    assert len(wants) == 144
    for want in wants:
        assert run_cli(want["argv"]) == want


@pytest.mark.parametrize("extra", [-1, 1], ids=["one too few", "one too many"])
def test_freeze_refuses_values_that_do_not_fit_the_slots(extra):
    """A value list one short would leave the last slot unset, to fail
    later far from the cause; one too long would drop a value."""
    tree = DecisionTree(TreeNode("only"))
    values = [getattr(tree, name) for name in tree.__slots__] + [None]
    with pytest.raises(ValueError):
        DecisionTree.__new__(DecisionTree)._freeze(*values[:len(tree.__slots__) + extra])


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
    assert [tree.paths()[i] for i in pre] == ["r", "r/a", "r/a/x", "r/a/y", "r/b", "r/c", "r/c/z"]
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
    assert tree == DecisionTree(TreeNode("only"))
    tv = value_recursion(tree, TemperatureSpec(1.0, 1.0))
    assert tv.root_value == 0.0 and dict(tv.values) == {"only": 0.0} and not tv.policies
    pre, post = tree.orders()
    assert pre.tolist() == post.tolist() == [0]


@pytest.mark.parametrize("temps", TEMPS, ids=str)
def test_a_kept_row_is_the_prior_bit_for_bit(temps):
    # normalised, these priors sum (math.fsum) to 1 - 2**-53, not to 1.0
    prior = [0.3123419336437785, 0.6876580666562214]
    root = node("r", [TreeNode("a"), TreeNode("b")], prior, [2.0, 2.0])
    tree = DecisionTree(root)
    assert math.fsum(root.child_prior.probs) != 1.0
    tv = value_recursion(tree, temps)
    assert tv.policies["r"].probs == root.child_prior.probs
    policy = tree_doc(tree, temps)["node_policies"]["r"]
    assert list(policy.values()) == list(root.child_prior.probs)


def huge_utility_node(name):
    """A node whose tilt at a large temperature is NaN: its log-weights are
    +inf and -inf."""
    return node(name, [TreeNode("hi"), TreeNode("lo")], [0.5, 0.5], [1e308, -1e308])


@pytest.mark.parametrize("block", [1, 2, 1 << 14])
@pytest.mark.parametrize("first", [0, 1])
def test_unnormalisable_policy_raises_the_first_error_in_post_order(first, block):
    kids = [huge_utility_node("p"), node("q", [huge_utility_node("s")], [1.0], [0.0])]
    if first:
        kids.reverse()
    root = node("r", kids, [0.5, 0.5], [0.0, 0.0])
    tree = DecisionTree(root)
    temps = TemperatureSpec(10.0, 1.0)
    with pytest.raises(DomainError) as expected:
        reference_value_recursion(root, temps)
    with pytest.raises(DomainError) as raised, patch.object(sequential, "_BLOCK_EDGES", block):
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
    cli._sweep_rows_staged(tree, "mu", [t.mu for t in TEMPS], temps)
    assert built == []
    assert len(tv.policies) == 3 and tree.names[0] == "r"
    problem = random_two_stage(np.random.default_rng(5), 4, 6)
    built.clear()
    sol = outer_policy(problem, 1.5, 0.5)
    # The action policy and the beliefs are rows value_recursion checked
    # and normalised.
    assert len(sol.outcome_beliefs) == 4 and built == []


def test_repr_of_a_deep_chain_prints_the_arrays():
    """repr reads the arrays, not the TreeNodes, so a chain far deeper than
    the recursion limit prints."""
    leaf_pair = FiniteDistribution(["x", "n"], [0.5, 0.5]), UtilityTable(["x", "n"], [0.0, 1.0])
    chain = TreeNode("n")
    for _ in range(2000):
        chain = TreeNode("n", (TreeNode("x"), chain), *leaf_pair, "mu")
    text = repr(DecisionTree(chain))
    assert text.startswith("DecisionTree(names=('n', 'x', 'n', ")
    assert "is_mu=array([ True, False,  True, " in text and "n_children=array([2, 0, 2," in text


def test_a_tree_keeps_no_reference_to_its_graph():
    """TreeNodes are an input format: once the tree is built, the caller's
    graph is freed when the caller drops it."""
    root = node("r", [node("a", [TreeNode("x")], [1.0], [2.0]), TreeNode("b")], [0.5, 0.5], [0, 1])
    graph, deepest = weakref.ref(root), weakref.ref(root.children[0].children[0])
    tree = DecisionTree(root)
    del root
    gc.collect()
    assert graph() is None and deepest() is None
    assert tree.names == ("r", "a", "b", "x") and tree.prior.tolist() == [0.5, 0.5, 1.0]


def bfs_tags(root: TreeNode) -> tuple:
    """The tags of TreeNodes in breadth-first order, a leaf's as "lambda"."""
    nodes = [root]
    for n in nodes:
        nodes.extend(n.children)
    return tuple(n.temperature_tag if n.children else "lambda" for n in nodes)


TREE_GOLDENS = sorted(p.name for p in GOLDEN.glob("tree_*.json"))
TWO_STAGE_GOLDENS = sorted(p.name for p in GOLDEN.glob("two_stage_*.json"))


@pytest.mark.parametrize("name", TREE_GOLDENS + ["leaf tagged mu"])
def test_is_mu_agrees_with_tags_on_every_build(name):
    """TreeNodes, _from_arrays, loads and pickle give the same tags and
    is_mu, and trees equal and hash as their names and tags."""
    if name in TREE_GOLDENS:
        text = (GOLDEN / name).read_text()
        root = reference_graph(text)
        built, loaded = DecisionTree(root), loads(text).problem
    else:
        root = node("r", [TreeNode("x", temperature_tag="mu"), TreeNode("y")], [0.5, 0.5], [0, 1])
        built = loaded = DecisionTree(root)
    tags = bfs_tags(root)
    again = DecisionTree._from_arrays(
        loaded.names, loaded.is_mu, loaded.n_children, loaded.prior, loaded.utility
    )
    for tree in (built, loaded, again, pickle.loads(pickle.dumps(built))):
        assert tree.tags == tags
        assert tree.is_mu.tolist() == [t == "mu" for t in tags]
        assert tree == built and hash(tree) == hash((built.names,))
        same_tree(tree, built)


def reference_two_stage_graph(problem: TwoStageProblem, root_name: str = "root") -> TreeNode:
    """The depth-2 tree as TreeNodes, one per node."""
    actions = [
        TreeNode(a, tuple(TreeNode(o) for o in problem.outcomes), problem.channel[a],
                 problem.outcome_utility[a], "mu")
        for a in problem.actions
    ]
    return TreeNode(root_name, tuple(actions), problem.prior_action, problem.action_utility,
                    "lambda")


def reference_two_stage_tree(problem: TwoStageProblem, root_name: str = "root") -> DecisionTree:
    """The depth-2 tree built through TreeNodes."""
    return DecisionTree(reference_two_stage_graph(problem, root_name))


@pytest.mark.parametrize("name", TWO_STAGE_GOLDENS)
def test_two_stage_to_tree_equals_the_treenode_tree(name):
    problem = load(str(GOLDEN / name)).problem
    for root_name in ("root", "top"):
        tree = two_stage_to_tree(problem, root_name)
        graph = reference_two_stage_graph(problem, root_name)
        reference = DecisionTree(graph)
        same_tree(tree, reference)
        assert hash(tree) == hash(reference)
        assert tree.is_mu.tolist() == [t == "mu" for t in bfs_tags(graph)]
    assert two_stage_to_tree(problem) is two_stage_to_tree(problem)  # built once


@pytest.mark.parametrize("labels", [("r/t", "a", "o"), ("root", "a/b", "o"), ("root", "a", "o/p")])
def test_two_stage_to_tree_rejects_a_slash_as_the_treenode_tree_does(labels):
    root_name, action, outcome = labels
    actions, outcomes = ["b", action], [outcome, "q"]
    row = FiniteDistribution(outcomes, [0.5, 0.5])
    problem = TwoStageProblem(
        actions, outcomes, FiniteDistribution(actions, [0.5, 0.5]), {a: row for a in actions},
        UtilityTable(actions, [0.0, 1.0]), {a: UtilityTable(outcomes, [1.0, 2.0]) for a in actions},
    )
    assert outcome_of(two_stage_to_tree, problem, root_name) == outcome_of(
        reference_two_stage_tree, problem, root_name
    )
    assert outcome_of(two_stage_to_tree, problem, root_name)[0] is DomainError
    assert outer_policy(problem, 1.0, 1.0).value  # the solve reads no path
