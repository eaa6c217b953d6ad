"""The tree solve document, written by one % template per table, against
the old layout: a dict of the labelled results rendered as a whole."""
import pytest
from hypothesis import example, given, settings, strategies as st

from freeutil import cli
from freeutil.model import (
    DecisionTree,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TemperatureSpec,
    TreeNode,
    UtilityTable,
)
from freeutil.problemio import render_json
from freeutil.sequential import regime_label, value_recursion


def old_layout(root: TreeNode, temps: TemperatureSpec) -> dict:
    """The document as the dict the writer once built, walking the TreeNodes
    depth first; render_json writes it with 12-digit floats."""
    tv = value_recursion(DecisionTree(root), temps)
    node_values, node_policies = {}, {}
    stack = [(root.name, root)]
    while stack:
        path, node = stack.pop()
        stack.extend((f"{path}/{c.name}", c) for c in reversed(node.children))
        node_values[path] = tv.values[path]
        if node.children:
            policy = tv.policies[path]
            node_policies[path] = dict(zip(policy.outcomes, policy.probs))
    return {
        "command": "solve",
        "kind": "tree",
        "lambda": temps.lam.spell(),
        "mu": temps.mu.spell(),
        "regime": regime_label(temps),
        "value": tv.root_value,
        "node_values": node_values,
        "node_policies": node_policies,
    }


NAME_CHARS = st.sampled_from(list("ab%s%d%%\"\\'{}:,\n\t\x00\x1fé€\U0001f600 "))
names = st.text(NAME_CHARS, min_size=1, max_size=4)
utilities = st.one_of(
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
weights = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.01, 1.0))
lams = st.sampled_from([Temperature.finite(1.0), Temperature.finite(3.0), Temperature.pos_inf()])
mus = st.one_of(lams, st.sampled_from([
    Temperature.finite(-0.5), Temperature.zero(), Temperature.neg_inf(),
]))


def node(draw, name: str, depth: int, budget: list) -> TreeNode:
    """A subtree of at most depth 6 below the root, and of at most budget[0]
    more nodes in the whole tree."""
    tag = draw(st.sampled_from(["lambda", "mu"]))
    k = draw(st.integers(0, min(4, budget[0]))) if depth < 6 else 0
    budget[0] -= k
    if not k:
        return TreeNode(name, temperature_tag=tag)
    child_names = draw(st.lists(names, min_size=k, max_size=k, unique=True))
    raw = draw(st.lists(weights, min_size=k, max_size=k))
    if sum(raw) == 0.0:
        raw[0] = 1.0
    total = sum(raw)
    children = tuple(node(draw, c, depth + 1, budget) for c in child_names)
    return TreeNode(
        name, children,
        FiniteDistribution(child_names, [w / total for w in raw]),
        UtilityTable(child_names, draw(st.lists(utilities, min_size=k, max_size=k))),
        tag,
    )


@st.composite
def trees(draw) -> TreeNode:
    return node(draw, draw(names), 0, [30])


def chain(depth: int) -> TreeNode:
    """A path of depth + 1 nodes, built from its leaf up."""
    below = TreeNode("%s")
    for i in range(depth):
        below = TreeNode("%" if i % 2 else "x", (below,), FiniteDistribution([below.name], [1.0]),
                         UtilityTable([below.name], [(-1.0) ** i * 0.5]),
                         "mu" if i % 3 else "lambda")
    return below


def wide(k: int) -> TreeNode:
    """A mu-tagged root over k leaves."""
    names = [f"c{i}" for i in range(k)]
    return TreeNode("r", tuple(map(TreeNode, names)), FiniteDistribution.uniform(names),
                    UtilityTable(names, [i % 7 - 3.0 for i in range(k)]), "mu")


def assert_writes_the_old_layout(root, temps):
    tree = DecisionTree(root)
    try:
        doc = old_layout(root, temps)
    except FreeUtilError as e:  # utilities near the float range can overflow a backup
        with pytest.raises(type(e)) as raised:
            "".join(cli._solve_tree_doc(tree, temps, "nats"))
        assert str(raised.value) == str(e)
        return
    for units in ("nats", "bits"):  # no key is a relative entropy; units is a label
        expected = render_json({**doc, "units": units}, cli._fmt_float)
        assert "".join(cli._solve_tree_doc(tree, temps, units)) == expected


@settings(max_examples=100, deadline=None)
@given(trees(), lams, mus)
@example(TreeNode("%s"), Temperature.finite(1.0), Temperature.finite(1.0))
# The second 1,024-node chunk of the pre-order holds no internal node.
@example(wide(1500), Temperature.finite(1.0), Temperature.finite(2.0))
def test_tree_document_equals_the_old_layout(root, lam, mu):
    assert_writes_the_old_layout(root, TemperatureSpec(lam, mu))


def test_deep_chain_document_equals_the_old_layout():
    assert_writes_the_old_layout(chain(2000), TemperatureSpec(1.0, -2.0))


def test_negative_zero_is_written_as_zero():
    assert "%.12g" % (-0.0 + 0.0) == cli._fmt_float(-0.0) == "0"
