import contextlib
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import re
import sys
import tracemalloc
from enum import IntEnum
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from freeutil import cli, model, problemio
from freeutil.cli import _fmt_float, _solve_tree_doc
from freeutil.model import (
    DecisionTree,
    DomainError,
    DuplicateLabel,
    FiniteDistribution,
    FreeUtilError,
    LabelMismatch,
    NegativeProbability,
    NotNormalized,
    Temperature,
    TemperatureSpec,
    TreeNode,
    UnknownTemperatureTag,
    UtilityTable,
    _VALID_TAGS,
    _normalise_rows,
)
from freeutil.problemio import (
    _BLOCK,
    ProblemFile,
    _as_number,
    _as_number_list,
    _parse_tree,
    _require_keys,
    _squeezed,
    dump,
    dumps,
    load,
    loads,
    render_json,
)
from freeutil.sequential import _BLOCK_EDGES

GOLDEN = Path(__file__).parent / "golden"
VALID_GOLDENS = sorted(p.name for p in GOLDEN.glob("*.json") if not p.name.startswith("invalid_"))


def reference_render(obj, indent: int = 0) -> str:
    """The recursive CLI printer the shared writer replaced, kept as the
    reference for 12-significant-digit documents."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {reference_render(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{reference_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise DomainError(f"cannot render {type(obj).__name__} in a document")


# Strings biased towards what needs escaping: quotes, backslashes, control
# characters, non-ASCII and astral characters.
texts = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7f é€😀'))
)


def documents(floats):
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), floats, st.just(-0.0), texts
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(texts, inner, max_size=4),
        ),
        max_leaves=30,
    )


@given(documents(st.floats(allow_nan=False, allow_infinity=False)))
def test_writer_equals_stdlib_indent(obj):
    assert render_json(obj) == json.dumps(obj, indent=2)


@given(documents(st.floats()))
def test_writer_equals_recursive_cli_printer(obj):
    assert render_json(obj, _fmt_float) == reference_render(obj)


@pytest.mark.parametrize("name", VALID_GOLDENS)
def test_dumps_is_stdlib_layout(name):
    text = dumps(load(str(GOLDEN / name)))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_writer_rejects_what_json_cannot_hold():
    with pytest.raises(TypeError):
        render_json({"k": object()})
    with pytest.raises(TypeError):
        render_json({1: "non-string key"})


def test_writer_writes_a_scalar_subclass_as_its_base_type():
    class Label(str):
        pass

    obj = {Label("k"): [Label("v"), np.float64(0.1), IntEnum("E", "A")(1), np.float64(2.5)]}
    assert render_json(obj) == json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# Writing: a tree is written straight from its arrays; the reference is the
# stdlib's layout of the nested objects, built here from the TreeNodes.

# Names need escaping: quotes, backslashes, control characters, non-ASCII.
# "/" separates the names in a node path, so no name holds it.
node_names = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_characters="/"), st.sampled_from('"\\\n\t\x00\x1f\x7f é€😀')
    ),
    max_size=4,
)
edge_utilities = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308]), st.floats(-1e3, 1e3)
)
edge_weights = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.01, 10.0))


@st.composite
def tree_nodes(draw, name="root", depth=0):
    """A TreeNode up to 6 levels deep with fan-out 1 to 4; a node is a leaf
    more often the deeper it is, and the root is a leaf one time in seven."""
    if depth >= 6 or draw(st.integers(0, 6)) <= depth:
        return TreeNode(name)
    k = draw(st.integers(1, 4))
    names = draw(st.lists(node_names, min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(edge_weights, min_size=k, max_size=k))
    if not any(weights):
        weights[0] = 1.0
    # Multiples of 2**-20 that sum to exactly 1: the canonical form, which
    # loads keeps bit for bit.
    probs = [round(w / sum(weights) * 2**20) / 2**20 for w in weights]
    top = probs.index(max(probs))
    probs[top] += 1.0 - math.fsum(probs)
    return TreeNode(
        name,
        tuple(draw(tree_nodes(c, depth + 1)) for c in names),
        FiniteDistribution(names, probs),
        UtilityTable(names, draw(st.lists(edge_utilities, min_size=k, max_size=k))),
        draw(st.sampled_from(["lambda", "mu"])),
    )


def reference_payload(node: TreeNode) -> dict:
    obj = {"name": node.name}
    if node.children:
        obj["temperature_tag"] = node.temperature_tag
        obj["children"] = [
            {"prior": p, "utility": u, "node": reference_payload(c)}
            for c, p, u in zip(node.children, node.child_prior.probs, node.child_utility.values)
        ]
    return obj


# Temperatures as written in a file: a number or a limit's spelling.
LAMBDAS = [0.5, 2.0, "inf", "zero"]
MUS = [-1.5, 0.7, "-inf", "inf", "zero"]


def as_temperature(raw):
    return Temperature.parse(raw) if isinstance(raw, str) else Temperature.finite(raw)


@settings(max_examples=50, deadline=None)
@given(
    tree_nodes(),
    st.one_of(st.none(), st.sampled_from(LAMBDAS)),
    st.one_of(st.none(), st.sampled_from(MUS)),
)
def test_tree_dumps_is_the_stdlib_layout_of_the_nodes(root, lam, mu):
    doc = {"schema_version": "1", "kind": "tree", "payload": reference_payload(root)}
    temps = {key: raw for key, raw in (("lambda", lam), ("mu", mu)) if raw is not None}
    if temps:
        doc["temperatures"] = temps
    pf = ProblemFile(
        "1",
        "tree",
        DecisionTree(root),
        lam=None if lam is None else as_temperature(lam),
        mu=None if mu is None else as_temperature(mu),
    )
    text = dumps(pf)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert loads(text) == pf


def test_tree_dumps_a_chain_deeper_than_the_recursion_limit_in_the_stdlib_layout():
    """2,000 levels, about 120 MB of text. The reference lays out each level
    with json.dumps around a marker for the level below, indented to its
    depth, and the text is compared piece by piece."""
    depth = 2_000
    tip = TreeNode("leaf\n")
    levels = []
    for i in reversed(range(depth)):
        name, utility = f'n"{i}\n', [-0.0, 5e-324, -1e308][i % 3]
        tag = "mu" if i % 2 else "lambda"
        tip = TreeNode(name, (tip,), FiniteDistribution([tip.name], [1.0]),
                       UtilityTable([tip.name], [utility]), tag)
        levels.append((name, tag, utility))
    text = dumps(ProblemFile("1", "tree", DecisionTree(tip), lam=Temperature.finite(0.5)))

    marker = json.dumps("\x00")
    envelope = {"schema_version": "1", "kind": "tree", "payload": "\x00",
                "temperatures": {"lambda": 0.5}}
    pieces = [json.dumps(envelope, indent=2).split(marker)]
    for i, (name, tag, utility) in enumerate(reversed(levels)):
        obj = {"name": name, "temperature_tag": tag,
               "children": [{"prior": 1.0, "utility": utility, "node": "\x00"}]}
        pieces.append(json.dumps(obj, indent=2).replace("\n", "\n" + "  " * (1 + 3 * i)).split(marker))
    leaf = json.dumps({"name": "leaf\n"}, indent=2).replace("\n", "\n" + "  " * (1 + 3 * depth))
    at = 0
    for piece in [head for head, _ in pieces] + [leaf] + [tail for _, tail in reversed(pieces)]:
        assert text.startswith(piece, at), at
        at += len(piece)
    assert text[at:] == "\n"


DUMP_FAULTS = {
    "kind": ("tree_binary.json", {"problem": "control"}, "a 'tree' file cannot hold a ControlProblem"),
    "temperature": ("tree_binary.json", {"lam": 2.0}, "lam must be a Temperature or None, got 2.0"),
    "plain mu": ("two_stage_basic.json", {"mu": "inf"}, "mu must be a Temperature or None, got 'inf'"),
    "plain alpha": ("control_basic.json", {"alpha": 0.5}, "alpha must be a Temperature or None"),
    "alpha in a two-stage file": (
        "two_stage_basic.json",
        {"alpha": Temperature.finite(1.0)},
        "a 'two_stage' file cannot carry the temperature alpha",
    ),
    "lam in a control file": (
        "control_basic.json", {"lam": Temperature.pos_inf()}, "a 'control' file cannot carry"
    ),
    "schema version": (
        "two_stage_basic.json",
        {"schema_version": "2"},
        "unsupported schema_version '2'; expected '1'",
    ),
}


@pytest.mark.parametrize("fault", DUMP_FAULTS)
def test_a_failing_dump_leaves_the_file_as_it_was(tmp_path, fault):
    """Every field of a ProblemFile is checked before the file is opened;
    a field that loads would refuse fails dumps with a DomainError."""
    name, changes, message = DUMP_FAULTS[fault]
    if changes.get("problem") == "control":
        changes["problem"] = load(str(GOLDEN / "control_basic.json")).problem
    pf = dataclasses.replace(load(str(GOLDEN / name)), **changes)
    path = tmp_path / "problem.json"
    path.write_text("old contents")
    with pytest.raises(DomainError, match=re.escape(message)):
        dump(pf, str(path))
    assert path.read_text() == "old contents"


# ---------------------------------------------------------------------------
# Parsing: the list check on builtins and the iterative tree parser, each
# against the walk it replaced, kept here as the reference.


def outcome_of(build, *args):
    """(exception type, message) if build raises, else ("ok", result)."""
    try:
        return "ok", build(*args)
    except FreeUtilError as e:
        return type(e), str(e)


def reference_number_list(value, where):
    if not isinstance(value, list):
        raise DomainError(f"{where} must be an array of numbers")
    return [_as_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


json_scalars = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)


@given(
    st.one_of(
        st.lists(json_scalars, max_size=6),
        st.lists(st.one_of(st.integers(-3, 3), st.floats(), st.booleans()), max_size=4),
        json_scalars,
        st.dictionaries(st.text(max_size=1), json_scalars, max_size=2),
    )
)
@example([True])
@example([0.5, 1, False])
def test_number_list_matches_the_entry_walk(value):
    got = outcome_of(_as_number_list, value, "prior")
    assert got == outcome_of(reference_number_list, value, "prior")
    if got[0] == "ok":
        assert all(type(v) is float for v in got[1])


def reference_parse_node(obj, where):
    """The recursive tree parser the iterative one replaced."""
    _require_keys(obj, {"name", "temperature_tag", "children"}, {"name"}, where)
    name = obj["name"]
    if not isinstance(name, str):
        raise DomainError(f"node name in {where} must be a string")
    tag = obj.get("temperature_tag", "lambda")
    if "children" not in obj:
        # A leaf's known tag reads back as "lambda"; DecisionTree rejects any other.
        return TreeNode(name=name, temperature_tag="lambda" if tag in ("lambda", "mu") else tag)
    children_spec = obj["children"]
    if not isinstance(children_spec, list) or not children_spec:
        raise DomainError(f"children of {where} must be a nonempty array")
    children, priors, utilities = [], [], []
    for i, entry in enumerate(children_spec):
        child_where = f"{where}/children[{i}]"
        _require_keys(
            entry, {"prior", "utility", "node"}, {"prior", "utility", "node"}, child_where
        )
        priors.append(_as_number(entry["prior"], f"{child_where}.prior"))
        utilities.append(_as_number(entry["utility"], f"{child_where}.utility"))
        children.append(reference_parse_node(entry["node"], f"{child_where}.node"))
    names = [c.name for c in children]
    return TreeNode(
        name=name,
        children=tuple(children),
        child_prior=FiniteDistribution(names, priors),
        child_utility=UtilityTable(names, utilities),
        temperature_tag=tag,
    )


FAULTS = (
    "none", "none", "none", "unknown key", "name not a string", "no name",
    "children not a list", "no children", "entry not an object", "entry without prior",
    "prior a bool", "utility a string", "both numbers bad", "negative prior", "unnormalized",
    "duplicate names", "infinite utility", "bad tag",
)


@st.composite
def tree_payloads(draw, depth=0):
    """A tree payload with at most a few faults, each node at most one."""
    fault = draw(st.sampled_from(FAULTS))
    node = {"name": draw(st.sampled_from("abc"))}
    if draw(st.booleans()):
        node["temperature_tag"] = draw(st.sampled_from(["lambda", "mu"]))
    if fault == "unknown key":
        node["value"] = 1
    if fault == "name not a string":
        node["name"] = 3
    if fault == "no name":
        del node["name"]
    if fault == "bad tag":
        node["temperature_tag"] = draw(st.sampled_from(["beta", 5, None]))
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return node
    n = draw(st.integers(1, 3))
    names = ["x", "y", "z"] if fault != "duplicate names" else ["x", "x", "x"]
    entries = []
    for i in range(n):
        child = draw(tree_payloads(depth=depth + 1))
        if isinstance(child, dict) and "name" in child and isinstance(child["name"], str):
            child["name"] = names[i]
        entries.append({"prior": 1.0 / n, "utility": draw(st.integers(-2, 2)), "node": child})
    if fault == "entry not an object":
        entries[-1] = [1]
    if fault == "entry without prior":
        del entries[0]["prior"]
    if fault == "prior a bool":
        entries[0]["prior"] = True
    if fault == "utility a string":
        entries[-1]["utility"] = "1"
    if fault == "both numbers bad":
        entries[0]["prior"], entries[0]["utility"] = None, "1"
    if fault == "negative prior":
        entries[0]["prior"] = -0.5
    if fault == "unnormalized":
        entries[0]["prior"] = 2.0
    if fault == "infinite utility":
        entries[0]["utility"] = float("inf")
    node["children"] = entries
    if fault == "children not a list":
        node["children"] = {"x": 1}
    if fault == "no children":
        node["children"] = []
    return node


@given(tree_payloads())
def test_tree_parser_matches_the_recursive_parser(payload):
    got = outcome_of(_parse_tree, payload)
    assert got == outcome_of(reference_parse_node, payload, "tree payload")


def leaf_tag_file(tags) -> str:
    """A 3-node tree file whose two leaves carry the given tags."""
    kids = [
        {"prior": 0.5, "utility": float(i), "node": {"name": name, "temperature_tag": tag}}
        for i, (name, tag) in enumerate(zip("ab", tags))
    ]
    payload = {"name": "r", "temperature_tag": "mu", "children": kids}
    return json.dumps({"schema_version": "1", "kind": "tree", "payload": payload})


def test_leaf_tags_are_checked_and_read_back_as_lambda():
    for tags in [("lambda", "mu"), ("mu", "mu")]:
        pf = loads(leaf_tag_file(tags))
        assert pf.problem.tags == ("mu", "lambda", "lambda")
        assert loads(dumps(pf)) == pf
    for tags, named in [((5, "beta"), "node 'a' has temperature tag 5"),
                        (("mu", None), "node 'b' has temperature tag None")]:
        with pytest.raises(UnknownTemperatureTag, match=named):
            loads(leaf_tag_file(tags))


def test_a_built_tree_with_a_leaf_tagged_mu_loads_back_equal():
    """DecisionTree reads a leaf's known tag back as "lambda", as the file
    reader and writer do, so a built tree equals and hashes as its reload."""
    kids = (TreeNode("a", temperature_tag="mu"), TreeNode("b"))
    root = TreeNode("r", kids, FiniteDistribution("ab", [0.5, 0.5]), UtilityTable("ab", [0.0, 1.0]))
    pf = ProblemFile("1", "tree", DecisionTree(root))
    again = loads(dumps(pf))
    assert again == pf and hash(again) == hash(pf)


@pytest.mark.parametrize("fault, error, message", [
    ("negative prior", NegativeProbability, "probability of 'leaf' is -0.5"),
    ("name not a string", DomainError,
     "node name in tree payload" + "/children[0].node" * 5_000 + " must be a string"),
])
def test_tree_parser_raises_a_fault_deeper_than_the_recursion_limit(fault, error, message):
    """A fault at the bottom of a payload 5,000 deep raises its named error,
    passed out through every suspended call."""
    payload = {"name": 7 if fault == "name not a string" else "leaf"}
    prior = -0.5 if fault == "negative prior" else 1.0
    for _ in range(5_000):
        payload = {
            "name": "n",
            "temperature_tag": "mu",
            "children": [{"prior": prior, "utility": 1.0, "node": payload}],
        }
        prior = 1.0
    with pytest.raises(error) as raised:
        _parse_tree(payload)
    assert str(raised.value) == message


def test_tree_parser_handles_a_payload_deeper_than_the_recursion_limit():
    depth = 5_000
    payload = {"name": "leaf"}
    for _ in range(depth):
        payload = {
            "name": "n",
            "temperature_tag": "mu",
            "children": [{"prior": 1.0, "utility": 1.0, "node": payload}],
        }
    tree = DecisionTree(_parse_tree(payload))
    paths = tree.paths()
    assert len([paths[i] for i in tree.orders()[0].tolist()]) == depth + 1


def test_load_reports_decoder_depth_as_before(tmp_path):
    """Only the JSON decoder can run out of recursion now; its error still
    names the nesting depth."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    with pytest.raises(DomainError, match="nested 5000 levels deep"):
        load(str(path))
    with pytest.raises(DomainError, match="nested 5000 levels deep"):
        loads("[" * 5000 + "]" * 5000)


@pytest.mark.parametrize("data, byte, offset", [
    (b'{"schema_version": "1", \xff}', "0xff", 24),
    (b"\xef\xbb\xbf{}\x80", "0x80", 5),  # after a byte-order mark
    (b'{"k": "\xe2\x82', "0xe2", 7),  # a character cut short at the end
    (b"{\n" + b" " * 12 + b'"k": "\xff"}', "0xff", 20),  # after spaces load drops
])
def test_load_names_the_first_byte_that_is_not_utf8(tmp_path, data, byte, offset):
    path = tmp_path / "bytes.json"
    path.write_bytes(data)
    with pytest.raises(DomainError, match=f"not UTF-8: byte {byte} at offset {offset}$"):
        load(str(path))


TREE_TEXT = (GOLDEN / "tree_depth3.json").read_text()
# A node name that is not a string: _flat_tree refuses the payload and
# _parse_tree names the fault.
BAD_TREE = json.loads(TREE_TEXT)
BAD_TREE["payload"]["children"][0]["node"]["name"] = 7
GC_CASES = {
    "tree": (TREE_TEXT.encode(), None),
    "two-stage": ((GOLDEN / "two_stage_basic.json").read_bytes(), None),
    "invalid JSON": (b'{"schema_version": ', "not valid JSON"),
    "not UTF-8": (b'{"schema_version": "1", \xff}', "not UTF-8"),
    "too deep": (b"[" * 5000 + b"]" * 5000, "nested 5000 levels deep"),
    "huge integer": (b"1" + b"0" * 5000, "integer too large"),
    "tree fault": (json.dumps(BAD_TREE).encode(), "node name in .* must be a string"),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("reader, case", [
    (reader, case) for reader in ("load", "loads") for case in sorted(GC_CASES)
    if reader == "load" or case != "not UTF-8"  # loads takes text
])
def test_loading_leaves_the_collector_as_it_found_it(tmp_path, reader, case, enabled):
    data, error = GC_CASES[case]
    path = tmp_path / "problem.json"
    path.write_bytes(data)

    def read():
        return load(str(path)) if reader == "load" else loads(data.decode("utf-8"))

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            read()
        else:
            with pytest.raises(DomainError, match=error):
                read()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def square_two_stage_text(n: int) -> str:
    """A two-stage file with n actions and n outcomes, random rows."""
    rng = np.random.default_rng(3)
    actions, outcomes = [f"a{i}" for i in range(n)], [f"o{i}" for i in range(n)]
    channel = rng.random((n, n))
    channel /= channel.sum(axis=1, keepdims=True)
    payload = {
        "actions": actions, "outcomes": outcomes, "prior_action": [1.0 / n] * n,
        "channel": dict(zip(actions, channel.tolist())), "action_utility": [0.0] * n,
        "outcome_utility": dict(zip(actions, rng.normal(size=(n, n)).tolist())),
    }
    return json.dumps({"schema_version": "1", "kind": "two_stage", "payload": payload})


@pytest.mark.parametrize("case", ["tree", "two-stage"])
def test_loads_starts_no_collector_pass_before_the_document_is_released(case):
    """Decoding a 2,000-child tree makes far more containers than the
    collector's first threshold, and a 300×300 two-stage file 600 lists,
    yet from an empty young generation no pass starts: the reader frees each
    tree object as the decoder finishes it, and each table's 300 lists once
    it reads them into a matrix, so a two-stage file stays below the
    threshold."""
    passes = []

    def record(phase, info):
        passes.append(phase)

    if case == "tree":
        text = dumps(ProblemFile("1", "tree", DecisionTree(wide_root(2000))))
    else:
        text = square_two_stage_text(300)
    was = gc.isenabled()
    gc.enable()
    gc.collect()  # only the containers loads makes count toward the threshold
    gc.callbacks.append(record)
    try:
        loads(text)
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was else gc.disable)()
    assert passes == []


def wide_root(width: int) -> TreeNode:
    names = [f"c{i}" for i in range(width)]
    return TreeNode("r", tuple(map(TreeNode, names)), FiniteDistribution(names, [1.0 / width] * width),
                    UtilityTable(names, [float(i) for i in range(width)]))


# ---------------------------------------------------------------------------
# load drops depth indentation before it decodes; the result or the error is
# the one loads gives on the file's text.


def outcome(read):
    """What a read gives: the problem file, or the error's type and message."""
    try:
        return read()
    except Exception as e:  # any error: load must raise the same
        return type(e), str(e)


def assert_load_is_loads_of_the_text(path):
    got = outcome(lambda: load(str(path)))
    want = outcome(lambda: loads(path.read_text(encoding="utf-8")))
    assert got == want
    if isinstance(want, ProblemFile):
        assert dumps(got) == dumps(want)  # bit for bit, -0.0 included
    return got


# Text inserted into a dumped tree, anywhere or at the start of a name: a
# newline with depth indentation, which fails inside a string or a number
# and changes nothing between tokens; spaces, which a name keeps; faults.
INSERTS = ["\n" + " " * 12, "\n" + " " * 9, "\n" + " " * 8, " " * 12, "x", "\u00e9", "}", "1e999"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    tree_nodes(),
    st.sampled_from(["\n", "\r\n"]),
    st.one_of(
        st.none(),
        st.tuples(st.floats(0.0, 1.0), st.sampled_from(INSERTS), st.booleans()),
    ),
)
def test_load_is_loads_of_the_files_text(tmp_path, root, newline, insert):
    text = dumps(ProblemFile("1", "tree", DecisionTree(root), mu=Temperature.finite(0.5)))
    if insert is not None:
        where, piece, in_name = insert
        if in_name:
            names = [m.end() for m in re.finditer('"name": "', text)]
            at = names[int(where * (len(names) - 1))]
        else:
            at = int(where * len(text))
        text = text[:at] + piece + text[at:]
    path = tmp_path / "tree.json"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert_load_is_loads_of_the_text(path)


def deep_name(text: str, tail: str) -> str:
    """text with tail appended to the name of a deepest node, A2x."""
    assert text.count('"name": "A2x"') == 1
    return text.replace('"name": "A2x"', f'"name": "A2x{tail}"')


def straddling(gap: int) -> str:
    """A valid tree text whose first newline lies gap bytes before the end
    of the first block read, followed by 40 spaces."""
    return " " * (_BLOCK - gap) + "\n" + " " * 40 + TREE_TEXT


LOAD_CASES = {
    "newline and 12 spaces in a name": (
        deep_name(TREE_TEXT, "\n" + " " * 12).encode(), "not valid JSON: Invalid control character"
    ),
    "byte-order mark": (b"\xef\xbb\xbf" + TREE_TEXT.encode(), "not valid JSON: Unexpected UTF-8 BOM"),
    "nested past the decoder": (
        (("[\n" + " " * 12) * 2_000 + "]" * 2_000).encode(), "problem file is nested 2000 levels deep"
    ),
    "400-digit integer": (
        TREE_TEXT.replace('"utility": 0.5', '"utility": 1' + "0" * 400, 1).encode(),
        "utility is an integer too large for a float",
    ),
    "schema error": (
        json.dumps(BAD_TREE, indent=2).encode(), "node name in tree payload/children.* must be a string"
    ),
    "12 spaces in a name": (deep_name(TREE_TEXT, " " * 12).encode(), None),
    "unknown field": (
        deep_name(TREE_TEXT, '", "extra": "1').encode(), "unknown field 'extra' in tree payload/"
    ),
    **{f"run across a block boundary, newline {gap} bytes before": (straddling(gap).encode(), None)
       for gap in (1, 5, 9, 10, 30)},
    **{f"fault after a run across a block boundary, {gap} bytes before": (
        straddling(gap).replace(TREE_TEXT, "x" + TREE_TEXT).encode(), "not valid JSON: Expecting value"
    ) for gap in (1, 10)},
}


@pytest.mark.parametrize("case", sorted(LOAD_CASES))
def test_load_matches_loads(tmp_path, case):
    data, error = LOAD_CASES[case]
    path = tmp_path / "problem.json"
    path.write_bytes(data)
    got = assert_load_is_loads_of_the_text(path)
    if error is None:
        assert isinstance(got, ProblemFile)
    else:
        assert got[0] is DomainError and re.search(error, got[1]), got


# Every fault of LOAD_CASES, a value fault and bad UTF-8: load opens the
# file again for those whose errors name an offset, and once for the rest.
READ_ONCE_CASES = {
    **{case: data for case, (data, error) in LOAD_CASES.items() if error},
    "negative prior": TREE_TEXT.replace('"prior": 0.5', '"prior": -0.5', 1).encode(),
    "not UTF-8": b'{"schema_version": "1", \xff}',
}


@pytest.mark.parametrize("case", sorted(READ_ONCE_CASES))
def test_load_reads_a_regular_file_again_only_for_an_error_naming_an_offset(
        tmp_path, monkeypatch, case):
    """Only bad UTF-8 and a JSON decoding fault name an offset that the
    squeeze moves, so only they open the file a second time, as it stands;
    a decoding fault is told apart by its cause, not by its message. Every
    other fault, a schema or a value fault among them, opens it once."""
    path = tmp_path / "problem.json"
    path.write_bytes(READ_ONCE_CASES[case])
    opened = []

    def counted_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(problemio, "open", counted_open, raising=False)
    with pytest.raises(FreeUtilError) as raised:
        load(str(path))
    decoding = isinstance(raised.value.__cause__, json.JSONDecodeError)
    assert decoding == str(raised.value).startswith("not valid JSON")
    offset = decoding or case == "not UTF-8"
    assert opened == [str(path)] * (2 if offset else 1)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe through /dev/fd")
@pytest.mark.parametrize("data, error", [
    (TREE_TEXT.encode(), None),
    (b'{"schema_version": "1",\n' + b" " * 12 + b"x}", "Expecting property name .*line 2 column 13"),
])
def test_load_reads_a_pipe_once(data, error):
    """A pipe cannot be read twice, so load parses what it reads as it
    stands, and a failing document still names its own error."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)  # smaller than the pipe's buffer
        os.close(write_end)
        got = outcome(lambda: load(f"/dev/fd/{read_end}"))
    finally:
        os.close(read_end)
    if error is None:
        assert got == load(str(GOLDEN / "tree_depth3.json"))
    else:
        assert got[0] is DomainError and re.search(error, got[1]), got


def chain_node(depth: int) -> TreeNode:
    tip = TreeNode(f"n{depth}")
    for i in reversed(range(depth)):
        tip = TreeNode(f"n{i}", (tip,), FiniteDistribution([tip.name], [1.0]),
                       UtilityTable([tip.name], [0.5]))
    return tip


def test_load_peaks_below_half_the_file_size(tmp_path):
    """A 300-deep chain's file is mostly depth indentation, which load drops
    before it decodes: it never holds the file's bytes or text whole."""
    path = tmp_path / "chain.json"
    dump(ProblemFile("1", "tree", DecisionTree(chain_node(300))), str(path))
    size = path.stat().st_size
    assert size > 2_500_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pf = load(str(path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(pf.problem.names) == 301
    assert peak < size / 2, (peak, size)


def ternary_tree(depth: int) -> DecisionTree:
    """A complete ternary tree with children a, b and c, tags alternating by
    level, and seeded priors and utilities."""
    internal, n = (3**depth - 1) // 2, (3 ** (depth + 1) - 1) // 2
    rng = np.random.default_rng(8)
    prior = rng.uniform(0.1, 1.0, (internal, 3))
    prior /= prior.sum(axis=1, keepdims=True)
    levels = np.repeat(np.arange(depth), 3 ** np.arange(depth))  # each internal node's depth
    is_mu = [d % 2 == 1 for d in levels.tolist()]
    return DecisionTree._from_arrays(["r"] + list("abc") * (n // 3), is_mu + [False] * (n - internal),
                                     [3] * internal + [0] * (n - internal), prior.ravel(),
                                     rng.uniform(-1.0, 1.0, n - 1))


def traced_peak(call):
    """call()'s result and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_load_of_a_9841_node_tree_peaks_below_2_5_times_its_squeezed_text(tmp_path):
    """The decoder records each node and edge into flat arrays as it
    finishes it, so no node is ever an object, and the text is freed before
    the tree is built: the squeezed text, the records and the tree stay
    within 2.5 times the text."""
    path = tmp_path / "tree.json"
    tree = ternary_tree(8)
    dump(ProblemFile("1", "tree", tree), str(path))
    size = len(_squeezed(str(path)))
    pf, peak = traced_peak(lambda: load(str(path)))
    assert pf.problem.names == tree.names
    assert peak < 2.5 * size, (peak / size, size)


def test_load_of_a_300_by_300_two_stage_file_peaks_below_2_times_its_text(tmp_path):
    """The decoder reads each of the channel and utility tables into a
    matrix as it finishes it, so at most one table's rows are ever Python
    floats: the text, one table's rows and the two matrices stay within 2
    times the text (1.83 times; 2.11 times when both tables' rows were held
    as floats until the decode ended)."""
    path = tmp_path / "two_stage.json"
    dump(loads(square_two_stage_text(300)), str(path))
    size = len(path.read_text())
    pf, peak = traced_peak(lambda: load(str(path)))
    assert pf.problem.channel_matrix.shape == (300, 300)
    assert peak < 2 * size, (peak / size, size)


def test_tree_document_of_a_9841_node_tree_peaks_below_1_25_times_its_length():
    """The solve, then the document's chunks, each made as it is read, a
    chunk of nodes at a time with no list or array of text over the whole
    tree, and dropped once counted, stay within 1.25 times the document's
    length (the backup's own peak sets it, 1.09 times)."""
    tree = ternary_tree(8)
    temps = TemperatureSpec(0.7, -1.2)
    size, peak = traced_peak(lambda: sum(map(len, _solve_tree_doc(tree, temps, "nats"))))
    assert len(json.loads("".join(_solve_tree_doc(tree, temps, "nats")))["node_values"]) == 9841
    assert peak < 1.25 * size, (peak / size, size)


def test_solve_of_a_29524_node_tree_peaks_below_1_8_times_its_squeezed_text(tmp_path):
    """A whole solve in process: the squeezed text, decoded into records
    that the hook checks as it goes, is freed before the tree is built, and
    the document is written a chunk at a time, so the traced peak stays
    within 1.8 times the squeezed text (1.59 times; 2.02 times when the
    check ran after the decode and the document was held whole)."""
    path = tmp_path / "tree.json"
    dump(ProblemFile("1", "tree", ternary_tree(9)), str(path))
    size = len(_squeezed(str(path)))
    with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
        code, peak = traced_peak(lambda: cli.main(["solve", str(path)]))
    assert code == 0
    assert peak < 1.8 * size, (peak / size, size)


def test_a_failing_tree_backup_writes_nothing(tmp_path):
    """The backup runs before the document's iterator is returned, so a
    solve whose backup fails exits 3 with nothing on stdout and leaves an
    existing --output file as it was."""
    tree = ternary_tree(7)
    huge = DecisionTree._from_arrays(tree.names, tree.is_mu, tree.n_children, tree.prior,
                                     np.full(len(tree.utility), 1e308))  # gains overflow one level up
    path, target = tmp_path / "huge.json", tmp_path / "out.json"
    dump(ProblemFile("1", "tree", huge), str(path))
    target.write_bytes(b"kept\n")
    error = "DomainError: utility of 'a' is not finite: inf\n"
    for argv in (["solve", str(path)], ["solve", str(path), "--output", str(target)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert (code, out.getvalue(), err.getvalue()) == (3, "", error)
    assert target.read_bytes() == b"kept\n"
    with pytest.raises(DomainError, match="not finite: inf"):
        _solve_tree_doc(huge, TemperatureSpec(1.0, 1.0), "nats")


# A root over ROWS rows of WIDTH leaves: more than two blocks of the hook's
# row check, with row _BLOCK_EDGES // WIDTH across the first block's edge.
ROWS, WIDTH = 300, 120


def block_tree_text(fault: str) -> str:
    """The tree file, indented, with one fault."""
    rows = []
    for i in range(ROWS):
        priors = [1.0 / WIDTH] * WIDTH
        if fault == "negative prior in the first block" and i == 0:
            priors[0] = -0.5
        if fault == "unnormalised row across a block edge" and i == _BLOCK_EDGES // WIDTH:
            priors[-1] = 0.5
        rows.append({"name": f"m{i}", "children": [
            {"prior": p, "utility": 0.25, "node": {"name": f"l{j}"}} for j, p in enumerate(priors)
        ]})
    entries = [{"prior": 1.0 / ROWS, "utility": 0.5, "node": row} for row in rows]
    if fault == "repeated name among the root's children":
        entries[1]["node"]["name"] = "m0"
    if fault == "infinite utility on the last edge":
        entries[-1]["utility"] = 12345.5  # written as 1e999, which decodes to inf
    doc = {"schema_version": "1", "kind": "tree", "payload": {"name": "r", "children": entries}}
    return json.dumps(doc, indent=2).replace("12345.5", "1e999")


@pytest.mark.parametrize("fault, error, message", [
    ("negative prior in the first block", NegativeProbability, "probability of 'l0' is -0.5"),
    ("infinite utility on the last edge", DomainError, "utility of 'm299' is not finite: inf"),
    ("unnormalised row across a block edge", NotNormalized,
     "probabilities sum to 1.4916666666666667, expected 1"),
    ("repeated name among the root's children", DuplicateLabel, "duplicate outcome label 'm0'"),
], ids=["first block", "last edge", "across a block edge", "root's children"])
def test_faults_at_the_block_edges_of_the_hooks_checks(tmp_path, fault, error, message):
    """The hook checks each block of closed rows as the decoder finishes
    it, and accept the last block; a fault in the first block, on the last
    edge, in a row across a block edge or among the root's children, the
    last node closed, raises the plain reader's error from loads and load."""
    assert ROWS * (WIDTH + 1) > 2 * _BLOCK_EDGES and _BLOCK_EDGES % WIDTH
    text = block_tree_text(fault)
    path = tmp_path / "tree.json"
    path.write_text(text)
    for read, source in ((loads, text), (load, str(path))):
        with pytest.raises(error) as raised:
            read(source)
        assert type(raised.value) is error and str(raised.value) == message
    assert len(loads(block_tree_text("none")).problem.names) == 1 + ROWS * (WIDTH + 1)


@pytest.mark.parametrize("layout, blocks", [("wide rows", 3), ("ternary depth 10", 6)])
def test_each_tree_file_row_is_checked_and_normalised_once(monkeypatch, layout, blocks):
    """The hook's block checks keep the priors they normalise, so loads
    normalises each row once, one call per block, the last block's in
    closed; on 300 rows of 120 leaves under a root, and on the 88,573-node
    ternary tree, whose rows math.fsum sums. Every array is the one
    DecisionTree reads from the same graph, bit for bit, the rows across a
    block edge and in the last block included."""
    text = block_tree_text("none") if layout == "wide rows" else dumps(
        ProblemFile("1", "tree", ternary_tree(10)))
    calls, normalise = [], model._normalise_rows

    def counted(flat, starts, *args):
        calls.append(len(starts))
        return normalise(flat, starts, *args)

    for module in list(sys.modules.values()):
        if getattr(module, "_normalise_rows", None) is normalise:
            monkeypatch.setattr(module, "_normalise_rows", counted)
    tree = loads(text).problem
    reference = DecisionTree(_parse_tree(json.loads(text)["payload"]))
    assert len(calls) == blocks and sum(calls) == np.count_nonzero(tree.n_children)
    assert tree.names == reference.names
    for name in ("is_mu", "n_children", "prior", "utility"):
        got, want = getattr(tree, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


# ---------------------------------------------------------------------------
# loads records each tree node and edge into flat arrays as the decoder
# finishes it. The reference reads the plain decoded document: the plain
# readers raise its first error, and the dict walk that an earlier reader
# used reads a valid tree payload.


def dict_flat_tree(payload) -> DecisionTree | None:
    """The tree payload, decoded as dicts, read level by level into a
    DecisionTree's arrays; None if any check fails."""
    names, tags, n_children, priors, utilities = [], [], [], [], []
    leaf_tags = set()
    level = [payload]
    try:
        while level:
            below = []
            for obj in level:
                if type(obj) is not dict or not obj.keys() <= {"name", "temperature_tag", "children"}:
                    return None
                names.append(obj["name"])
                if "children" not in obj:
                    leaf_tags.add(obj.get("temperature_tag", "lambda"))
                    tags.append("lambda")
                    n_children.append(0)
                    continue
                entries = obj["children"]
                if type(entries) is not list or not entries:
                    return None
                tags.append(obj.get("temperature_tag", "lambda"))
                n_children.append(len(entries))
                for entry in entries:
                    if type(entry) is not dict or len(entry) != 3:
                        return None
                    priors.append(entry["prior"])
                    utilities.append(entry["utility"])
                    below.append(entry["node"])
            level = below
        if "/" in "".join(names) or not set(tags) | leaf_tags <= set(_VALID_TAGS):
            return None
        if not set(map(type, priors)) | set(map(type, utilities)) <= {int, float}:
            return None
        prior = np.fromiter(map(float, priors), float, len(priors))
        utility = np.fromiter(map(float, utilities), float, len(utilities))
        if not (np.isfinite(utility).all() and (prior >= 0.0).all()):
            return None
        counts = [k for k in n_children if k]
        bounds = np.cumsum([0] + counts)
        child_names = names[1:]
        segments = map(slice, bounds.tolist(), bounds[1:].tolist())
        if list(map(len, map(set, map(child_names.__getitem__, segments)))) != counts:
            return None
        if not _normalise_rows(prior, bounds[:-1]).all():
            return None
    except (KeyError, TypeError, OverflowError):
        return None
    return DecisionTree._from_arrays(names, [t == "mu" for t in tags], n_children, prior, utility)


def reference_loads(text: str) -> ProblemFile:
    """loads without the array reader: the plain decoded document read by
    _parse_tree and the control and two-stage parsers, a tree payload they
    accept read by the dict walk."""
    raw = json.loads(text, parse_constant=problemio._reject_constant)
    pf = problemio._problem_file(raw)()
    return dataclasses.replace(pf, problem=dict_flat_tree(raw["payload"])) if pf.kind == "tree" else pf


def assert_loads_like_the_reference(doc):
    text = json.dumps(doc)
    got, want = outcome(lambda: loads(text)), outcome(lambda: reference_loads(text))
    assert got == want
    if isinstance(want, ProblemFile):
        assert dumps(got) == dumps(want)  # bit for bit, -0.0 included


# Labels that are the keys of a node or an edge.
FIELD_LABELS = ["prior", "utility", "node", "name", "children", "temperature_tag"]
# Values shaped like a node or an edge, or nearly: in the writer's key order
# or another, with a tag or a name that is not a string, or children that
# are not a list.
NODE_SHAPED = [
    {"name": "x"},
    {"name": "x", "temperature_tag": "mu"},
    {"temperature_tag": "lambda", "name": "x"},
    {"name": "x", "temperature_tag": None},
    {"name": "x", "children": []},
    {"name": "x", "children": {"name": "y"}},
    {"name": "x", "temperature_tag": "mu", "children": [{"prior": 1, "utility": 2, "node": {"name": "y"}}]},
    {"prior": 1, "utility": 2, "node": {"name": "y"}},
    {"node": {"name": "y"}, "prior": 1, "utility": 2},
    {"prior": 1, "utility": 2, "node": {"prior": 1, "utility": 2, "node": {"name": "y"}}},
    {"name": 3},
    {"name": "x", "temperature_tag": "beta"},
]


def document(kind: str, payload, temperatures) -> dict:
    return {"schema_version": "1", "kind": kind, "payload": payload, "temperatures": temperatures}


@st.composite
def control_documents(draw):
    outcomes = draw(st.lists(st.sampled_from(FIELD_LABELS), min_size=1, max_size=3, unique=True))
    k = len(outcomes)
    utility = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    return document("control", {"outcomes": outcomes, "prior": [1 / k] * k, "utility": utility},
                    {"alpha": 0.5})


@st.composite
def two_stage_documents(draw):
    labels = st.lists(st.sampled_from(FIELD_LABELS), min_size=1, max_size=3, unique=True)
    actions, outcomes = draw(labels), draw(labels)
    rows = st.lists(st.integers(-2, 2), min_size=len(outcomes), max_size=len(outcomes))
    payload = {
        "actions": actions,
        "outcomes": outcomes,
        "prior_action": [1 / len(actions)] * len(actions),
        "channel": {a: [1 / len(outcomes)] * len(outcomes) for a in actions},
        "action_utility": draw(st.lists(st.integers(-2, 2), min_size=len(actions),
                                        max_size=len(actions))),
        "outcome_utility": {a: draw(rows) for a in actions},
    }
    return document("two_stage", payload, {"lambda": 1.0, "mu": -1.0})


tree_documents = st.one_of(tree_nodes().map(reference_payload), tree_payloads()).map(
    lambda payload: document("tree", payload, {"lambda": 2.0, "mu": "-inf"})
)


def slots(top: list) -> list:
    """Every (container, key) of the lists and objects under top, a list."""
    found, stack = [], [top]
    while stack:
        container = stack.pop()
        for key, value in list(container.items() if type(container) is dict else enumerate(container)):
            found.append((container, key))
            if type(value) in (dict, list):
                stack.append(value)
    return found


@st.composite
def mixed_documents(draw):
    """A control, two-stage or tree document, some of its values replaced by
    node-shaped ones and some of its objects' keys reordered."""
    top = [draw(st.one_of(control_documents(), two_stage_documents(), tree_documents))]
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(slots(top)))
        if draw(st.booleans()):
            container[key] = json.loads(json.dumps(draw(st.sampled_from(NODE_SHAPED))))
        elif type(container[key]) is dict:
            obj = container[key]
            container[key] = {k: obj[k] for k in draw(st.permutations(list(obj)))}
    return top[0]


@settings(max_examples=300, deadline=None)
@given(mixed_documents())
def test_loads_reads_every_document_as_the_plain_reader_does(doc):
    assert_loads_like_the_reference(doc)


VALID_TREE = json.loads(TREE_TEXT)


def with_value(doc: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    container = doc
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    return doc


EDGE_SHAPED = {"prior": [0.5, 0.5], "utility": [1, 2], "node": {"name": "x"}}
NODE_SHAPED_CASES = {
    "labels named like fields": lambda: document("two_stage", {
        "actions": ["prior", "utility", "node"],
        "outcomes": ["name", "temperature_tag"],
        "prior_action": [0.25, 0.25, 0.5],
        "channel": {"prior": [0.5, 0.5], "utility": [1, 0], "node": {"name": "x"}},
        "action_utility": [1, 2, 3],
        "outcome_utility": {"prior": [1, 2], "utility": [3, 4], "node": [5, 6]},
    }, {"lambda": 1.0, "mu": -1.0}),
    "channel a node": lambda: with_value(
        json.loads((GOLDEN / "two_stage_basic.json").read_text()), ("payload", "channel"), {"name": "x"}),
    "temperatures a node": lambda: with_value(VALID_TREE, ("temperatures",), {"name": "x"}),
    "control payload an edge": lambda: with_value(
        json.loads((GOLDEN / "control_basic.json").read_text()), ("payload",), EDGE_SHAPED),
    "name not a string under recorded parents": lambda: with_value(
        VALID_TREE, ("payload", "children", 0, "node", "children", 0, "node", "name"), 5),
    "tag not a string under recorded parents": lambda: with_value(
        VALID_TREE, ("payload", "children", 0, "node", "temperature_tag"), ["mu"]),
    "keys in another order": lambda: with_value(
        VALID_TREE, ("payload", "children", 0), dict(reversed(VALID_TREE["payload"]["children"][0].items()))),
    "document a node": lambda: {"name": "x", "temperature_tag": "mu"},
    # Counted without the order of the records, these would read as r over
    # y and w, priors 1 and 0.
    "an edge in a node's place and a node in an edge's place": lambda: document("tree", {
        "name": "r",
        "children": [{"prior": 0, "utility": 0, "node": {"prior": 1, "utility": 0, "node": {"name": "y"}}},
                     {"name": "w"}],
    }, {"lambda": 1.0}),
}


@pytest.mark.parametrize("case", sorted(NODE_SHAPED_CASES))
def test_loads_reads_node_shaped_values_as_the_plain_reader_does(case):
    assert_loads_like_the_reference(NODE_SHAPED_CASES[case]())


# A tree with every key set a node may have: a tagged and an untagged
# internal node and leaf.
KEYED_TREE = document("tree", {"name": "r", "temperature_tag": "mu", "children": [
    {"prior": 0.25, "utility": 1, "node": {"name": "a", "children": [
        {"prior": 1, "utility": -0.5, "node": {"name": "x", "temperature_tag": "lambda"}}]}},
    {"prior": 0.75, "utility": 2.5, "node": {"name": "b"}},
]}, {"mu": -1.0})
EDGE_KEY_ORDERS = list(itertools.permutations(["prior", "utility", "node"]))
NODE_KEY_ORDERS = [keys for fields in (["name"], ["name", "temperature_tag"], ["name", "children"],
                                       ["name", "temperature_tag", "children"])
                   for keys in itertools.permutations(fields)]


def reordered(value, keys: tuple):
    """A copy of a decoded value whose objects with the key set of keys have
    their keys in that order."""
    if type(value) is list:
        return [reordered(v, keys) for v in value]
    if type(value) is not dict:
        return value
    order = keys if value.keys() == set(keys) else value
    return {k: reordered(value[k], keys) for k in order}


@pytest.mark.parametrize("keys", EDGE_KEY_ORDERS + NODE_KEY_ORDERS, ids=",".join)
def test_every_key_order_of_an_edge_and_a_node_is_read_into_the_arrays(keys):
    """All 17 key orders of an edge (6) and a node (11) are recorded by the
    decoder's hook: the tree loads with _parse_tree refused, as the writer's
    order loads."""
    assert len(EDGE_KEY_ORDERS) + len(NODE_KEY_ORDERS) == 17
    text = json.dumps(reordered(KEYED_TREE, keys))
    with patch.object(problemio, "_parse_tree", side_effect=AssertionError("the plain reader ran")):
        got = loads(text)
    want = loads(json.dumps(KEYED_TREE))
    assert got == want and dumps(got) == dumps(want)


# Documents with room for a node- or edge-shaped value outside any tree: a
# tree file's temperatures and a top-level key it does not name, and control
# and two-stage payloads.
TEMPERED_TREE = {**VALID_TREE, "temperatures": {"lambda": 1.0, "mu": -1.0}}
SHAPED_PLACES = {
    "tree temperatures": (TEMPERED_TREE, ("temperatures",)),
    "tree temperature": (TEMPERED_TREE, ("temperatures", "mu")),
    "tree unknown key": (TEMPERED_TREE, ("notes",)),
    "control payload": (json.loads((GOLDEN / "control_basic.json").read_text()), ("payload",)),
    "control prior": (json.loads((GOLDEN / "control_basic.json").read_text()), ("payload", "prior")),
    "two-stage channel": (json.loads((GOLDEN / "two_stage_basic.json").read_text()), ("payload", "channel")),
    "two-stage row": (json.loads((GOLDEN / "two_stage_basic.json").read_text()),
                      ("payload", "outcome_utility", "safe")),
    "two-stage temperatures": (json.loads((GOLDEN / "two_stage_basic.json").read_text()), ("temperatures",)),
}


@pytest.mark.parametrize("place", sorted(SHAPED_PLACES))
@pytest.mark.parametrize("shaped", NODE_SHAPED, ids=repr)
def test_a_node_or_an_edge_outside_a_tree_is_read_as_the_plain_reader_reads_it(place, shaped):
    doc, path = SHAPED_PLACES[place]
    assert_loads_like_the_reference(with_value(doc, path, shaped))


def chain_document(depth: int) -> str:
    """A tree file, without indentation, whose payload is a chain of depth
    edges."""
    text = '{"name": "n"}'
    for _ in range(depth):
        text = ('{"name": "n", "temperature_tag": "mu", "children": '
                '[{"prior": 1, "utility": 1, "node": ' + text + "}]}")
    return '{"schema_version": "1", "kind": "tree", "payload": ' + text + "}"


def plain_decodes(text: str) -> bool:
    """Whether plain json.loads decodes text, called one frame below the
    caller as loads calls it."""
    try:
        json.loads(text)
    except RecursionError:
        return False
    return True


def frames_below(extra: int, call):
    return call() if extra == 0 else frames_below(extra - 1, call)


@pytest.mark.parametrize("extra", range(3))
def test_loads_takes_the_deepest_chain_plain_json_takes(extra):
    """The hook's calls cost the decoder nesting depth, so the deepest chain
    plain json.loads takes loads only because loads decodes it once more
    without the hook. The depth to spare varies with the stack's depth, so
    three are tried."""

    def check():
        lo, hi = 1, 2_000  # plain json.loads takes a chain lo edges deep, not hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if plain_decodes(chain_document(mid)) else (lo, mid)
        assert len(loads(chain_document(lo)).problem.names) == lo + 1
        with pytest.raises(DomainError, match="past the parser's limit"):
            loads(chain_document(lo + 1))

    frames_below(extra, check)


# ---------------------------------------------------------------------------
# One reader reads a document decoded with the hook and one decoded without
# it. Of several faults, the header's is raised first, then the payload's,
# then the temperatures'.


def golden_document(name: str, *faults) -> dict:
    """A golden file's document with each fault, a call that edits it in
    place, applied."""
    doc = json.loads((GOLDEN / name).read_text())
    for fault in faults:
        fault(doc)
    return doc


def header_fault(doc):
    doc["schema_version"] = "2"


def temperature_fault(key):
    return lambda doc: doc.update(temperatures={key: "hot"})


def payload_fault(path, value=None):
    """Sets the payload's value at path, or deletes it for value None."""
    def fault(doc):
        container = doc["payload"]
        for key in path[:-1]:
            container = container[key]
        if value is None:
            del container[path[-1]]
        else:
            container[path[-1]] = value
    return fault


NODE_A = ("children", 0, "node")
# Per case: the golden file, its payload fault or None, its temperature, and
# the error the payload fault raises. The hook reads the control and the
# action_utility documents and the tree without a payload fault; the reader
# refuses the records of the missing row and the named tree; the hook itself
# refuses the siblings named alike while the text decodes.
PRECEDENCE_CASES = {
    "control, negative prior": ("control_basic.json", payload_fault(("prior", 0), -0.5),
                                "alpha", NegativeProbability),
    "two-stage, missing channel row": ("two_stage_basic.json", payload_fault(("channel", "safe")),
                                       "mu", LabelMismatch),
    "two-stage, action_utility not a number": (
        "two_stage_basic.json", payload_fault(("action_utility", 0), "x"), "mu", DomainError),
    "tree, a node named r/": ("tree_depth3.json", payload_fault(("name",), "r/"), "lambda", DomainError),
    "tree, siblings named alike": ("tree_depth3.json", payload_fault(("children", 1, "node", "name"), "A"),
                                   "lambda", DuplicateLabel),
    "tree, accepted by the hook": ("tree_depth3.json", None, "lambda", None),
}


def raised(tmp_path, doc) -> tuple:
    """The error's type and message, the same from loads of the document's
    indented text and from load of a file holding it."""
    text = json.dumps(doc, indent=2)
    path = tmp_path / "doc.json"
    path.write_text(text)
    errors = []
    for read in (lambda: loads(text), lambda: load(str(path))):
        with pytest.raises(FreeUtilError) as e:
            read()
        errors.append((type(e.value), str(e.value)))
    assert errors[0] == errors[1]
    return errors[0]


@pytest.mark.parametrize("case", sorted(PRECEDENCE_CASES))
def test_a_header_fault_is_raised_before_payload_and_temperature_faults(tmp_path, case):
    name, fault, key, _ = PRECEDENCE_CASES[case]
    faults = [f for f in (fault, temperature_fault(key)) if f]
    want = (DomainError, "unsupported schema_version '2'; expected '1'")
    assert raised(tmp_path, golden_document(name, header_fault)) == want
    assert raised(tmp_path, golden_document(name, header_fault, *faults)) == want


@pytest.mark.parametrize("case", sorted(PRECEDENCE_CASES))
def test_a_payload_fault_is_raised_before_a_temperature_fault(tmp_path, case):
    name, fault, key, error = PRECEDENCE_CASES[case]
    bad_temperature = raised(tmp_path, golden_document(name, temperature_fault(key)))
    assert bad_temperature[0] is DomainError
    if fault is None:
        return
    want = raised(tmp_path, golden_document(name, fault))
    assert want[0] is error and want != bad_temperature
    assert raised(tmp_path, golden_document(name, fault, temperature_fault(key))) == want


def count_decodes(monkeypatch) -> list:
    """A list that grows by one entry per json.loads call from now on."""
    calls, decode = [], json.loads

    def counted(*args, **kwargs):
        calls.append(None)
        return decode(*args, **kwargs)

    monkeypatch.setattr(problemio.json, "loads", counted)
    return calls


def test_a_file_that_loads_is_decoded_once(tmp_path, monkeypatch):
    """Every golden file that loads, and a seeded ternary tree of depth 6
    shaped as the harness's tree-88k, through loads and through load."""
    tree = tmp_path / "ternary.json"
    dump(ProblemFile("1", "tree", ternary_tree(6), lam=Temperature.coerce(2.0), mu=Temperature.coerce(-1.0)), str(tree))
    paths = [GOLDEN / name for name in VALID_GOLDENS] + [tree]
    texts = [path.read_text() for path in paths]
    calls = count_decodes(monkeypatch)
    for path, text in zip(paths, texts):
        for read in (lambda: loads(text), lambda: load(str(path))):
            calls.clear()
            read()
            assert len(calls) == 1, path.name


@pytest.mark.parametrize("name, fault, error, message", [
    ("tree_depth3.json", payload_fault(("name",), "r/"), DomainError,
     "node name 'r/' contains '/', which separates the names in a node path"),
    ("two_stage_basic.json", payload_fault(("channel", "safe")), LabelMismatch,
     "channel must have exactly one row per action"),
    ("two_stage_basic.json", payload_fault(("outcomes", 1), "low"), DuplicateLabel,
     "duplicate outcome label 'low'"),
], ids=["tree", "two-stage file", "two-stage outcomes repeating a label"])
def test_a_refused_file_is_decoded_twice(tmp_path, monkeypatch, name, fault, error, message):
    """Once with the hook, and once more without it for the error the plain
    readers raise; a regular file's text is read once."""
    text = json.dumps(golden_document(name, fault), indent=2)
    path = tmp_path / name
    path.write_text(text)
    calls = count_decodes(monkeypatch)
    for read in (lambda: loads(text), lambda: load(str(path))):
        calls.clear()
        with pytest.raises(FreeUtilError) as e:
            read()
        assert (type(e.value), str(e.value), len(calls)) == (error, message, 2)


# Per case: a golden file, a temperatures block that fails, and whether the
# hook leaves every value of the block as the plain decode reads it.
TEMPERATURE_FAULTS = {
    "tree, a mu spelled warm": ("tree_depth3.json", {"mu": "warm"}, True),
    "tree, a 400-digit lambda": ("tree_depth3.json", {"lambda": 10**400}, True),
    "control, a boolean alpha": ("control_basic.json", {"alpha": True}, True),
    "two-stage, a null lambda": ("two_stage_basic.json", {"lambda": None}, True),
    "two-stage, an unknown field": ("two_stage_basic.json", {"beta": 1.5}, True),
    "tree, a list value": ("tree_depth3.json", {"mu": ["warm"]}, False),
    "tree, a node as a value": ("tree_depth3.json", {"mu": {"name": "x"}}, False),
    "two-stage, a table": ("two_stage_basic.json", {"lambda": [1], "mu": [2]}, False),
    "control, a list block": ("control_basic.json", [1], False),
}


@pytest.mark.parametrize("case", sorted(TEMPERATURE_FAULTS))
def test_a_temperature_fault_of_plain_values_is_decoded_once(tmp_path, monkeypatch, case):
    """A file whose only fault is its temperatures block raises the plain
    decode's exact error. A block whose values are all JSON scalars is read
    the same from the hooked document, so its error is raised without a
    second decode; any other block takes the fallback."""
    name, temps, plain = TEMPERATURE_FAULTS[case]
    text = json.dumps(golden_document(name, lambda doc: doc.update(temperatures=temps)), indent=2)
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FreeUtilError) as e:
        problemio._problem_file(json.loads(text))
    want = (type(e.value), str(e.value))
    calls = count_decodes(monkeypatch)
    for read in (lambda: loads(text), lambda: load(str(path))):
        calls.clear()
        with pytest.raises(FreeUtilError) as e:
            read()
        assert (type(e.value), str(e.value)) == want
        assert len(calls) == (1 if plain else 2)
