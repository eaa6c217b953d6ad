import dataclasses
import gc
import json
import math
import re
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freeutil.cli import _fmt_float
from freeutil.model import (
    DecisionTree,
    DomainError,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TreeNode,
    UnknownTemperatureTag,
    UtilityTable,
)
from freeutil.problemio import (
    ProblemFile,
    _as_number,
    _as_number_list,
    _parse_tree,
    _require_keys,
    dump,
    dumps,
    load,
    loads,
    render_json,
)

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
    assert sum(1 for _ in tree.iter_nodes()) == depth + 1


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


def test_loads_starts_no_collector_pass_before_the_document_is_released():
    """The decoded tree holds far more containers than the collector's first
    threshold, yet no pass starts from the decode until the decoded document
    is freed."""
    passes = []

    def record(phase, info):
        passes.append(phase)

    text = dumps(ProblemFile("1", "tree", DecisionTree(wide_root(2000))))
    was = gc.isenabled()
    gc.enable()
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
