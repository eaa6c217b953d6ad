"""Problem-file loading and serialization.

Files are JSON with a fixed schema: a version tag, a kind discriminator
("control", "two_stage", "tree"), the kind's payload, and an optional
temperatures block. Parsing is strict — unknown fields anywhere are
rejected, numbers must be numbers (booleans are not), and every structural
invariant is enforced at load time so downstream code never sees a
half-valid problem. Temperature limits are spelled as the strings "inf",
"-inf", and "zero" rather than non-portable float infinities; the JSON
extensions Infinity, -Infinity and NaN are rejected.

A file that is not UTF-8 fails with a DomainError naming the offset of its
first bad byte.

loads() decodes with an object_hook, _fold, that turns each tree node and
edge into a tuple as soon as the decoder finishes it, so a tree's nodes never
exist as dicts; _flat_tree reads the tuples into the tree's arrays. Only
objects in the writer's key order fold, and a fold keeps everything else
about them, so when the folded document fails any check, _unfold gives back
the plain decoded document, with an explicit stack, and the readers of plain
documents (_parse_tree for a tree, the control and two-stage parsers) raise
the error the text meets first. A tree whose keys are in another order is
read by _parse_tree. The hook's calls cost the decoder nesting depth, so on a
RecursionError the text is decoded once more without the hook, and only then
refused as too deep.

load() reads a file in binary blocks and drops every run of 9 or more
spaces that follows a newline before it decodes the text once. That is a
tree's depth indentation, most of a deep tree's file (82 % of a tree of
88k nodes); the fixed-depth layouts of control and two-stage files indent
at most 8 spaces and keep every byte. Strict JSON rejects a raw newline
inside a string, so in an accepted text every newline lies between tokens
and the spaces after it carry nothing; the newline itself stays, so a text
with a newline inside a string still fails. When the squeezed text is not
UTF-8 or loads refuses it, load reads the file again as it stands and
parses that, so every error names the file's own line, column and byte
offset. A path that is not a regular file, such as a pipe, is read once,
as it stands.

dump() writes the canonical form (normalized probabilities, full-precision
floats), so load → dump → load is an identity. Two writers share one layout:
render_json() recursively writes the documents the package builds (file
headers, control and two-stage payloads and, with 12-digit floats, the CLI's
documents), whose nesting the schema fixes; _tree_parts writes a tree
payload, whose depth comes from the input, with an explicit stack.
"""
from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .model import (
    LAMBDA_TAG,
    ControlProblem,
    DecisionTree,
    DomainError,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TreeNode,
    TwoStageProblem,
    UtilityTable,
    _VALID_TAGS,
    _normalise_rows,
)

SCHEMA_VERSION = "1"

KINDS = ("control", "two_stage", "tree")


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem file: the problem plus any temperatures it declares.

    Control problems may carry alpha; two-stage and tree problems may carry
    lam and mu. Absent temperatures are None and fall back to CLI flags or
    defaults.
    """

    schema_version: str
    kind: str
    problem: ControlProblem | TwoStageProblem | DecisionTree
    alpha: Temperature | None = None
    lam: Temperature | None = None
    mu: Temperature | None = None


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise DomainError(f"{where} must be an object, got {type(obj).__name__}")
    for k in obj:
        if k not in allowed:
            raise DomainError(f"unknown field {k!r} in {where}")
    # Sorted: a set of strings iterates in an order that varies per process.
    for k in sorted(required):
        if k not in obj:
            raise DomainError(f"missing field {k!r} in {where}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{where} is an integer too large for a float") from None


def _as_number_list(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise DomainError(f"{where} must be an array of numbers")
    if set(map(type, value)) <= {int, float}:
        try:
            return list(map(float, value))
        except OverflowError:
            pass
    return [_as_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _as_label_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DomainError(f"{where} must be an array of strings")
    return list(value)


def _as_temperature(value, where: str) -> Temperature:
    if isinstance(value, str):
        return Temperature.parse(value)
    return Temperature.coerce(_as_number(value, where))


def _parse_control(payload: dict) -> ControlProblem:
    _require_keys(
        payload,
        {"outcomes", "prior", "utility"},
        {"outcomes", "prior", "utility"},
        "control payload",
    )
    outcomes = _as_label_list(payload["outcomes"], "outcomes")
    prior = FiniteDistribution(outcomes, _as_number_list(payload["prior"], "prior"))
    utility = UtilityTable(outcomes, _as_number_list(payload["utility"], "utility"))
    return ControlProblem(prior, utility)


def _row_arrays(actions, outcomes, channel: dict, utility: dict):
    """The channel and outcome utility rows as two A×O arrays, checked array
    by array, the channel rows normalised as FiniteDistribution normalises;
    None if the rows are keyed in another order than the actions or any row
    fails a check of its labelled constructor."""
    n, width = len(actions), len(outcomes)
    rows = [*channel.values(), *utility.values()]
    if not list(channel) == actions == list(utility) or len(set(outcomes)) != width:
        return None
    if not all(type(row) is list and len(row) == width for row in rows):
        return None
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        return None
    try:
        matrix = np.array(rows, dtype=float)
        if not (np.isfinite(matrix).all() and (matrix[:n] >= 0.0).all()):
            return None
        if not _normalise_rows(matrix[:n].ravel(), np.arange(n) * width).all():
            return None
    except OverflowError:  # an integer too large for a float, or a sum past the float range
        return None
    return matrix[:n], matrix[n:]


def _parse_two_stage(payload: dict) -> TwoStageProblem:
    """The two-stage payload, its rows read straight into arrays; if
    _row_arrays refuses them, as labelled rows, to raise the error met first
    or to keep rows keyed in another order than the actions."""
    keys = {"actions", "outcomes", "prior_action", "channel", "action_utility", "outcome_utility"}
    _require_keys(payload, keys, keys, "two_stage payload")
    actions = _as_label_list(payload["actions"], "actions")
    outcomes = _as_label_list(payload["outcomes"], "outcomes")
    prior = FiniteDistribution(
        actions, _as_number_list(payload["prior_action"], "prior_action")
    )
    if not isinstance(payload["channel"], dict):
        raise DomainError("channel must be an object keyed by action")
    if not isinstance(payload["outcome_utility"], dict):
        raise DomainError("outcome_utility must be an object keyed by action")
    arrays = _row_arrays(actions, outcomes, payload["channel"], payload["outcome_utility"])
    if arrays is None:
        channel = {
            a: FiniteDistribution(outcomes, _as_number_list(row, f"channel[{a!r}]"))
            for a, row in payload["channel"].items()
        }
    action_utility = UtilityTable(
        actions, _as_number_list(payload["action_utility"], "action_utility")
    )
    if arrays is not None:
        return TwoStageProblem._from_arrays(actions, outcomes, prior, action_utility, *arrays)
    outcome_utility = {
        a: UtilityTable(outcomes, _as_number_list(row, f"outcome_utility[{a!r}]"))
        for a, row in payload["outcome_utility"].items()
    }
    return TwoStageProblem(
        actions, outcomes, prior, channel, action_utility, outcome_utility
    )


class _Folded(tuple):
    """A folded node or edge. CPython keeps freed plain tuples of a small
    size for reuse without counting them as freed, so a document of plain
    tuples would leave the cyclic collector's young-generation count
    thousands high, and a pass would start at the next allocation; a
    subclass is freed and counted like any other container."""

    __slots__ = ()


def _fold(obj: dict):
    """The object_hook loads decodes with: a tree's edge or node as a
    _Folded tuple as soon as the decoder finishes it, any other object as it
    is.

    An edge, keys prior, utility and node in that order, whose node is
    already folded, becomes (prior, utility, node). A node, keys name, then
    temperature_tag, then children, each but the name optional, with a str
    name, a str tag and a list of children, becomes (name, tag) for a leaf
    and (name, tag, children) otherwise; an absent tag is None. Nothing else
    folds, so _unfold can give back exactly the objects the decoder made.
    """
    if len(obj) == 3:
        k0, k1, k2 = obj
        if k0 == "prior" and k1 == "utility" and k2 == "node":
            if type(obj["node"]) is _Folded:
                return _Folded(obj.values())
        elif k0 == "name" and k1 == "temperature_tag" and k2 == "children":
            name, tag, children = obj.values()
            if type(name) is str and type(tag) is str and type(children) is list:
                return _Folded((name, tag, children))
    elif len(obj) == 1:
        name = obj.get("name")
        if type(name) is str:
            return _Folded((name, None))
    elif len(obj) == 2:
        (k0, name), (k1, value) = obj.items()
        if k0 == "name" and type(name) is str:
            if k1 == "temperature_tag" and type(value) is str:
                return _Folded((name, value))
            if k1 == "children" and type(value) is list:
                return _Folded((name, None, value))
    return obj


def _unfolded(folded: _Folded) -> dict:
    """The object a folded edge or node was made from. An edge's node is a
    tuple, where an internal node holds a list."""
    if len(folded) == 3 and type(folded[2]) is _Folded:
        return dict(zip(("prior", "utility", "node"), folded))
    obj = {"name": folded[0]}
    if folded[1] is not None:
        obj["temperature_tag"] = folded[1]
    if len(folded) == 3:
        obj["children"] = folded[2]
    return obj


def _unfold(doc):
    """The document as json.loads decodes it without _fold. Lists and
    objects are visited from an explicit stack, so depth is bounded by
    memory, and each folded value is replaced where it sits."""
    top = [doc]
    stack: list = [top]
    while stack:
        container = stack.pop()
        slots = container.items() if type(container) is dict else enumerate(container)
        for key, value in list(slots):
            if type(value) is _Folded:
                value = container[key] = _unfolded(value)
            if type(value) is dict or type(value) is list:
                stack.append(value)
    return top[0]


def _flat_tree(payload) -> DecisionTree | None:
    """The folded tree payload as a DecisionTree, read level by level into
    its arrays and checked array by array; None if any check fails, and then
    loads unfolds the document and _parse_tree finds the error.

    The checks are those of _parse_tree and DecisionTree together: folded
    nodes and edges in their places and nonempty children while reading;
    then names without '/', known tags (a leaf's too, though it reads back as
    "lambda"), no duplicate name among siblings, numbers that are finite, and
    nonnegative priors that normalise per node as FiniteDistribution
    normalises. _fold has already checked the key sets and that names and
    tags are strings.
    """
    names: list = []
    tags: list = []
    n_children: list[int] = []
    edges: list = []  # every edge, in the breadth-first order of the nodes it leads to
    leaf_tags: set = set()
    level = [payload]
    try:
        while level:
            below = len(edges)
            for node in level:
                if type(node) is not _Folded:
                    return None
                names.append(node[0])
                if len(node) == 2:
                    leaf_tags.add(node[1])
                    tags.append(LAMBDA_TAG)
                    n_children.append(0)
                    continue
                _, tag, entries = node
                # An edge in a node's place holds a tuple where a node holds a list.
                if type(entries) is not list or not entries:
                    return None
                tags.append(LAMBDA_TAG if tag is None else tag)
                n_children.append(len(entries))
                edges.extend(entries)
            level = [edge[2] for edge in edges[below:]]
        if set(map(type, edges)) - {_Folded}:
            return None
        leaf_tags.discard(None)  # a leaf without a tag
        if "/" in "".join(names) or not set(tags) | leaf_tags <= set(_VALID_TAGS):
            return None
        priors, utilities = (list(map(itemgetter(i), edges)) for i in (0, 1))
        if not set(map(type, priors)) | set(map(type, utilities)) <= {int, float}:
            return None
        prior = np.fromiter(map(float, priors), float, len(priors))
        utility = np.fromiter(map(float, utilities), float, len(utilities))
        # An infinite prior fails the sum check below.
        if not (np.isfinite(utility).all() and (prior >= 0.0).all()):
            return None
        # The edges of each internal node, which lead to its children.
        counts = [k for k in n_children if k]
        bounds = np.cumsum([0] + counts)
        child_names = names[1:]
        segments = map(slice, bounds.tolist(), bounds[1:].tolist())
        if list(map(len, map(set, map(child_names.__getitem__, segments)))) != counts:
            return None
        if not _normalise_rows(prior, bounds[:-1]).all():
            return None
    except (IndexError, KeyError, TypeError, OverflowError):
        return None
    return DecisionTree._from_arrays(names, tags, n_children, prior, utility)


def _parse_tree(payload) -> TreeNode:
    """The tree payload as TreeNodes, with the checks and messages of a
    recursive descent in the same order: a node's keys, then each child
    entry's keys and numbers followed by its whole subtree, then the node's
    child distribution. The open nodes are kept on an explicit stack, so
    depth is bounded by memory. loads reads a payload this way only after
    _flat_tree has refused the folded one: to raise the error this order
    meets first, or to read a tree whose keys are in another order than the
    writer's, which does not fold.
    """

    def open_node(obj, where):
        """A leaf as a TreeNode; an internal node as the frame
        [name, tag, where, child entries, children, priors, utilities]."""
        _require_keys(obj, {"name", "temperature_tag", "children"}, {"name"}, where)
        name = obj["name"]
        if not isinstance(name, str):
            raise DomainError(f"node name in {where} must be a string")
        tag = obj.get("temperature_tag", LAMBDA_TAG)
        if "children" not in obj:
            # A known tag on a leaf reads back as "lambda"; DecisionTree
            # rejects any other.
            return TreeNode(name, temperature_tag=LAMBDA_TAG if tag in _VALID_TAGS else tag)
        children_spec = obj["children"]
        if not isinstance(children_spec, list) or not children_spec:
            raise DomainError(f"children of {where} must be a nonempty array")
        return [name, tag, where, enumerate(children_spec), [], [], []]

    node = open_node(payload, "tree payload")
    stack: list = []
    while True:
        if not isinstance(node, TreeNode):
            stack.append(node)
        elif stack:
            stack[-1][4].append(node)  # a finished child of the open node
        else:
            return node
        name, tag, where, entries, children, priors, utilities = stack[-1]
        for i, entry in entries:
            child_where = f"{where}/children[{i}]"
            _require_keys(
                entry, {"prior", "utility", "node"}, {"prior", "utility", "node"}, child_where
            )
            priors.append(_as_number(entry["prior"], f"{child_where}.prior"))
            utilities.append(_as_number(entry["utility"], f"{child_where}.utility"))
            node = open_node(entry["node"], f"{child_where}.node")
            break
        else:
            stack.pop()
            names = [c.name for c in children]
            node = TreeNode(
                name=name,
                children=tuple(children),
                child_prior=FiniteDistribution(names, priors),
                child_utility=UtilityTable(names, utilities),
                temperature_tag=tag,
            )


def _reject_constant(name: str):
    raise DomainError(
        f"JSON constant {name} is not a number; spell temperature limits as "
        "'inf', '-inf' or 'zero'"
    )


def _too_deep(text: str) -> DomainError:
    """The error for a document nested past what the JSON decoder reaches,
    naming its deepest bracket nesting (strings skipped)."""
    depth = deepest = 0
    for bracket in re.findall(r'[\[\]{}]', re.sub(r'"(?:[^"\\]|\\.)*"', "", text)):
        depth += 1 if bracket in "[{" else -1
        deepest = max(deepest, depth)
    return DomainError(
        f"problem file is nested {deepest} levels deep, past the parser's limit "
        f"(Python recursion limit {sys.getrecursionlimit()})"
    )


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its state on the way out.
    loads holds the pause from the JSON decode until the decoded document is
    released: decoding and building make many containers but no reference
    cycle, so a pass there would free nothing, and a pass just after it, while
    the decoded document lives, would scan every one of its containers."""
    import gc  # here, so that importing the package loads no extra module

    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def loads(text: str) -> ProblemFile:
    """Parse a problem document from its JSON text, rejecting anything the
    schema does not name.

    The decoder folds each tree node and edge into a tuple as it finishes it
    (see _fold), so a tree's nodes never exist as dicts, and _flat_tree reads
    the folded tree. If the folded document fails any check, it is unfolded
    and read again by the readers of the plain document, which raise the
    error its text meets first. The hook's calls cost the decoder nesting
    depth, so a document too deep for it is decoded once more without the
    hook before it is refused as too deep.
    """
    with _gc_paused():
        try:
            try:
                raw = json.loads(text, object_hook=_fold, parse_constant=_reject_constant)
            except RecursionError:
                raw = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as e:
            raise DomainError(f"not valid JSON: {e}") from None
        except ValueError:
            # int() refuses literals longer than sys.get_int_max_str_digits().
            raise DomainError("problem file holds an integer too large for a float") from None
        except RecursionError:
            raise _too_deep(text) from None
        # Building needs only the decoded value; when the caller keeps no
        # reference, this frees the text before the problem is built.
        del text
        try:
            pf = _problem_file(raw)
        except FreeUtilError:
            pf = None
        if pf is None:  # outside the handler, so no error chains to the folded one
            # An error must show the objects as the text holds them, and a
            # tree with keys in another order than the writer's folds only in
            # part: _parse_tree reads either from the unfolded document.
            pf = _problem_file(_unfold(raw))
        del raw  # released while the collector is still paused
    return pf


def _problem_file(raw) -> ProblemFile:
    """The problem file a decoded document describes."""
    _require_keys(
        raw,
        {"schema_version", "kind", "payload", "temperatures"},
        {"schema_version", "kind", "payload"},
        "problem file",
    )
    if raw["schema_version"] != SCHEMA_VERSION:
        raise DomainError(
            f"unsupported schema_version {raw['schema_version']!r}; expected {SCHEMA_VERSION!r}"
        )
    kind = raw["kind"]
    if kind not in KINDS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {KINDS}")

    if kind == "control":
        problem = _parse_control(raw["payload"])
    elif kind == "two_stage":
        problem = _parse_two_stage(raw["payload"])
    else:
        problem = _flat_tree(raw["payload"])
        if problem is None:
            problem = DecisionTree(_parse_tree(raw["payload"]))

    alpha = lam = mu = None
    if "temperatures" in raw:
        temps = raw["temperatures"]
        if kind == "control":
            _require_keys(temps, {"alpha"}, set(), "temperatures")
            if "alpha" in temps:
                alpha = _as_temperature(temps["alpha"], "alpha")
        else:
            _require_keys(temps, {"lambda", "mu"}, set(), "temperatures")
            if "lambda" in temps:
                lam = _as_temperature(temps["lambda"], "lambda")
            if "mu" in temps:
                mu = _as_temperature(temps["mu"], "mu")
    return ProblemFile(SCHEMA_VERSION, kind, problem, alpha=alpha, lam=lam, mu=mu)


# A tree's depth indentation: a newline and more spaces than the fixed-depth
# layouts of control and two-stage files ever write.
_DEPTH_INDENT = re.compile(rb"\n {9,}")
# Bytes read at a time while squeezing: large enough to keep the calls few,
# small enough that re.sub's list of per-line pieces stays small.
_BLOCK = 1 << 18


def _squeezed(path: str) -> str:
    """The file's text without its depth indentation. A run cut by a block
    boundary keeps its tail, which is still whitespace between tokens."""
    with open(path, "rb") as fh:
        blocks = iter(partial(fh.read, _BLOCK), b"")
        data = b"".join([_DEPTH_INDENT.sub(b"\n", block) for block in blocks])
    return data.decode("utf-8")


def load(path: str) -> ProblemFile:
    """Read and parse a problem file from disk: a regular file's squeezed
    text (see the module docstring) first, and the file as it stands if that
    fails or the path is not a regular file, so every error is the one the
    file's own text raises. Either text is handed to loads without a second
    reference, so it is freed once decoded."""
    if os.path.isfile(path):  # a pipe could not be read a second time
        try:
            return loads(_squeezed(path))
        except (FreeUtilError, UnicodeDecodeError):
            pass  # replayed once the handler has released the squeezed text
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except UnicodeDecodeError as e:
        raise DomainError(
            f"problem file is not UTF-8: byte {e.object[e.start]:#04x} at offset {e.start}"
        ) from None


def _tree_parts(tree: DecisionTree) -> list[str]:
    """The tree payload's text in pieces, laid out as render_json lays out
    the value of a top-level key, in one pre-order pass over the arrays with
    an explicit stack, so depth is bounded by memory."""
    names, tags = (list(map(encode_basestring_ascii, x)) for x in (tree.names, tree.tags))
    # The edge into node j > 0 is written from prior[j] and utility[j].
    prior, utility = ([""] + list(map(repr, a.tolist())) for a in (tree.prior, tree.utility))
    first, count = tree.first_child.tolist(), tree.n_children.tolist()
    levels: list = []  # per depth, the text around a node's fields
    out, stack = [], [(0, 0, "")]  # stack: (node or None, depth, the text before it)
    while stack:
        j, d, text = stack.pop()
        if j is None:  # a closer
            out.append(text)
            continue
        if d == len(levels):
            key, inner, outer = ("\n" + "  " * (2 + 3 * d - i) for i in range(3))
            end = inner + "}" + (outer + "}" if d else "")  # a child closes its entry too
            levels.append((
                outer + "{" + inner + '"prior": ' if d else "",
                "," + inner + '"utility": ' if d else "",
                ("," + inner + '"node": {' if d else "{") + key + '"name": ',
                "," + key + '"temperature_tag": ', "," + key + '"children": [',
                end, key + "]" + end,
            ))
        lead, mid, name, tag, kids, end, closer = levels[d]
        out.append(f"{text}{lead}{prior[j]}{mid}{utility[j]}{name}{names[j]}")
        if count[j]:
            out.append(f"{tag}{tags[j]}{kids}")
            stack.append((None, 0, closer))
            stack.extend([(c, d + 1, ",") for c in range(first[j] + count[j] - 1, first[j], -1)])
            stack.append((first[j], d + 1, ""))
        else:
            out.append(end)
    return out


def render_json(obj, fmt_float=float.__repr__) -> str:
    """JSON text of obj in the canonical layout: two-space indent, keys in
    insertion order, strings ASCII-escaped, floats written by fmt_float.

    With the default fmt_float the text equals ``json.dumps(obj, indent=2)``.
    A scalar of a subclass is written as its base type; anything else JSON
    cannot hold, a non-string key included, raises TypeError. Each container
    is one recursive call, so nesting is bounded by the recursion limit: this
    writes the documents the package builds, whose depth the schema fixes,
    not data shaped by the input (_tree_parts writes a tree payload).
    """
    scalars = {str: encode_basestring_ascii, float: fmt_float, int: int.__repr__,
               bool: ("false", "true").__getitem__, type(None): lambda _: "null"}

    def write(value, indent: str) -> str:
        for base in type(value).__mro__:
            if base in scalars:
                return scalars[base](value)
        keyed = isinstance(value, dict)
        if not (keyed or isinstance(value, (list, tuple))):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not value:
            return "{}" if keyed else "[]"
        inner = indent + "  "
        opener, closer = "{}" if keyed else "[]"
        members = value.values() if keyed else value
        kinds = set(map(type, members))
        # A run of same-typed scalars is converted in one pass.
        convert = scalars.get(kinds.pop()) if len(kinds) == 1 else None
        texts = map(convert, members) if convert else (write(v, inner) for v in members)
        if keyed:
            texts = map("{}: {}".format, map(encode_basestring_ascii, value), texts)
        return opener + inner + ("," + inner).join(texts) + indent + closer

    return write(obj, "\n")


def dumps(pf: ProblemFile) -> str:
    """Serialize to canonical JSON text: normalized probabilities,
    full-precision floats, limits as their string spellings."""
    types = {"control": ControlProblem, "two_stage": TwoStageProblem, "tree": DecisionTree}
    if not isinstance(pf.problem, types.get(pf.kind, ())):
        raise DomainError(f"a {pf.kind!r} file cannot hold a {type(pf.problem).__name__}")
    if pf.schema_version != SCHEMA_VERSION:
        raise DomainError(
            f"unsupported schema_version {pf.schema_version!r}; expected {SCHEMA_VERSION!r}"
        )
    temps = {}
    for field, key in (("alpha", "alpha"), ("lam", "lambda"), ("mu", "mu")):
        t = getattr(pf, field)
        if t is None:
            continue
        if not isinstance(t, Temperature):
            raise DomainError(f"{field} must be a Temperature or None, got {t!r}")
        if (field == "alpha") != (pf.kind == "control"):
            raise DomainError(f"a {pf.kind!r} file cannot carry the temperature {field}")
        temps[key] = t.value if t.is_finite else t.spell()
    if pf.kind == "control":
        problem = pf.problem
        payload = {
            "outcomes": list(problem.outcomes),
            "prior": list(problem.prior.probs),
            "utility": list(problem.utility.values),
        }
    elif pf.kind == "two_stage":
        problem = pf.problem
        payload = {
            "actions": list(problem.actions),
            "outcomes": list(problem.outcomes),
            "prior_action": list(problem.prior_action.probs),
            "channel": dict(zip(problem.actions, problem.channel_matrix.tolist())),
            "action_utility": list(problem.action_utility.values),
            "outcome_utility": dict(zip(problem.actions, problem.utility_matrix.tolist())),
        }
    else:
        payload = None  # a placeholder for the text _tree_parts writes

    doc = {"schema_version": pf.schema_version, "kind": pf.kind, "payload": payload}
    if temps:
        doc["temperatures"] = temps
    text = render_json(doc) + "\n"
    if pf.kind != "tree":
        return text
    # No string holds this unescaped quote, so it is the payload's key.
    head, tail = text.split('"payload": null', 1)
    return "".join([head, '"payload": ', *_tree_parts(pf.problem), tail])


def dump(pf: ProblemFile, path: str) -> None:
    """Write the canonical serialization to disk; a failing dumps leaves the file as it was."""
    text = dumps(pf)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
