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

loads() decodes with an object_hook, _TreeArrays.hook, that records each
tree node and edge into flat arrays as the decoder finishes it, in any key
order, and leaves one shared marker in its place. The hook closes each node
over its children as it records it and checks their names and, a block of
rows at a time, their priors, which it keeps normalised, and utilities, so
every check a tree's records fail is met while the text decodes. Any other
object whose values are lists of numbers of one nonzero length, a table,
the hook reads into one matrix as the decoder finishes it; the schema
admits a table only as a two-stage file's channel or outcome_utility, so
only one table's rows are ever Python floats. One reader, _problem_file,
reads every decoded document: its header, then its payload, then its
temperatures. It leaves a build that cannot fail, run once the text and
the document are freed. On any fault of the decode or the read, the text
is decoded again without the hook, and the same reader, with the plain
tree reader in place of the records, raises the error the text meets
first, or reads a tree too deep to decode with the hook; a fault of a
temperatures block of JSON scalars alone, after a header and a payload
that passed, is raised from the hooked document.

load() reads a file's text in blocks and drops from each every run of 9 or
more spaces that follows a newline, growing one string, so only the
squeezed text is held, and decodes that once. That is a
tree's depth indentation, most of a deep tree's file (82 % of a tree of
88k nodes); the fixed-depth layouts of control and two-stage files indent
at most 8 spaces and keep every byte. Strict JSON rejects a raw newline
inside a string, so in an accepted text every newline lies between tokens
and the spaces after it carry nothing; the newline itself stays, so a text
with a newline inside a string still fails. When the file is not UTF-8 or
its squeezed text is not valid JSON, load reads the file again as it stands
and parses that, so the error names the file's own line, column and byte
offset. Every other error names no offset and reads the same from either
text, so it is raised from the squeezed text. A path that is not a regular
file, such as a pipe, is read once, as it stands.

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
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .model import (
    LAMBDA_TAG,
    MU_TAG,
    ControlProblem,
    DecisionTree,
    DomainError,
    FiniteDistribution,
    FreeUtilError,
    Temperature,
    TreeNode,
    TwoStageProblem,
    UtilityTable,
    _BLOCK_EDGES,
    _VALID_TAGS,
    _trampoline,
    _valid_rows,
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


def _row_arrays(actions, outcomes, channel, utility):
    """The channel and outcome utility tables as two A×O arrays, read by
    action in any key order, the channel rows normalised, in place, as
    FiniteDistribution normalises. Raises _Refused unless both are tables
    whose keys are the actions, whose rows are as wide as the outcomes are
    many and distinct, and whose every row passes the checks of its
    labelled constructor."""
    n, width, rows = len(actions), len(outcomes), []
    for table in (channel, utility):
        if type(table) is not tuple or set(table[0]) != set(actions) or table[1].shape[1] != width:
            raise _Refused
        keys, matrix = table
        at = dict(zip(keys, range(n)))
        rows.append(matrix if keys == actions else matrix[[at[a] for a in actions]])
    if len(set(outcomes)) != width:
        raise _Refused
    # Whole rows of about _BLOCK_EDGES entries at a time, so that no
    # temporary of the checks spans the table.
    step = max(1, _BLOCK_EDGES // width)
    starts = np.arange(min(step, n)) * width
    for lo in range(0, n, step):
        prior = rows[0][lo:lo + step]
        if not _valid_rows(prior.reshape(-1), rows[1][lo:lo + step], starts[:len(prior)]):
            raise _Refused
    return rows


def _parse_two_stage(payload: dict):
    """The two-stage payload, read, as a call that builds its problem and
    cannot fail. Channel and outcome utility tables, as _TreeArrays.hook
    records them, are read straight into arrays and checked, or raise
    _Refused (see _row_arrays), so only the build is left, and loads frees
    the text before it. Plainly decoded rows are read as labelled rows, in
    the file's key order, and the problem is built here, so that the
    constructor raises the error the file meets first."""
    keys = {"actions", "outcomes", "prior_action", "channel", "action_utility", "outcome_utility"}
    _require_keys(payload, keys, keys, "two_stage payload")
    actions = _as_label_list(payload["actions"], "actions")
    outcomes = _as_label_list(payload["outcomes"], "outcomes")
    prior = FiniteDistribution(
        actions, _as_number_list(payload["prior_action"], "prior_action")
    )
    if tuple in (type(payload["channel"]), type(payload["outcome_utility"])):
        arrays = _row_arrays(actions, outcomes, payload["channel"], payload["outcome_utility"])
        action_utility = UtilityTable(
            actions, _as_number_list(payload["action_utility"], "action_utility")
        )
        return partial(TwoStageProblem._from_arrays, actions, outcomes, prior, action_utility, *arrays)
    if not isinstance(payload["channel"], dict):
        raise DomainError("channel must be an object keyed by action")
    if not isinstance(payload["outcome_utility"], dict):
        raise DomainError("outcome_utility must be an object keyed by action")
    channel = {
        a: FiniteDistribution(outcomes, _as_number_list(row, f"channel[{a!r}]"))
        for a, row in payload["channel"].items()
    }
    action_utility = UtilityTable(
        actions, _as_number_list(payload["action_utility"], "action_utility")
    )
    outcome_utility = {
        a: UtilityTable(outcomes, _as_number_list(row, f"outcome_utility[{a!r}]"))
        for a, row in payload["outcome_utility"].items()
    }
    problem = TwoStageProblem(actions, outcomes, prior, channel, action_utility, outcome_utility)
    return lambda: problem


# What the array reader puts in place of each tree node and edge it records.
_READ = object()
_NUMBERS = frozenset((int, float))
# The values of a JSON object that the hook never replaces.
_SCALARS = _NUMBERS | {str, bool, type(None)}
_EDGE_KEYS = frozenset(("prior", "utility", "node"))
_NODE_KEYS = frozenset(("name", "temperature_tag", "children"))


class _Refused(Exception):
    """Raised by _TreeArrays.hook and _problem_file for records that no
    valid tree makes, and by _row_arrays for tables that no valid two-stage
    payload holds."""


class _Settled(Exception):
    """Raised by _problem_file, from the error of a hooked document's
    temperatures block that the plain decode reads alike: loads raises that
    error without decoding the text again."""


class _TreeArrays:
    """A tree read into flat arrays while it is decoded by hook.

    hook records a node, key name and optional keys temperature_tag and
    children in any order, as its name, mu flag and child count, if the name
    is a str without '/', the tag is known and the children are a nonempty
    list of _READ; and an edge, keys prior, utility and node in any order,
    as its numbers (not booleans; one past the float range raises
    OverflowError), if its node is _READ and it follows a recorded node. A
    recorded object becomes _READ. Any other object whose values are lists
    of numbers (not booleans) of one nonzero length, a table, becomes the
    tuple (keys, matrix): its keys in the file's order and its lists as the
    rows of one float64 matrix (a number past the float range raises
    OverflowError). The decoder makes no tuple, so a tuple in the document
    is a table. Any other object stays as it is.

    The decoder finishes a tree's objects in post-order, each node just
    before the edge that leads to it, so edge j leads to node j. A recorded
    object holds one _READ per child or node it leads to; when the counts
    close into one root, these are every _READ but one, so if that one is
    the payload, the records are exactly the payload's tree.

    hook closes each node as it records it: its children are the last count
    open subtrees, and grouped lists them by parent. It raises _Refused for
    records no valid tree makes: a node recorded while an earlier node lacks
    its edge, or with more children than open subtrees, a name repeated among
    siblings, or a block of whole rows, at least _BLOCK_EDGES closed edges,
    that fails _valid_rows on a copy, whose normalised priors are written
    back. So the text decodes into records that passed every check but the
    last block's, and closed has only that block and O(1) checks left.
    """

    def __init__(self):
        names, mu, counts = self.names, self.mu, self.counts = [], bytearray(), array("q")
        priors, utilities = self.priors, self.utilities = array("d"), array("d")
        # stack: the root of each open subtree; rows: where each row closed
        # since the last block check starts in grouped.
        grouped, stack, rows = self.grouped, self.stack, self.rows = array("q"), [], []

        def hook(obj: dict):
            keys = obj.keys()
            if keys == _EDGE_KEYS:
                prior, utility = obj["prior"], obj["utility"]
                if (obj["node"] is not _READ or len(names) != len(priors) + 1
                        or type(prior) not in _NUMBERS or type(utility) not in _NUMBERS):
                    return table(obj)
                priors.append(prior)
                utilities.append(utility)
                return _READ
            name, tag = obj.get("name"), obj.get("temperature_tag", LAMBDA_TAG)
            children = obj.get("children", ())
            if (not keys <= _NODE_KEYS or type(name) is not str or "/" in name
                    or tag not in _VALID_TAGS or children != () and (
                        type(children) is not list or not 0 < children.count(_READ) == len(children))):
                return table(obj)
            k = len(children)
            if len(priors) != len(names) or k > len(stack):
                raise _Refused
            if k:
                kids = stack[-k:]
                del stack[-k:]
                if k > 1 and len(set(map(names.__getitem__, kids))) < k:
                    raise _Refused
                rows.append(len(grouped))
                grouped.extend(kids)
                if len(grouped) - rows[0] >= _BLOCK_EDGES and not block_passes():
                    raise _Refused
            stack.append(len(names))
            names.append(name)
            mu.append(tag == MU_TAG)
            counts.append(k)
            return _READ

        def block_passes() -> bool:
            """Whether the rows closed since the last call pass _valid_rows
            on copies, whose priors, normalised if they pass, are written
            back. The views of the records go on return, so they can grow."""
            starts = np.array(rows)
            rows.clear()
            edges = np.frombuffer(grouped, dtype=np.int64)[starts[0]:]  # edge j leads to node j
            records = np.frombuffer(priors)
            prior = records[edges]
            passed = _valid_rows(prior, np.frombuffer(utilities)[edges], starts - starts[0])
            records[edges] = prior
            return passed

        def table(obj: dict):
            rows = list(obj.values())
            width = type(rows[0]) is list and len(rows[0]) if rows else 0
            if (not width or not all(type(row) is list and len(row) == width for row in rows)
                    or not set(map(type, chain.from_iterable(rows))) <= _NUMBERS):
                return obj
            return list(obj), np.array(rows, dtype=float)

        self.hook, self.block_passes = hook, block_passes

    def closed(self) -> bool:
        """Whether the records are one tree that passes every check of
        _parse_tree and DecisionTree: one root, an edge per node but the
        root, and the rows of the last block (hook checked the rest)."""
        return (len(self.stack) == 1 and len(self.priors) == len(self.grouped)
                and (not self.rows or self.block_passes()))

    def tree(self) -> DecisionTree:
        """The closed records' tree, built by DecisionTree._from_arrays from
        breadth-first arrays: each record gathered once by the order built
        level by level from the root, the priors as hook's checks normalised
        them, the mu flags as recorded, and dropped once read."""
        del self.hook, self.block_passes  # their closures hold the records too
        count, grouped = np.array(self.counts, dtype=np.intp), np.array(self.grouped, dtype=np.intp)
        del self.counts, self.grouped
        first = np.cumsum(count) - count  # where a node's children start in grouped
        levels = [np.array([len(count) - 1])]
        while len(levels[-1]):
            k = count[levels[-1]]
            at = np.repeat(first[levels[-1]] - (np.cumsum(k) - k), k) + np.arange(k.sum())
            levels.append(grouped[at])  # at: where the level sits in grouped
        order = np.concatenate(levels)
        del levels, grouped, first
        names = np.array(self.names, dtype=object)
        del self.names
        is_mu = np.frombuffer(self.mu, dtype=bool)[order]
        del self.mu
        # Edge j leads to node j.
        prior = np.frombuffer(self.priors)[order[1:]]
        del self.priors
        utility = np.frombuffer(self.utilities)[order[1:]]
        del self.utilities
        names = tuple(names[order])
        return DecisionTree._from_arrays(names, is_mu, count[order], prior, utility)


def _parse_tree(payload) -> TreeNode:
    """The tree payload as TreeNodes, read by a recursive descent run on
    _trampoline, so depth is bounded by memory. loads reads a payload this
    way only in its fallback, when the array reader's records are refused:
    to raise the error the descent meets first, or to read a tree too deep
    to decode with the hook."""
    return _trampoline(_parse_node(payload, None))


class _Where:
    """A place in a tree payload as _parse_node's errors name it, rendered
    only when one is raised, so an open level holds no text that grows with
    its depth. at is the node's path of child entry indices, as nested pairs
    (above, index) from None, the payload; index and field name a child
    entry of the node, or the entry's prior or utility."""

    __slots__ = ("at", "index", "field")

    def __init__(self, at, index=None, field=""):
        self.at, self.index, self.field = at, index, field

    def __str__(self) -> str:
        indices, at = [], self.at
        while at is not None:
            at, i = at
            indices.append(i)
        node = "tree payload" + "".join([f"/children[{i}].node" for i in reversed(indices)])
        return node if self.index is None else f"{node}/children[{self.index}]{self.field}"


def _parse_node(obj, at):
    """One node of _parse_tree: its keys, then each child entry's keys and
    numbers followed by the child's subtree, then the child distribution.
    at is the node's path of child entry indices (see _Where)."""
    where = _Where(at)
    _require_keys(obj, {"name", "temperature_tag", "children"}, {"name"}, where)
    name = obj["name"]
    if not isinstance(name, str):
        raise DomainError(f"node name in {where} must be a string")
    tag = obj.get("temperature_tag", LAMBDA_TAG)
    if "children" not in obj:
        # A known tag on a leaf reads back as "lambda"; DecisionTree rejects
        # any other.
        return TreeNode(name=name, temperature_tag=LAMBDA_TAG if tag in _VALID_TAGS else tag)
    children_spec = obj["children"]
    if not isinstance(children_spec, list) or not children_spec:
        raise DomainError(f"children of {where} must be a nonempty array")
    children, priors, utilities = [], [], []
    for i, entry in enumerate(children_spec):
        _require_keys(
            entry, {"prior", "utility", "node"}, {"prior", "utility", "node"}, _Where(at, i)
        )
        priors.append(_as_number(entry["prior"], _Where(at, i, ".prior")))
        utilities.append(_as_number(entry["utility"], _Where(at, i, ".utility")))
        children.append((yield _parse_node(entry["node"], (at, i))))
    names = [c.name for c in children]
    return TreeNode(
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
    loads pauses it over its fallback: the plain decode and readers make many
    containers but no reference cycle, so a pass there would free nothing and
    would scan every container of the decoded document."""
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

    One success path: the text is decoded with _TreeArrays.hook, the
    document is read by _problem_file, and the text and the document are
    freed before the build, so no array the size of a tree or a table is
    built beside them. Any fault of the decode or the read takes one
    fallback: the text is decoded without the hook and read by the same
    reader, which raises the error the text meets first, or reads a tree
    too deep to decode with the hook. The one exception is a fault of a
    temperatures block of JSON scalars (see _problem_file), whose error is
    raised at once.
    """
    if not isinstance(text, str):
        raise DomainError(f"a problem document must be JSON text, a str, got {type(text).__name__}")
    arrays = _TreeArrays()
    try:
        raw = json.loads(text, object_hook=arrays.hook, parse_constant=_reject_constant)
        build = _problem_file(raw, arrays)
    except _Settled as settled:
        raise settled.__cause__ from None
    except (ValueError, RecursionError, OverflowError, _Refused, FreeUtilError):  # read again below
        raw = arrays = None  # the hooked document and its records, freed before the plain decode
    else:
        del raw, text, arrays  # freed before the build
        return build()
    with _gc_paused():
        try:
            raw = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as e:
            raise DomainError(f"not valid JSON: {e}") from e
        except ValueError:
            # int() refuses literals longer than sys.get_int_max_str_digits().
            raise DomainError("problem file holds an integer too large for a float") from None
        except RecursionError:
            raise _too_deep(text) from None
        return _problem_file(raw)()


def _file_kind(raw) -> str:
    """The kind of a decoded document, once its top-level keys and schema
    version are checked."""
    _require_keys(raw, {"schema_version", "kind", "payload", "temperatures"},
                  {"schema_version", "kind", "payload"}, "problem file")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise DomainError(
            f"unsupported schema_version {raw['schema_version']!r}; expected {SCHEMA_VERSION!r}"
        )
    kind = raw["kind"]
    if kind not in KINDS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {KINDS}")
    return kind


def _temperatures(raw: dict, kind: str) -> dict:
    """The temperatures a document declares, as ProblemFile's keywords."""
    if "temperatures" not in raw:
        return {}
    temps = raw["temperatures"]
    spelled = {"alpha": "alpha"} if kind == "control" else {"lambda": "lam", "mu": "mu"}
    _require_keys(temps, set(spelled), set(), "temperatures")
    return {arg: _as_temperature(temps[key], key) for key, arg in spelled.items() if key in temps}


def _problem_file(raw, arrays=None):
    """The problem file a decoded document describes, as a call that builds
    it and cannot fail, holding no reference to raw. The header is read
    first, then the payload, then the temperatures, so the error raised is
    the first the text meets. With arrays, raw was decoded with arrays.hook,
    and a tree payload must be the marker of closed records, or _Refused is
    raised; without, a tree payload is read by _parse_tree. A payload whose
    build could fail (a control payload, a plainly read tree, labelled
    two-stage rows) is built here, before the temperatures are read. With
    arrays, a fault of a temperatures block whose values are all JSON
    scalars raises _Settled from its error: the hook left the block as the
    plain decode reads it, and the header and payload passed, so a plain
    read would raise the same error."""
    kind = _file_kind(raw)
    payload = raw["payload"]
    if kind == "two_stage":
        build = _parse_two_stage(payload)
    elif kind == "tree" and arrays is not None:
        if payload is not _READ or not arrays.closed():
            raise _Refused
        build = arrays.tree
    else:
        problem = _parse_control(payload) if kind == "control" else DecisionTree(_parse_tree(payload))
        build = lambda: problem  # noqa: E731
    try:
        temperatures = _temperatures(raw, kind)
    except FreeUtilError as e:
        temps = raw["temperatures"]
        if arrays is not None and type(temps) is dict and set(map(type, temps.values())) <= _SCALARS:
            raise _Settled from e
        raise
    return lambda: ProblemFile(SCHEMA_VERSION, kind, build(), **temperatures)


# A tree's depth indentation: a newline and more spaces than the fixed-depth
# layouts of control and two-stage files ever write.
_DEPTH_INDENT = re.compile(r"\n {9,}")
# Characters read at a time while squeezing: large enough to keep the calls
# few, small enough that re.sub's list of per-line pieces stays small.
_BLOCK = 1 << 18


def _squeezed(path: str) -> str:
    """The file's text without its depth indentation, grown block by block
    in one string, which += resizes in place while it has no other
    reference, so no list of blocks and no second copy is held. A run cut
    by a block boundary keeps its tail, which is still whitespace between
    tokens."""
    text = ""
    with open(path, encoding="utf-8", newline="") as fh:
        for block in iter(partial(fh.read, _BLOCK), ""):
            text += _DEPTH_INDENT.sub("\n", block)
    return text


def load(path: str) -> ProblemFile:
    """Read and parse a problem file from disk: a regular file's squeezed
    text (see the module docstring) first, and the file as it stands if that
    is not UTF-8 or not valid JSON, whose errors name an offset, or if the
    path is not a regular file, so every error is the one the file's own
    text raises. Either text is handed to loads without a second reference,
    so loads can free it before the problem is built."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise DomainError(f"a problem file path must be a str or os.PathLike, got {type(path).__name__}")
    if os.path.isfile(path):  # a pipe could not be read a second time
        try:
            return loads(_squeezed(path))
        except UnicodeDecodeError:
            pass  # replayed once the handler has released the squeezed text
        except DomainError as e:
            if not isinstance(e.__cause__, json.JSONDecodeError):
                raise  # names no offset: the same from the file as it stands
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
    an explicit stack, so depth is bounded by memory; tags from the mu flags."""
    names, is_mu = list(map(encode_basestring_ascii, tree.names)), tree.is_mu.tolist()
    tags = tuple(map(encode_basestring_ascii, (LAMBDA_TAG, MU_TAG)))  # by flag
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
            out.append(f"{tag}{tags[is_mu[j]]}{kids}")
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
    if not isinstance(pf, ProblemFile):
        raise DomainError(f"dumps writes a ProblemFile, got {type(pf).__name__}")
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
