"""Problem-file loading and serialization.

Files are JSON with a fixed schema: a version tag, a kind discriminator
("control", "two_stage", "tree"), the kind's payload, and an optional
temperatures block. Parsing is strict — unknown fields anywhere are
rejected, numbers must be numbers (booleans are not), and every structural
invariant is enforced at load time so downstream code never sees a
half-valid problem. Temperature limits are spelled as the strings "inf",
"-inf", and "zero" rather than non-portable float infinities; the JSON
extensions Infinity, -Infinity and NaN are rejected.

dump() writes the canonical form (normalized probabilities, full-precision
floats), so load → dump → load is an identity. render_json() is the one JSON
writer: it lays out problem files and, with 12-digit floats, the CLI's
documents.
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .model import (
    ControlProblem,
    DecisionTree,
    DomainError,
    FiniteDistribution,
    Temperature,
    TreeNode,
    TwoStageProblem,
    UtilityTable,
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
    for k in required:
        if k not in obj:
            raise DomainError(f"missing field {k!r} in {where}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_number_list(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise DomainError(f"{where} must be an array of numbers")
    if set(map(type, value)) <= {int, float}:
        return list(map(float, value))
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


def _parse_two_stage(payload: dict) -> TwoStageProblem:
    keys = {
        "actions",
        "outcomes",
        "prior_action",
        "channel",
        "action_utility",
        "outcome_utility",
    }
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
    return TwoStageProblem(
        actions, outcomes, prior, channel, action_utility, outcome_utility
    )


def _parse_tree(payload) -> TreeNode:
    """The tree payload as TreeNodes, with the checks and messages of a
    recursive descent in the same order: a node's keys, then each child
    entry's keys and numbers followed by its whole subtree, then the node's
    child distribution. The open nodes are kept on an explicit stack, so
    depth is bounded by memory."""

    def open_node(obj, where):
        """A leaf as a TreeNode; an internal node as the frame
        [name, tag, where, child entries, children, priors, utilities]."""
        _require_keys(obj, {"name", "temperature_tag", "children"}, {"name"}, where)
        name = obj["name"]
        if not isinstance(name, str):
            raise DomainError(f"node name in {where} must be a string")
        tag = obj.get("temperature_tag", "lambda")
        if "children" not in obj:
            return TreeNode(name=name)
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


def loads(text: str) -> ProblemFile:
    """Parse a problem document from its JSON text, rejecting anything the
    schema does not name."""
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise DomainError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise _too_deep(text) from None
    # Building needs only the decoded value; when the caller keeps no
    # reference, this frees the text before the problem is built.
    del text
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


def load(path: str) -> ProblemFile:
    """Read and parse a problem file from disk. The text is handed to loads
    without a second reference, so it is freed once decoded."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _temp_to_json(t: Temperature):
    return t.value if t.is_finite else t.spell()


def _node_to_json(root: TreeNode) -> dict:
    """The tree payload, built pre-order with an explicit stack so that depth
    is bounded by memory, not by the interpreter's recursion limit."""
    payload: dict = {}
    stack = [(root, payload)]
    while stack:
        node, out = stack.pop()
        out["name"] = node.name
        if node.is_leaf:
            continue
        out["temperature_tag"] = node.temperature_tag
        entries = out["children"] = []
        for child, p, u in zip(
            node.children, node.child_prior.probs, node.child_utility.values
        ):
            sub: dict = {}
            entries.append({"prior": p, "utility": u, "node": sub})
            stack.append((child, sub))
    return payload


def _scalar_text(value, fmt_float) -> str | None:
    """JSON text of a scalar or an empty container; None for a nonempty
    container."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, dict):
        return None if value else "{}"
    if isinstance(value, (list, tuple)):
        return None if value else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(obj, fmt_float=float.__repr__) -> str:
    """JSON text of obj in the canonical layout: two-space indent, keys in
    insertion order, strings ASCII-escaped, floats written by fmt_float.

    With the default fmt_float the text equals ``json.dumps(obj, indent=2)``.
    Containers are walked with an explicit stack, so nesting depth is bounded
    by memory. Keys must be strings and containers must not contain
    themselves.
    """
    text = _scalar_text(obj, fmt_float)
    if text is not None:
        return text
    # Exact-type converters for the common scalars; anything else (bool,
    # None, subclasses, containers) goes through _scalar_text.
    fast = {str: encode_basestring_ascii, float: fmt_float, int: int.__repr__}
    enc = encode_basestring_ascii
    out: list[str] = []
    emit = out.append
    # One frame per open container: its member iterator, whether it is a
    # dict, and the newline plus indent of its members.
    stack: list = []
    indents = ["\n"]
    child = obj
    while True:
        if child is not None:
            keyed = isinstance(child, dict)
            depth = len(stack) + 1
            if depth == len(indents):
                indents.append(indents[-1] + "  ")
            indent = indents[depth]
            emit("{" if keyed else "[")
            members = iter(child.items()) if keyed else iter(child)
            stack.append((members, keyed, indent))
            lead = indent
        else:
            members, keyed, indent = stack[-1]
            lead = "," + indent
        # Format the run of scalar members up to the next nonempty container
        # as one chunk.
        run: list[str] = []
        add = run.append
        child = None
        if keyed:
            for key, value in members:
                conv = fast.get(type(value))
                text = conv(value) if conv else _scalar_text(value, fmt_float)
                if text is None:
                    child = value
                    break
                add(enc(key) + ": " + text)
        else:
            for value in members:
                conv = fast.get(type(value))
                text = conv(value) if conv else _scalar_text(value, fmt_float)
                if text is None:
                    child = value
                    break
                add(text)
        if run:
            emit(lead + ("," + indent).join(run))
            lead = "," + indent
        if child is not None:
            emit(lead + enc(key) + ": " if keyed else lead)
            continue
        stack.pop()
        emit(indent[:-2] + ("}" if keyed else "]"))
        if not stack:
            return "".join(out)


def dumps(pf: ProblemFile) -> str:
    """Serialize to canonical JSON text: normalized probabilities,
    full-precision floats, limits as their string spellings."""
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
            "channel": {a: list(problem.channel[a].probs) for a in problem.actions},
            "action_utility": list(problem.action_utility.values),
            "outcome_utility": {
                a: list(problem.outcome_utility[a].values) for a in problem.actions
            },
        }
    else:
        payload = _node_to_json(pf.problem.root)

    doc = {"schema_version": pf.schema_version, "kind": pf.kind, "payload": payload}
    temps = {}
    if pf.alpha is not None:
        temps["alpha"] = _temp_to_json(pf.alpha)
    if pf.lam is not None:
        temps["lambda"] = _temp_to_json(pf.lam)
    if pf.mu is not None:
        temps["mu"] = _temp_to_json(pf.mu)
    if temps:
        doc["temperatures"] = temps
    return render_json(doc) + "\n"


def dump(pf: ProblemFile, path: str) -> None:
    """Write the canonical serialization to disk."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(pf))
