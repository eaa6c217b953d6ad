"""Reference solver for the benchmark's output checks, written in plain numpy.

It shares no code with ``freeutil``: every quantity the benchmark checks is
recomputed here from the raw arrays of a problem. One primitive does all the
work, a segmented exponential tilt: a flat vector of prior weights and gains
cut into consecutive segments, each tilted at the same inverse temperature.
A control problem is one segment, a two-stage problem is one segment per
action and then one over the actions, and a tree is one segment per internal
node, backed up level by level from the deepest level.

Temperatures are floats or one of the limit spellings ``"zero"``, ``"inf"``
and ``"-inf"``. The limits are exact: ``zero`` keeps the prior and values
the expected gain, ``inf``/``-inf`` put uniform mass on the maximisers or
minimisers of the gain over the prior's support, ties within ``TIE_TOL``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Gains this close to the extreme count as tied at the infinite limits.
TIE_TOL = 1e-12

LIMITS = ("zero", "inf", "-inf")


def temperature(spec):
    """A float, or one of the limit spellings; numeric zero is the zero limit."""
    if isinstance(spec, str):
        token = spec.strip()
        if token in LIMITS:
            return token
        spec = float(token)
    value = float(spec)
    if value == 0.0:
        return "zero"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


@dataclass(frozen=True)
class Tilt:
    """Result of a segmented tilt: one policy entry per input entry and one
    value per segment."""

    policy: np.ndarray
    value: np.ndarray


def _normalised(probs) -> np.ndarray:
    """Rows rescaled to sum to 1, as the program does once at ingestion."""
    probs = np.asarray(probs, dtype=float)
    return probs / probs.sum(axis=-1, keepdims=True)


def _segment_ids(starts: np.ndarray, n: int) -> np.ndarray:
    seg = np.zeros(n, dtype=np.intp)
    seg[starts[1:]] = 1
    return np.cumsum(seg)


def segment_tilt(prior, gains, starts, t) -> Tilt:
    """Tilt each segment ``prior[s:e]`` by ``gains[s:e]`` at inverse temperature t.

    ``starts`` lists the first index of every segment, in increasing order,
    beginning with 0. Every segment needs one positive prior entry. Entries
    with zero prior get zero policy; segments whose gains are constant over
    their support keep the prior exactly.
    """
    p = np.asarray(prior, dtype=float)
    g = np.asarray(gains, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    t = temperature(t)
    seg = _segment_ids(starts, p.size)
    support = p > 0.0
    if not np.all(np.add.reduceat(support.astype(np.intp), starts) > 0):
        raise ValueError("a segment has no positive prior entry")

    g_max = np.maximum.reduceat(np.where(support, g, -np.inf), starts)
    g_min = np.minimum.reduceat(np.where(support, g, np.inf), starts)
    flat = g_max == g_min
    constant = flat[seg]

    if t == "zero":
        value = np.add.reduceat(np.where(support, p * g, 0.0), starts)
        return Tilt(p.copy(), np.where(flat, g_max, value))
    if t in ("inf", "-inf"):
        target = g_max if t == "inf" else g_min
        winners = support & (np.abs(g - target[seg]) <= TIE_TOL)
        count = np.add.reduceat(winners.astype(float), starts)
        policy = np.where(constant, p, winners / count[seg])
        return Tilt(policy, target)

    with np.errstate(divide="ignore"):
        log_w = np.where(support, np.log(p) + t * g, -np.inf)
    m = np.maximum.reduceat(log_w, starts)
    e = np.exp(log_w - m[seg])
    s = np.add.reduceat(e, starts)
    log_partition = m + np.log(s)
    policy = np.where(constant, p, e / s[seg])
    value = np.where(flat, g_max, log_partition / t)
    return Tilt(policy, value)


def kl(p, q, starts=None) -> np.ndarray:
    """Relative entropy per segment, sum p log(p/q) with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    starts = np.zeros(1, dtype=np.intp) if starts is None else np.asarray(starts)
    if np.any((p > 0.0) & (q == 0.0)):
        raise ValueError("p puts mass where q has none")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p / q), 0.0)
    return np.maximum(np.add.reduceat(terms, starts), 0.0)


# ---------------------------------------------------------------------------
# control


@dataclass(frozen=True)
class ControlSolution:
    policy: np.ndarray
    value: float
    expected_utility: float
    achieved_kl: float


def solve_control(prior, utility, alpha) -> ControlSolution:
    """KL-regularised control at temperature alpha (inverse temperature 1/alpha)."""
    alpha = temperature(alpha)
    if alpha == "-inf" or (not isinstance(alpha, str) and alpha < 0):
        raise ValueError("alpha must be non-negative or 'inf'")
    t = {"zero": "inf", "inf": "zero"}.get(alpha) if isinstance(alpha, str) else 1.0 / alpha
    prior = _normalised(prior)
    utility = np.asarray(utility, dtype=float)
    res = segment_tilt(prior, utility, [0], t)
    return ControlSolution(
        res.policy,
        float(res.value[0]),
        float(np.dot(res.policy, utility)),
        float(kl(res.policy, prior)[0]),
    )


# ---------------------------------------------------------------------------
# two-stage


@dataclass(frozen=True)
class TwoStageSolution:
    action_policy: np.ndarray
    beliefs: np.ndarray
    values: np.ndarray
    value: float
    achieved_c1: float
    achieved_c2: float


def solve_two_stage(prior_action, channel, action_utility, outcome_utility, lam, mu):
    """Nested solve: every channel row tilted at mu, then the action prior
    tilted at lam by action utility plus each row's certainty equivalent."""
    lam = temperature(lam)
    mu = temperature(mu)
    if lam in ("zero", "-inf") or (not isinstance(lam, str) and lam < 0):
        raise ValueError("lambda must be positive or 'inf'")
    prior_action = _normalised(prior_action)
    channel = _normalised(channel)
    n_actions, n_outcomes = channel.shape
    row_starts = np.arange(n_actions) * n_outcomes
    inner = segment_tilt(
        channel.ravel(), np.asarray(outcome_utility, dtype=float).ravel(), row_starts, mu
    )
    values = np.asarray(action_utility, dtype=float) + inner.value
    outer = segment_tilt(prior_action, values, [0], lam)
    beliefs = inner.policy.reshape(n_actions, n_outcomes)
    row_kl = kl(beliefs.ravel(), channel.ravel(), row_starts)
    weights = outer.policy
    c2 = float(np.sum(weights[weights > 0.0] * row_kl[weights > 0.0]))
    return TwoStageSolution(
        weights,
        beliefs,
        values,
        float(outer.value[0]),
        float(kl(weights, prior_action)[0]),
        c2,
    )


# ---------------------------------------------------------------------------
# trees


@dataclass
class FlatTree:
    """A tree in breadth-first order, children of each node consecutive.

    Node 0 is the root. ``prior[i]`` and ``utility[i]`` belong to the edge
    into node i (unused for the root); ``first_child[i]`` and
    ``n_children[i]`` locate node i's children; ``depth[i]`` is its level.
    """

    names: list
    depth: np.ndarray
    parent: np.ndarray
    first_child: np.ndarray
    n_children: np.ndarray
    prior: np.ndarray
    utility: np.ndarray
    tags: list

    def paths(self) -> list:
        """Node paths as the program spells them: names joined by '/'."""
        out = [self.names[0]]
        for i in range(1, len(self.names)):
            out.append(f"{out[self.parent[i]]}/{self.names[i]}")
        return out


def flatten_tree(root: dict) -> FlatTree:
    """Flatten a tree payload (the nested JSON form) breadth first, iteratively."""
    names, depth, parent, tags = [root["name"]], [0], [-1], []
    first_child, n_children, prior, utility = [], [], [0.0], [0.0]
    queue = [root]
    i = 0
    while i < len(queue):
        node = queue[i]
        children = node.get("children", [])
        tags.append(node.get("temperature_tag", "lambda"))
        first_child.append(len(queue))
        n_children.append(len(children))
        for entry in children:
            queue.append(entry["node"])
            names.append(entry["node"]["name"])
            depth.append(depth[i] + 1)
            parent.append(i)
            prior.append(float(entry["prior"]))
            utility.append(float(entry["utility"]))
        i += 1
    return FlatTree(
        names,
        np.asarray(depth),
        np.asarray(parent),
        np.asarray(first_child),
        np.asarray(n_children),
        np.asarray(prior),
        np.asarray(utility),
        tags,
    )


@dataclass(frozen=True)
class TreeSolution:
    values: np.ndarray
    policy: np.ndarray  # per node: probability of the edge into it


def solve_tree(tree: FlatTree, lam, mu) -> TreeSolution:
    """Level-wise soft backup, deepest level first; leaves have value 0.

    Each internal node tilts its children's prior by edge utility plus child
    value at lam or mu, as its tag says. A node's edge probabilities are
    renormalised first, as the program does once at ingestion.
    """
    lam = temperature(lam)
    if lam in ("zero", "-inf") or (not isinstance(lam, str) and lam < 0):
        raise ValueError("lambda must be positive or 'inf'")
    temps = {"lambda": lam, "mu": temperature(mu)}
    n = len(tree.names)
    values = np.zeros(n)
    policy = np.zeros(n)
    internal = tree.n_children > 0
    tags = np.asarray(tree.tags)
    for d in range(int(tree.depth.max()) - 1, -1, -1):
        for tag, t in temps.items():
            nodes = np.flatnonzero(internal & (tree.depth == d) & (tags == tag))
            if nodes.size == 0:
                continue
            counts = tree.n_children[nodes]
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            children = np.repeat(tree.first_child[nodes] - starts, counts) + np.arange(
                counts.sum()
            )
            p = tree.prior[children]
            p = p / np.add.reduceat(p, starts)[_segment_ids(starts, p.size)]
            res = segment_tilt(p, tree.utility[children] + values[children], starts, t)
            values[nodes] = res.value
            policy[children] = res.policy
    return TreeSolution(values, policy)
