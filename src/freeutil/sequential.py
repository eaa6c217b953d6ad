"""Staged decision problems: nested tilts, risk attitudes, tree recursion.

A two-stage problem is solved inside-out. The inner stage tilts each
action's outcome channel at inverse temperature mu, producing a certainty
equivalent per action; the outer stage tilts the action prior by those
certainty equivalents (plus direct action utilities) at inverse temperature
lam. The same backup generalizes to finite decision trees of any depth,
with a per-node tag choosing which of the two temperatures governs it.

mu is a risk attitude: mu < 0 is an adversarial/pessimistic environment
stage, mu -> -inf the worst-case (max-min) limit, mu -> 0 the risk-neutral
expectation, mu -> +inf the best-case limit. lam is the chooser's own
softness: finite lam keeps the policy close to its prior, lam -> +inf is the
hard arg-max.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import (
    DecisionTree,
    DomainError,
    FiniteDistribution,
    LAMBDA_TAG,
    MU_TAG,
    TemperatureSpec,
    TreeNode,
    TwoStageProblem,
    UnsupportedRegime,
    UtilityTable,
    kl_divergence,
)
from .variational import _tilt_segments, exponential_tilt


def certainty_equivalent(p: FiniteDistribution, u: UtilityTable, mu) -> float:
    """(1/mu)·log Σ p·exp(mu·u), the utility of a gamble as a single number.

    mu = zero limit: the plain expectation. mu = +inf / -inf: max / min of u
    over support(p). Non-decreasing in mu and always within [min, max] of
    the supported utilities.
    """
    return exponential_tilt(p, u, mu).value


def taylor_ce_approx(p: FiniteDistribution, u: UtilityTable, mu: float) -> float:
    """Second-order small-mu expansion of the certainty equivalent:
    E[u] + (mu/2)·VAR[u].

    The plus sign is the verified one — the curvature of (1/mu)·log E[exp(mu·u)]
    at mu = 0 is +VAR[u]/2, checked numerically against certainty_equivalent
    (error falls as mu³ with the plus sign and stays at order mu·VAR with a
    minus sign).
    """
    mu = float(mu)
    vals = u.aligned_to(p.outcomes)
    mean = math.fsum(pi * vi for pi, vi in zip(p.probs, vals))
    var = math.fsum(pi * (vi - mean) ** 2 for pi, vi in zip(p.probs, vals))
    return mean + 0.5 * mu * var


def regime_label(temps: TemperatureSpec) -> str:
    """Name the (lam, mu) combination by its decision attitude.

    mu > 0 rewards utility variance (risk-seeking), mu < 0 penalizes it
    (risk-averse), mu = zero is risk-neutral, mu = -inf is the worst-case
    robust attitude, mu = +inf the best-case optimistic one. A finite lam
    adds the "-bounded" suffix: the chooser itself stays soft, anchored to
    its prior policy.
    """
    mu = temps.mu
    if mu.is_zero:
        base = "risk-neutral"
    elif mu.is_neg_inf:
        base = "robust"
    elif mu.is_pos_inf:
        base = "optimistic"
    elif mu.value > 0:
        base = "risk-seeking"
    else:
        base = "risk-averse"
    return base + "-bounded" if temps.lam.is_finite else base


@dataclass(frozen=True)
class TwoStageSolution:
    """Full solution of a two-stage problem.

    values[a] is the certainty equivalent of committing to action a (its
    direct utility plus the inner certainty equivalent of its outcome
    channel); value is the root certainty equivalent over actions. log_z1
    and log_z2[a] are the log-normalizers of the outer/inner tilts (None at
    infinite temperatures, where the normalizer diverges; exactly 0.0 at the
    zero limit). achieved_c1 and achieved_c2 are the KL budgets actually
    spent: KL(action_policy‖prior) and the policy-weighted KL of the
    outcome beliefs against their channels.
    """

    action_policy: FiniteDistribution
    outcome_beliefs: dict[str, FiniteDistribution]
    log_z1: float | None
    log_z2: dict[str, float | None]
    values: dict[str, float]
    value: float
    achieved_c1: float
    achieved_c2: float
    regime: str

    def chosen_action(self) -> str:
        """Most probable action, first-listed on exact ties."""
        best_i = 0
        for i, p in enumerate(self.action_policy.probs):
            if p > self.action_policy.probs[best_i]:
                best_i = i
        return self.action_policy.outcomes[best_i]


def inner_policy(
    problem: TwoStageProblem, action: str, mu
) -> tuple[FiniteDistribution, float | None]:
    """Tilted outcome beliefs for one action and the inner log-normalizer.

    Beliefs ∝ p0(outcome|action)·exp(mu·U(outcome|action)); mu = zero limit
    returns the channel row unchanged; mu < 0 shifts mass toward low-utility
    outcomes (the adversarial reading of the environment stage).
    """
    row = problem.channel_row(action)
    util = problem.outcome_utility_row(action)
    result = exponential_tilt(row, util, mu)
    return result.policy, result.log_partition


# Channel entries per segmented tilt in outer_policy.
_BLOCK_ENTRIES = 1 << 14


def _row_kls(beliefs, channel, starts, kept) -> list[float]:
    """KL(beliefs row ‖ channel row) in nats for every row of two flat
    matrices; rows the tilt kept at the prior are 0.0."""
    if all(kept):
        return [0.0] * len(kept)
    terms = np.ones_like(beliefs)
    np.divide(beliefs, channel, out=terms, where=beliefs > 0.0)
    np.log(terms, out=terms)
    terms *= beliefs
    bounds = starts.tolist() + [len(beliefs)]
    return [
        0.0 if same else max(math.fsum(terms[lo:hi].tolist()), 0.0)
        for lo, hi, same in zip(bounds, bounds[1:], kept)
    ]


def outer_policy(problem: TwoStageProblem, lam, mu) -> TwoStageSolution:
    """Solve the nested problem at inverse temperatures (lam, mu).

    Inner stage first: each action's channel is tilted at mu, yielding a
    per-action certainty equivalent; the outer stage then tilts the action
    prior at lam by direct utility plus that certainty equivalent.
    lam = +inf is the hard arg-max over actions (uniform over exact ties);
    lam = zero is rejected — an infinitely expensive chooser never moves,
    which is not a solvable regime here.

    The inner stage is a segmented tilt over the flat actions × outcomes
    matrices, one segment per action, in blocks of rows of about
    _BLOCK_ENTRIES entries so that no temporary grows with the whole matrix.
    """
    temps = TemperatureSpec(lam, mu)
    if temps.lam.is_zero:
        raise UnsupportedRegime(
            "lambda at the zero limit pins the policy to its prior; "
            "use a finite lambda or the inf limit"
        )
    actions, outcomes = problem.actions, problem.outcomes
    width = len(outcomes)
    beliefs: dict[str, FiniteDistribution] = {}
    inner_values: list[float] = []
    inner_log_z: list[float | None] = []
    row_kls: list[float] = []
    step = max(1, _BLOCK_ENTRIES // width)
    for first in range(0, len(actions), step):
        block = actions[first : first + step]
        rows = [problem.channel[a] for a in block]
        size = len(block) * width
        channel = np.fromiter(chain.from_iterable(r.probs for r in rows), float, size)
        utility = np.fromiter(
            chain.from_iterable(problem.outcome_utility[a].values for a in block),
            float,
            size,
        )
        starts = np.arange(0, size, width)
        flat, block_values, block_log_z, kept = _tilt_segments(
            channel, utility, starts, temps.mu
        )
        inner_values += block_values
        inner_log_z += block_log_z
        row_kls += _row_kls(flat, channel, starts, kept)
        for a, row, lo, same in zip(block, rows, starts.tolist(), kept):
            beliefs[a] = row if same else FiniteDistribution(
                outcomes, flat[lo : lo + width].tolist()
            )
    values = {
        a: u + v
        for a, u, v in zip(actions, problem.action_utility.values, inner_values)
    }
    gains = UtilityTable(actions, list(values.values()))
    outer = exponential_tilt(problem.prior_action, gains, temps.lam)
    c1 = kl_divergence(outer.policy, problem.prior_action)
    c2 = math.fsum(p * kl for p, kl in zip(outer.policy.probs, row_kls) if p > 0.0)
    return TwoStageSolution(
        action_policy=outer.policy,
        outcome_beliefs=beliefs,
        log_z1=outer.log_partition,
        log_z2=dict(zip(actions, inner_log_z)),
        values=values,
        value=outer.value,
        achieved_c1=c1,
        achieved_c2=c2,
        regime=regime_label(temps),
    )


def solve_regime(problem: TwoStageProblem, temps: TemperatureSpec) -> TwoStageSolution:
    """Solve a two-stage problem under a named temperature regime.

    Finite lam with mu > 0 is the softly-bounded risk-seeking regime;
    lam = inf with mu = zero recovers the expected-utility maximizer;
    lam = inf with mu < 0 is the risk-averse chooser; lam = inf with
    mu = -inf is the robust worst-case chooser.
    """
    if not isinstance(temps, TemperatureSpec):
        raise DomainError(f"expected a TemperatureSpec, got {type(temps).__name__}")
    return outer_policy(problem, temps.lam, temps.mu)


def minimax_solve(problem: TwoStageProblem) -> tuple[str, float]:
    """Worst-case-optimal action and its value, read off the staged solver at
    (lam, mu) = (+inf, -inf): the first-listed action the policy supports.

    Each action scores its direct utility plus the minimum outcome utility
    over its channel's support; actions without prior mass cannot be chosen.
    """
    sol = solve_regime(problem, TemperatureSpec("inf", "-inf"))
    return sol.action_policy.support()[0], sol.value


def risk_sensitive_argmax(problem: TwoStageProblem, mu: float) -> tuple[str, float]:
    """Best action under the certainty-equivalent criterion at finite mu,
    read off the staged solver at lam = +inf: the first-listed action the
    policy supports, and its value.

    Negative mu penalizes outcome variance and converges to minimax_solve as
    mu -> -inf; positive mu is the risk-seeking evaluation.
    """
    mu = float(mu)
    if not math.isfinite(mu) or mu == 0.0:
        raise DomainError(f"mu must be a finite nonzero real, got {mu!r}")
    sol = outer_policy(problem, "inf", mu)
    return sol.action_policy.support()[0], sol.value


@dataclass(frozen=True)
class TreeValue:
    """Per-node values and child policies of a solved decision tree.

    Keys are node paths: the root's name, then child names joined by "/".
    Leaves have value 0 and no policy entry.
    """

    values: dict[str, float]
    policies: dict[str, FiniteDistribution]
    root_path: str

    @property
    def root_value(self) -> float:
        return self.values[self.root_path]


def value_recursion(tree: DecisionTree, temps: TemperatureSpec) -> TreeValue:
    """Bottom-up soft backup over a decision tree.

    Leaves carry value 0. Each internal node backs up
    V = (1/t)·log Σ p0(child)·exp(t·(U(child) + V(child))) at the inverse
    temperature its tag selects from temps (tag "lambda" or "mu"), with the
    node policy being the corresponding tilt. Infinite temperatures become
    hard max (t = +inf) or hard min (t = -inf) with uniform tie-breaking;
    lam at the zero limit is rejected as in outer_policy.

    The nodes are laid out breadth-first, so the children of one level are
    the next level in order and edge e leads to node e + 1. The backup runs
    level by level, deepest first, with one segmented tilt per temperature
    tag; depth is bounded by memory, not by the recursion limit.
    """
    if not isinstance(temps, TemperatureSpec):
        raise DomainError(f"expected a TemperatureSpec, got {type(temps).__name__}")
    if temps.lam.is_zero:
        raise UnsupportedRegime(
            "lambda at the zero limit pins every policy to its prior; "
            "use a finite lambda or the inf limit"
        )
    nodes = [tree.root]
    first_child = []  # per node: the index of its first child
    levels = [0]  # index of the first node of each level, then the node count
    while levels[-1] < len(nodes):
        end = len(nodes)
        for node in nodes[levels[-1] : end]:
            first_child.append(len(nodes))
            nodes.extend(node.children)
        levels.append(end)
    internal = [node for node in nodes if node.children]
    n_edges = len(nodes) - 1
    prior = np.fromiter(
        chain.from_iterable(node.child_prior.probs for node in internal), float, n_edges
    )
    utility = np.fromiter(
        chain.from_iterable(node.child_utility.values for node in internal),
        float,
        n_edges,
    )
    value = np.zeros(len(nodes))
    gains = np.empty(n_edges)
    policy = np.empty(n_edges)
    kept = np.zeros(len(nodes), dtype=bool)
    # Nodes whose gains are not all finite: zero gains stand in for the
    # tilt, and the pass below raises the error the node would have raised.
    broken = np.zeros(len(nodes), dtype=bool)

    # Gains that overflow are caught by each level's finiteness check, and
    # the nodes they break raise their errors below.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in reversed(list(zip(levels[:-2], levels[1:-1]))):
            parents = [i for i in range(lo, hi) if nodes[i].children]
            if not parents:
                continue
            # The level's edges, e0 .. e1, lead to the nodes of the next level.
            e0 = first_child[parents[0]] - 1
            e1 = first_child[parents[-1]] - 1 + len(nodes[parents[-1]].children)
            level_gains = gains[e0:e1]
            offsets = np.array([first_child[i] - 1 - e0 for i in parents], dtype=np.intp)
            is_lam = [nodes[i].temperature_tag == LAMBDA_TAG for i in parents]
            parents = np.array(parents, dtype=np.intp)
            tilt_gains = level_gains
            np.add(utility[e0:e1], value[e0 + 1 : e1 + 1], out=level_gains)
            if not math.isfinite(np.add.reduce(level_gains)):
                finite = np.isfinite(level_gains)
                broken[parents] = ~np.logical_and.reduceat(finite, offsets)
                tilt_gains = np.where(finite, level_gains, 0.0)
            n_lam = sum(is_lam)
            for want_lam, t in ((True, temps.lam), (False, temps.mu)):
                chosen = n_lam if want_lam else len(is_lam) - n_lam
                if not chosen:
                    continue
                if chosen == len(is_lam):
                    segments, starts, entries = parents, offsets, slice(e0, e1)
                    p, g = prior[e0:e1], tilt_gains
                else:
                    pick = np.array(is_lam) == want_lam
                    lengths = np.diff(offsets, append=e1 - e0)
                    mask = np.repeat(pick, lengths)
                    lengths = lengths[pick]
                    segments, starts = parents[pick], np.cumsum(lengths) - lengths
                    entries = np.flatnonzero(mask) + e0
                    p, g = prior[entries], tilt_gains[mask]
                flat, level_values, _, same = _tilt_segments(p, g, starts, t)
                policy[entries] = flat
                value[segments] = level_values
                kept[segments] = same

    # Labelled results in post-order (children before their parent), the
    # order a recursive backup fills them in: the reverse of a pre-order
    # that visits children last to first.
    stack, order = [(0, tree.root.name)], []
    while stack:
        i, path = stack.pop()
        order.append((i, path))
        stack.extend(
            (j, f"{path}/{child.name}")
            for j, child in enumerate(nodes[i].children, first_child[i])
        )
    value_list, kept_list, broken_list = value.tolist(), kept.tolist(), broken.tolist()
    values: dict[str, float] = {}
    policies: dict[str, FiniteDistribution] = {}
    for i, path in reversed(order):
        node = nodes[i]
        if not node.children:
            values[path] = 0.0
            continue
        names = node.child_prior.outcomes
        lo = first_child[i] - 1
        hi = lo + len(names)
        if broken_list[i]:
            UtilityTable(names, gains[lo:hi])
        values[path] = value_list[i]
        policies[path] = (
            node.child_prior
            if kept_list[i]
            else FiniteDistribution(names, policy[lo:hi])
        )
    return TreeValue(values, policies, tree.root.name)


def two_stage_to_tree(problem: TwoStageProblem, root_name: str = "root") -> DecisionTree:
    """Recast a two-stage problem as the equivalent depth-2 decision tree.

    The root is a lambda-tagged node over actions; each action is a
    mu-tagged node over outcomes; outcomes are leaves. value_recursion on
    this tree reproduces outer_policy on the original problem.
    """
    action_nodes = []
    for a in problem.actions:
        leaves = tuple(TreeNode(name=o) for o in problem.outcomes)
        action_nodes.append(
            TreeNode(
                name=a,
                children=leaves,
                child_prior=problem.channel[a],
                child_utility=problem.outcome_utility[a],
                temperature_tag=MU_TAG,
            )
        )
    root = TreeNode(
        name=root_name,
        children=tuple(action_nodes),
        child_prior=problem.prior_action,
        child_utility=problem.action_utility,
        temperature_tag=LAMBDA_TAG,
    )
    return DecisionTree(root)
