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
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .model import (
    NORMALIZATION_TOL,
    DecisionTree,
    DomainError,
    FiniteDistribution,
    LAMBDA_TAG,
    LazyMapping,
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
    outcome beliefs against their channels. outer_policy builds the outcome
    beliefs on first read.
    """

    action_policy: FiniteDistribution
    outcome_beliefs: Mapping[str, FiniteDistribution]
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
    with np.errstate(over="ignore"):
        np.divide(beliefs, channel, out=terms, where=beliefs > 0.0)
    # Past the float range (a subnormal channel entry), the ratio is taken as logs.
    big = np.isinf(terms)
    np.log(terms, out=terms)
    terms[big] = np.log(beliefs[big]) - np.log(channel[big])
    terms *= beliefs
    terms = terms.tolist()
    bounds = starts.tolist() + [len(terms)]
    return [
        0.0 if same else max(math.fsum(terms[lo:hi]), 0.0)
        for lo, hi, same in zip(bounds, bounds[1:], kept)
    ]


def _beliefs(problem: TwoStageProblem, blocks) -> dict[str, FiniteDistribution]:
    """The outcome beliefs of tilted blocks of rows: a row the tilt kept is
    the channel row itself."""
    outcomes, width = problem.outcomes, len(problem.outcomes)
    return {
        a: problem.channel[a] if same else FiniteDistribution(outcomes, flat[lo : lo + width])
        for block, flat, starts, kept in blocks
        for a, lo, same in zip(block, starts, kept)
    }


def outer_policy(problem: TwoStageProblem, lam, mu) -> TwoStageSolution:
    """Solve the nested problem at inverse temperatures (lam, mu).

    Inner stage first: each action's channel is tilted at mu, yielding a
    per-action certainty equivalent; the outer stage then tilts the action
    prior at lam by direct utility plus that certainty equivalent.
    lam = +inf is the hard arg-max over actions (uniform over exact ties);
    lam = zero is rejected — an infinitely expensive chooser never moves,
    which is not a solvable regime here.

    The inner stage is a segmented tilt over the problem's actions × outcomes
    arrays, one segment per action, in blocks of rows of about
    _BLOCK_ENTRIES entries so that no temporary grows with the whole matrix.
    """
    temps = TemperatureSpec(lam, mu)
    if temps.lam.is_zero:
        raise UnsupportedRegime(
            "lambda at the zero limit pins the policy to its prior; "
            "use a finite lambda or the inf limit"
        )
    actions, width = problem.actions, len(problem.outcomes)
    blocks = []
    inner_values: list[float] = []
    inner_log_z: list[float | None] = []
    row_kls: list[float] = []
    step = max(1, _BLOCK_ENTRIES // width)
    for first in range(0, len(actions), step):
        rows = slice(first, first + step)
        channel = problem.channel_matrix[rows].reshape(-1)  # views of the rows
        starts = np.arange(0, channel.size, width)
        flat, block_values, block_log_z, kept = _tilt_segments(
            channel, problem.utility_matrix[rows].reshape(-1), starts, temps.mu
        )
        inner_values += block_values
        inner_log_z += block_log_z
        row_kls += _row_kls(flat, channel, starts, kept)
        blocks.append((actions[rows], flat, starts.tolist(), kept))
        # Tilted rows are nonnegative and sum to 1 within rounding unless they
        # hold a NaN; such a block builds its beliefs now, to raise the error.
        if not np.isfinite(flat).all():
            _beliefs(problem, blocks[-1:])

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
        outcome_beliefs=LazyMapping(lambda: _beliefs(problem, blocks)),
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
    Leaves have value 0 and no policy entry. value_recursion also keeps its
    results as arrays in the tree's breadth-first order, flat_values per node
    and flat_policy per edge, and builds the two mappings from them on first
    read.
    """

    values: Mapping[str, float]
    policies: Mapping[str, FiniteDistribution]
    root_path: str
    flat_values: np.ndarray | None = field(default=None, compare=False, repr=False)
    flat_policy: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def root_value(self) -> float:
        if self.flat_values is not None:
            return self.flat_values[0].item()
        return self.values[self.root_path]


def _tree_value(tree: DecisionTree, value: np.ndarray, policy: np.ndarray) -> TreeValue:
    """A TreeValue over the flat results, its mappings in post-order
    (children before their parent), the order a recursive backup fills."""
    names = tree.names

    def values() -> dict[str, float]:
        paths, value_list = tree.paths(), value.tolist()
        return {paths[i]: value_list[i] for i in tree.orders()[1].tolist()}

    def policies() -> dict[str, FiniteDistribution]:
        paths, probs = tree.paths(), policy.tolist()
        first, counts = tree.first_child.tolist(), tree.n_children.tolist()
        return {
            paths[i]: FiniteDistribution._trusted(
                names[first[i] : first[i] + counts[i]],
                probs[first[i] - 1 : first[i] + counts[i] - 1],
            )
            for i in tree.orders()[1].tolist()
            if counts[i]
        }

    return TreeValue(LazyMapping(values), LazyMapping(policies), names[0], value, policy)


def value_recursion(tree: DecisionTree, temps: TemperatureSpec) -> TreeValue:
    """Bottom-up soft backup over a decision tree.

    Leaves carry value 0. Each internal node backs up
    V = (1/t)·log Σ p0(child)·exp(t·(U(child) + V(child))) at the inverse
    temperature its tag selects from temps (tag "lambda" or "mu"), with the
    node policy being the corresponding tilt. Infinite temperatures become
    hard max (t = +inf) or hard min (t = -inf) with uniform tie-breaking;
    lam at the zero limit is rejected as in outer_policy.

    The tree's arrays are breadth-first, so the children of one level are
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
    n = len(tree.names)
    first_child, n_children = tree.first_child, tree.n_children
    prior, utility = tree.prior, tree.utility
    levels = [0]  # index of the first node of each level, then the node count
    while levels[-1] < n:
        levels.append(int(first_child[levels[-1]]))
    is_mu = np.array([tag == MU_TAG for tag in tree.tags])
    value = np.zeros(n)
    gains = np.empty(n - 1)
    policy = np.empty(n - 1)
    kept = np.zeros(n, dtype=bool)
    # Nodes whose gains are not all finite (zero gains stand in for the
    # tilt) or whose tilted row FiniteDistribution would reject: the check
    # below raises the error the first of them would have raised.
    faulty = np.zeros(n, dtype=bool)

    for lo, hi, end in reversed(list(zip(levels, levels[1:], levels[2:]))):
        # The parents among nodes lo .. hi; their edges, hi - 1 .. end - 1,
        # lead to the nodes of the next level.
        parents = lo + np.flatnonzero(n_children[lo:hi])
        offsets = first_child[parents] - hi
        level_gains = gains[hi - 1 : end - 1]
        # Gains that overflow are caught by this finiteness check, and the
        # nodes they break raise their errors below.
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(utility[hi - 1 : end - 1], value[hi:end], out=level_gains)
            all_finite = math.isfinite(np.add.reduce(level_gains))
        tilt_gains = level_gains
        if not all_finite:
            finite = np.isfinite(level_gains)
            faulty[parents] = ~np.logical_and.reduceat(finite, offsets)
            tilt_gains = np.where(finite, level_gains, 0.0)
        level_mu = is_mu[parents]
        n_mu = int(np.count_nonzero(level_mu))
        for want_mu, t in ((False, temps.lam), (True, temps.mu)):
            chosen = n_mu if want_mu else len(parents) - n_mu
            if not chosen:
                continue
            if chosen == len(parents):
                segments, starts, entries = parents, offsets, slice(hi - 1, end - 1)
                p, g = prior[entries], tilt_gains
            else:
                pick = level_mu == want_mu
                lengths = n_children[parents]
                mask = np.repeat(pick, lengths)
                lengths = lengths[pick]
                segments, starts = parents[pick], np.cumsum(lengths) - lengths
                entries = np.flatnonzero(mask) + (hi - 1)
                p, g = prior[entries], tilt_gains[mask]
            flat, level_values, _, same = _tilt_segments(p, g, starts, t)
            policy[entries] = flat
            value[segments] = level_values
            kept[segments] = same

    # Every tilted row is normalised as FiniteDistribution normalises it: by
    # its math.fsum, checked against NORMALIZATION_TOL. Its entries are
    # nonnegative or NaN, and a NaN fails that check as well.
    internal = np.flatnonzero(n_children)
    counts = n_children[internal]
    ends = np.cumsum(counts).tolist()
    rows = map(policy.tolist().__getitem__, map(slice, [0] + ends, ends))
    totals = np.fromiter(map(math.fsum, rows), float, len(internal))
    totals[kept[internal]] = 1.0  # a kept row is the prior, not a tilt
    faulty[internal] |= ~(np.abs(totals - 1.0) <= NORMALIZATION_TOL)
    if faulty.any():
        # The error of the first faulty node in post-order, the one a
        # recursive backup meets first.
        post = tree.orders()[1]
        i = int(post[faulty[post]][0])
        lo, hi = int(first_child[i]), int(first_child[i] + n_children[i])
        names = tree.names[lo:hi]
        UtilityTable(names, gains[lo - 1 : hi - 1])  # raises for gains not all finite
        FiniteDistribution(names, policy[lo - 1 : hi - 1])  # else for the tilted row
    policy /= np.repeat(totals, counts)
    return _tree_value(tree, value, policy)


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
