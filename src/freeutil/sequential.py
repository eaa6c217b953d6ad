"""Staged decision problems: nested tilts, risk attitudes, tree recursion.

A two-stage problem is solved inside-out. The inner stage tilts each
action's outcome channel at inverse temperature mu, producing a certainty
equivalent per action; the outer stage tilts the action prior by those
certainty equivalents (plus direct action utilities) at inverse temperature
lam. The same backup generalizes to finite decision trees of any depth,
with a per-node tag choosing which of the two temperatures governs it.
value_recursion is its one implementation; outer_policy runs it on the
problem's depth-2 tree (two_stage_to_tree) and reads the solution off it.

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
from typing import Mapping

import numpy as np

from .model import (
    DecisionTree,
    DomainError,
    FiniteDistribution,
    LazyMapping,
    TemperatureSpec,
    TreeValue,
    TwoStageProblem,
    UnsupportedRegime,
    UtilityTable,
    _BLOCK_EDGES,
    _check_node_name,
    _finite,
    _fsum,
    _normalise_rows,
    _real,
    _require,
    _row_kls,
    _tree_value,
)
# kl_divergence stays bound here: the benchmark's traced run wraps it.
from .model import kl_divergence  # noqa: F401
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
    _require(p, FiniteDistribution, "p")
    _require(u, UtilityTable, "u")
    mu = _real(mu, "mu")
    if math.isnan(mu):
        raise DomainError("mu must be a number, got nan")
    vals = u.aligned_to(p.outcomes).tolist()  # Python floats: a square past the range raises
    mean = _finite(_fsum([pi * vi for pi, vi in zip(p.probs, vals)]), "the mean of the utilities")
    try:
        var = math.fsum(pi * (vi - mean) ** 2 for pi, vi in zip(p.probs, vals))
    except OverflowError:
        raise DomainError("the variance of the utilities is past the float range") from None
    return _finite(mean + 0.5 * mu * var, "the expansion")


def regime_label(temps: TemperatureSpec) -> str:
    """Name the (lam, mu) combination by its decision attitude.

    mu > 0 rewards utility variance (risk-seeking), mu < 0 penalizes it
    (risk-averse), mu = zero is risk-neutral, mu = -inf is the worst-case
    robust attitude, mu = +inf the best-case optimistic one. A finite lam
    adds the "-bounded" suffix: the chooser itself stays soft, anchored to
    its prior policy.
    """
    mu = _require(temps, TemperatureSpec, "temps").mu
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
    row = _require(problem, TwoStageProblem, "problem").channel_row(action)
    util = problem.outcome_utility_row(action)
    result = exponential_tilt(row, util, mu)
    return result.policy, result.log_partition


def outer_policy(problem: TwoStageProblem, lam, mu) -> TwoStageSolution:
    """Solve the nested problem at inverse temperatures (lam, mu).

    Inner stage first: each action's channel is tilted at mu, yielding a
    per-action certainty equivalent; the outer stage then tilts the action
    prior at lam by direct utility plus that certainty equivalent.
    lam = +inf is the hard arg-max over actions (uniform over exact ties);
    lam = zero is rejected — an infinitely expensive chooser never moves,
    which is not a solvable regime here. A log-partition past the float
    range raises DomainError, as in exponential_tilt.

    Both stages are value_recursion on the problem's depth-2 tree; this
    reads the solution off its arrays. An outcome belief row with the bits of
    its channel row is that row's FiniteDistribution itself.
    """
    _require(problem, TwoStageProblem, "problem")
    temps = TemperatureSpec(lam, mu)
    if temps.lam.is_zero:
        raise UnsupportedRegime(
            "lambda at the zero limit pins the policy to its prior; "
            "use a finite lambda or the inf limit"
        )
    tv = value_recursion(problem._tree, temps)
    actions, n = problem.actions, len(problem.actions)
    probs = tv.flat_policy[:n].tolist()
    action_policy = FiniteDistribution._trusted(actions, probs)
    log_z = [None if math.isnan(z) else z for z in tv.flat_log_z[: n + 1].tolist()]
    rows = tv.flat_policy[n:].reshape(n, -1)

    def beliefs() -> dict[str, FiniteDistribution]:
        same = (rows.view(np.int64) == problem.channel_matrix.view(np.int64)).all(axis=1)
        return {
            a: problem.channel[a] if kept else FiniteDistribution._trusted(problem.outcomes, row)
            for a, kept, row in zip(actions, same.tolist(), rows.tolist())
        }

    values = problem.action_utility.array + tv.flat_values[1 : n + 1]
    return TwoStageSolution(
        action_policy=action_policy,
        outcome_beliefs=LazyMapping(beliefs),
        log_z1=log_z[0],
        log_z2=dict(zip(actions, log_z[1:])),
        values=dict(zip(actions, values.tolist())),
        value=tv.root_value,
        achieved_c1=tv.flat_kl[0].item(),
        achieved_c2=math.fsum(p * kl for p, kl in zip(probs, tv.flat_kl[1:].tolist()) if p > 0.0),
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
    mu = _real(mu, "mu")
    if not math.isfinite(mu) or mu == 0.0:
        raise DomainError(f"mu must be a finite nonzero real, got {mu!r}")
    sol = outer_policy(problem, "inf", mu)
    return sol.action_policy.support()[0], sol.value


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
    level by level, deepest first; a level's rows of each tag are tilted in
    blocks of whole rows of at most _BLOCK_EDGES edges, and each block is
    checked and normalised before the next. Depth is bounded by memory, not
    by the recursion limit. A row that cannot be solved, or whose
    log-partition is past the float range, raises the error a recursive
    backup would meet first: that of the first such node in post-order.
    """
    _require(tree, DecisionTree, "tree")
    if not isinstance(temps, TemperatureSpec):
        raise DomainError(f"expected a TemperatureSpec, got {type(temps).__name__}")
    if temps.lam.is_zero:
        raise UnsupportedRegime(
            "lambda at the zero limit pins every policy to its prior; "
            "use a finite lambda or the inf limit"
        )
    n = len(tree.names)
    first_child, n_children = tree.first_child, tree.n_children
    levels = tree.level_starts()
    internal = np.flatnonzero(n_children[: levels[-2]])  # the last level holds only leaves
    value = np.zeros(n)
    policy = np.empty(n - 1)
    log_z = np.empty(len(internal))
    row_kl = np.zeros(len(internal))
    # Nodes whose gains are not all finite (zero gains stand in for the
    # tilt), whose tilted row FiniteDistribution would reject, or whose
    # log-partition is infinite: the check below raises the error the first
    # of them would have raised.
    faulty = np.zeros(n, dtype=bool)

    for lo, hi in reversed(list(zip(levels, levels[1:]))):
        parents = internal[slice(*np.searchsorted(internal, (lo, hi)))]
        for want_mu, t in ((False, temps.lam), (True, temps.mu)):
            segments = parents[tree.is_mu[parents] == want_mu]
            ends = np.cumsum(n_children[segments])
            i = 0
            while i < len(segments):
                done = int(ends[i] - n_children[segments[i]])  # edges of earlier blocks
                j = max(i + 1, int(np.searchsorted(ends, done + _BLOCK_EDGES, "right")))
                block, rows = segments[i:j], np.searchsorted(internal, segments[i:j])
                i = j
                counts = n_children[block]
                starts = np.cumsum(counts) - counts
                # The edges into the children of each node of the block, in turn.
                edges = np.arange(int(ends[j - 1]) - done)
                edges += np.repeat(first_child[block] - 1 - starts, counts)
                p = tree.prior[edges]
                # Gains that overflow are caught by this finiteness check, and
                # the nodes they break raise their errors below.
                with np.errstate(over="ignore", invalid="ignore"):
                    gains = tree.utility[edges] + value[edges + 1]
                    all_finite = math.isfinite(np.add.reduce(gains))
                if not all_finite:
                    finite = np.isfinite(gains)
                    faulty[block] = ~np.logical_and.reduceat(finite, starts)
                    gains[~finite] = 0.0
                flat, value[block], log_z[rows], kept = _tilt_segments(p, gains, starts, t)
                faulty[block] |= np.isinf(log_z[rows])  # t·gain past the float range
                if not kept.all():
                    # A tilted row is normalised as FiniteDistribution
                    # normalises it. A kept row is the prior; a faulty one
                    # stays as the tilt left it.
                    faulty[block] |= ~_normalise_rows(flat, starts, kept | faulty[block])
                    row_kl[rows] = _row_kls(flat, p, starts)
                policy[edges] = flat

    if faulty.any():
        # The error of the first faulty node in post-order, the one a
        # recursive backup meets first.
        post = tree.orders()[1]
        i = int(post[faulty[post]][0])
        lo, hi = int(first_child[i]), int(first_child[i] + n_children[i])
        names = tree.names[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            gains = tree.utility[lo - 1 : hi - 1] + value[lo:hi]
        UtilityTable(names, gains)  # raises for gains not all finite
        FiniteDistribution(names, policy[lo - 1 : hi - 1])  # else for the tilted row
        _finite(log_z[np.searchsorted(internal, i)].item(), "the log-partition")  # else for this
    return _tree_value(tree, value, policy, log_z, row_kl)


def two_stage_to_tree(problem: TwoStageProblem, root_name: str = "root") -> DecisionTree:
    """Recast a two-stage problem as the equivalent depth-2 decision tree.

    The root is a lambda-tagged node over actions; each action is a
    mu-tagged node over outcomes; outcomes are leaves. This is the tree the
    problem holds, on which outer_policy runs value_recursion; another root
    name gives a tree over the same arrays. As in any DecisionTree, a node
    name holding '/' raises DomainError, the first such in pre-order.
    """
    actions, tree = _require(problem, TwoStageProblem, "problem").actions, problem._tree
    for name in chain((root_name, actions[0]), problem.outcomes, actions[1:]):
        _check_node_name(name)
    if root_name == tree.names[0]:
        return tree
    return DecisionTree._from_arrays(
        (root_name,) + tree.names[1:], tree.is_mu, tree.n_children, tree.prior, tree.utility
    )
