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
from .variational import exponential_tilt


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


def outer_policy(problem: TwoStageProblem, lam, mu) -> TwoStageSolution:
    """Solve the nested problem at inverse temperatures (lam, mu).

    Inner stage first: each action's channel is tilted at mu, yielding a
    per-action certainty equivalent; the outer stage then tilts the action
    prior at lam by direct utility plus that certainty equivalent.
    lam = +inf is the hard arg-max over actions (uniform over exact ties);
    lam = zero is rejected — an infinitely expensive chooser never moves,
    which is not a solvable regime here.
    """
    temps = TemperatureSpec(lam, mu)
    if temps.lam.is_zero:
        raise UnsupportedRegime(
            "lambda at the zero limit pins the policy to its prior; "
            "use a finite lambda or the inf limit"
        )
    beliefs: dict[str, FiniteDistribution] = {}
    log_z2: dict[str, float | None] = {}
    values: dict[str, float] = {}
    for a in problem.actions:
        inner = exponential_tilt(
            problem.channel[a], problem.outcome_utility[a], temps.mu
        )
        beliefs[a] = inner.policy
        log_z2[a] = inner.log_partition
        values[a] = problem.action_utility.value(a) + inner.value

    gains = UtilityTable(problem.actions, [values[a] for a in problem.actions])
    outer = exponential_tilt(problem.prior_action, gains, temps.lam)
    c1 = kl_divergence(outer.policy, problem.prior_action)
    c2 = math.fsum(
        outer.policy.prob(a) * kl_divergence(beliefs[a], problem.channel[a])
        for a in problem.actions
        if outer.policy.prob(a) > 0.0
    )
    return TwoStageSolution(
        action_policy=outer.policy,
        outcome_beliefs=beliefs,
        log_z1=outer.log_partition,
        log_z2=log_z2,
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
    """
    if not isinstance(temps, TemperatureSpec):
        raise DomainError(f"expected a TemperatureSpec, got {type(temps).__name__}")
    if temps.lam.is_zero:
        raise UnsupportedRegime(
            "lambda at the zero limit pins every policy to its prior; "
            "use a finite lambda or the inf limit"
        )
    values: dict[str, float] = {}
    policies: dict[str, FiniteDistribution] = {}

    def backup(node: TreeNode, path: str) -> float:
        if node.is_leaf:
            values[path] = 0.0
            return 0.0
        child_values = [backup(c, f"{path}/{c.name}") for c in node.children]
        names = tuple(c.name for c in node.children)
        gains = UtilityTable(
            names,
            [u + v for u, v in zip(node.child_utility.values, child_values)],
        )
        t = temps.lam if node.temperature_tag == LAMBDA_TAG else temps.mu
        result = exponential_tilt(node.child_prior, gains, t)
        values[path] = result.value
        policies[path] = result.policy
        return result.value

    backup(tree.root, tree.root.name)
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
