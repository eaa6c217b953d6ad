"""Brute-force reference optimizers used to certify the analytic solvers.

Nothing here calls the analytic code paths: objectives are recomputed from
the elementary measures (expectation, KL) only, so agreement between an
oracle and a solver is genuine evidence rather than the same code run twice.
Everything is deterministic given the instance and resolution, and
intentionally size-capped — these are certificates, not production solvers.

The simplex searches are exact maximizations over the lattice {c/N} of the
probability simplex. Because both objectives are per-coordinate separable,
the lattice maximum is found by max-plus convolution across coordinates in
O(n·N²) instead of enumerating the full lattice (which for 4 outcomes at
N = 1000 would be ~1.7e8 points); the reported evaluation count is the
lattice cardinality the convolution covers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import (
    ARGMAX_TIE_TOL,
    DecisionTree,
    DomainError,
    FiniteDistribution,
    TooLarge,
    TooManyOutcomes,
    TooManyPaths,
    TwoStageProblem,
    UtilityTable,
    expectation,
    kl_divergence,
)
from .sequential import TreeValue

MAX_GRID_OUTCOMES = 4
MAX_PATHS = 100_000


@dataclass(frozen=True)
class OracleResult:
    """Best value and point found by a grid oracle.

    best_point is a FiniteDistribution for single-simplex searches or a
    tuple of distributions for the staged search; evaluations is the
    cardinality of the lattice covered.
    """

    best_value: float
    best_point: FiniteDistribution | tuple
    resolution: float
    evaluations: int


def _check_resolution(resolution: float) -> int:
    resolution = float(resolution)
    if not (1e-4 <= resolution <= 0.1):
        raise DomainError(
            f"grid resolution must lie in [1e-4, 0.1], got {resolution!r}"
        )
    return int(round(1.0 / resolution))


def simplex_grid_search(
    prior: FiniteDistribution,
    u_star: UtilityTable,
    alpha: float,
    resolution: float = 1e-3,
) -> OracleResult:
    """Exact maximum of Σ P·u_star − α·KL(P‖prior) over the simplex lattice.

    The objective is a sum of per-coordinate terms
    x·u_i − α·x·log(x/prior_i), so the lattice maximum over all count
    vectors summing to N is computed by max-plus convolution with
    backpointers; points putting mass where the prior has none are
    infeasible and never selected.
    """
    n = len(prior)
    if n > MAX_GRID_OUTCOMES:
        raise TooManyOutcomes(
            f"grid search supports at most {MAX_GRID_OUTCOMES} outcomes, got {n}"
        )
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"temperature must be a positive real, got {alpha!r}")
    N = _check_resolution(resolution)
    u = u_star.aligned_to(prior.outcomes)

    x = np.arange(N + 1) / N
    terms = []
    for i in range(n):
        p_i = prior.probs[i]
        t = np.full(N + 1, -np.inf)
        t[0] = 0.0
        if p_i > 0.0:
            xs = x[1:]
            t[1:] = xs * u[i] - alpha * xs * np.log(xs / p_i)
        terms.append(t)

    # Max-plus convolution: f[s] = best objective using the first k
    # coordinates with total count s; choices[k][s] records coordinate k's
    # count at that optimum.
    f = terms[0]
    choices = []
    for k in range(1, n):
        padded = np.concatenate([np.full(N, -np.inf), f])
        windows = sliding_window_view(padded, N + 1)[:, ::-1]  # [s, c] = f[s-c]
        scores = windows + terms[k][None, :]
        best_c = np.argmax(scores, axis=1)
        f = scores[np.arange(N + 1), best_c]
        choices.append(best_c)

    counts = [0] * n
    s = N
    for k in range(n - 1, 0, -1):
        c = int(choices[k - 1][s])
        counts[k] = c
        s -= c
    counts[0] = s

    best = FiniteDistribution(prior.outcomes, [c / N for c in counts])
    best_value = expectation(best, u_star) - alpha * kl_divergence(best, prior)
    return OracleResult(best_value, best, 1.0 / N, math.comb(N + n - 1, n - 1))


def _pair_grid_objective(
    x: np.ndarray, q: FiniteDistribution, u: UtilityTable, inv_temp_divisor: float
) -> np.ndarray:
    """Vectorized Σ p·u − (1/t)·KL(p‖q) over 2-outcome grid points [x, 1-x].

    Infeasible points (mass where q has none) come out as -inf when the
    divisor is positive and +inf when negative, so max/min skip them
    naturally.
    """
    q0, q1 = q.probs
    u0, u1 = u.values
    # A tiny divisor may overflow the penalty to ±inf, which is its limit.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t0 = np.where(x > 0.0, x * np.log(x / q0) if q0 > 0.0 else np.inf, 0.0)
        t1 = np.where(x < 1.0, (1 - x) * np.log((1 - x) / q1) if q1 > 0.0 else np.inf, 0.0)
        kl = t0 + t1
        return x * u0 + (1 - x) * u1 - kl / inv_temp_divisor


def two_stage_objective(
    problem: TwoStageProblem,
    lam: float,
    mu: float,
    action_policy: FiniteDistribution,
    outcome_beliefs: dict[str, FiniteDistribution],
) -> float:
    """The staged trade-off objective at explicitly given distributions.

    Σ_a p(a)·[U1(a) + Σ_o p(o|a)·U2(a,o) − (1/mu)·KL(p(·|a)‖p0(·|a))]
    − (1/lam)·KL(p‖p0). Beliefs of zero-probability actions do not
    contribute. Built from the elementary measures only, so it can score
    analytic solutions without touching their code.
    """
    lam = float(lam)
    mu = float(mu)
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"lam must be a positive finite real, got {lam!r}")
    if not math.isfinite(mu) or mu == 0.0:
        raise DomainError(f"mu must be a finite nonzero real, got {mu!r}")
    total = []
    for a in problem.actions:
        w = action_policy.prob(a)
        if w == 0.0:
            continue
        row = outcome_beliefs[a]
        inner = (
            expectation(row, problem.outcome_utility[a])
            - kl_divergence(row, problem.channel[a]) / mu
        )
        total.append(w * (problem.action_utility.value(a) + inner))
    return (
        math.fsum(total)
        - kl_divergence(action_policy, problem.prior_action) / lam
    )


def exhaustive_two_stage(
    problem: TwoStageProblem, lam: float, mu: float, resolution: float = 1e-3
) -> OracleResult:
    """Grid optimum of the staged objective on 2-action × 2-outcome problems.

    The lattice is the product of three 2-outcome simplices at step 1/N.
    The objective separates: each action's belief row is optimized on its
    own 1-D grid (maximized for mu > 0; minimized for mu < 0, where the
    environment stage is adversarial and the problem is a max-min), then the
    action distribution is optimized on its 1-D grid against those row
    optima. This covers the full (N+1)³ lattice exactly, which is the
    reported evaluation count.
    """
    if len(problem.actions) != 2 or len(problem.outcomes) != 2:
        raise TooLarge(
            "staged grid search supports exactly 2 actions x 2 outcomes, got "
            f"{len(problem.actions)}x{len(problem.outcomes)}"
        )
    lam = float(lam)
    mu = float(mu)
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"lam must be a positive finite real, got {lam!r}")
    if not math.isfinite(mu) or mu == 0.0:
        raise DomainError(f"mu must be a finite nonzero real, got {mu!r}")
    N = _check_resolution(resolution)
    x = np.arange(N + 1) / N

    row_best: dict[str, FiniteDistribution] = {}
    row_value: dict[str, float] = {}
    for a in problem.actions:
        scores = _pair_grid_objective(
            x, problem.channel[a], problem.outcome_utility[a], mu
        )
        k = int(np.argmax(scores)) if mu > 0.0 else int(np.argmin(scores))
        row_best[a] = FiniteDistribution(problem.outcomes, [x[k], 1 - x[k]])
        row_value[a] = float(scores[k])

    a0, a1 = problem.actions
    g0 = problem.action_utility.value(a0) + row_value[a0]
    g1 = problem.action_utility.value(a1) + row_value[a1]
    outer = _pair_grid_objective(
        x, problem.prior_action, UtilityTable(problem.actions, [g0, g1]), lam
    )
    j = int(np.argmax(outer))
    p1 = FiniteDistribution(problem.actions, [x[j], 1 - x[j]])
    return OracleResult(
        float(outer[j]),
        (p1, row_best[a0], row_best[a1]),
        1.0 / N,
        (N + 1) ** 3,
    )


def enumerate_minimax(problem: TwoStageProblem) -> tuple[str, float]:
    """Exhaustive max over actions of the min outcome utility on the
    channel's support (plus direct action utility); ground truth for the
    worst-case solver. Actions without prior mass are skipped, since no
    policy anchored to that prior can choose them. The first-listed action
    within ARGMAX_TIE_TOL of the best value wins ties."""
    worst = {}
    for a, w in zip(problem.actions, problem.prior_action.probs):
        if w == 0.0:
            continue
        row = problem.channel[a]
        util = problem.outcome_utility[a]
        candidates = [
            util.value(o) for o, p in zip(row.outcomes, row.probs) if p > 0.0
        ]
        worst[a] = problem.action_utility.value(a) + min(candidates)
    best = max(worst.values())
    return next(a for a, v in worst.items() if v >= best - ARGMAX_TIE_TOL), best


def bellman_backup(tree: DecisionTree) -> TreeValue:
    """Hard-max dynamic program: V = max over supported children of U + V.

    The limit of value_recursion as every temperature goes to +inf; policies
    are uniform over children within 1e-12 of the maximum.
    """
    values: dict[str, float] = {}
    policies: dict[str, FiniteDistribution] = {}
    # Post-order (children first, in order) is the reverse of a pre-order
    # that visits children last to first; an explicit stack bounds the depth
    # by memory.
    stack, order = [(tree.root, tree.root.name)], []
    while stack:
        node, path = stack.pop()
        order.append((node, path))
        stack.extend((child, f"{path}/{child.name}") for child in node.children)
    for node, path in reversed(order):
        if node.is_leaf:
            values[path] = 0.0
            continue
        totals = {}
        for child, u in zip(node.children, node.child_utility.values):
            if node.child_prior.prob(child.name) > 0.0:
                totals[child.name] = u + values[f"{path}/{child.name}"]
        best = max(totals.values())
        winners = [n for n, t in totals.items() if abs(t - best) <= ARGMAX_TIE_TOL]
        share = 1.0 / len(winners)
        names = tuple(c.name for c in node.children)
        policies[path] = FiniteDistribution(
            names, [share if n in winners else 0.0 for n in names]
        )
        values[path] = best
    return TreeValue(values, policies, tree.root.name)


def path_enumeration(tree: DecisionTree, lam: float) -> float:
    """Root value by brute force over whole paths:
    (1/lam)·log Σ_paths P0(path)·exp(lam·U(path)).

    P0(path) is the product of edge priors, U(path) the sum of edge
    utilities; zero-prior edges contribute nothing and are skipped. Equals
    the root value of the soft recursion when every node runs at lam — the
    per-node log-normalizers telescope into this single path sum.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam == 0.0:
        raise DomainError(f"lam must be a finite nonzero real, got {lam!r}")
    n_paths = tree.n_leaves()
    if n_paths > MAX_PATHS:
        raise TooManyPaths(
            f"tree has {n_paths} root-to-leaf paths, limit is {MAX_PATHS}"
        )

    log_ps: list[float] = []
    utils: list[float] = []
    # Depth first with an explicit stack, children pushed last to first so
    # that the leaves come in order.
    stack = [(tree.root, [], [])]
    while stack:
        node, log_p_terms, u_terms = stack.pop()
        if node.is_leaf:
            log_ps.append(math.fsum(log_p_terms))
            utils.append(math.fsum(u_terms))
            continue
        for child in reversed(node.children):
            p = node.child_prior.prob(child.name)
            if p == 0.0:
                continue
            u = node.child_utility.value(child.name)
            stack.append((child, log_p_terms + [math.log(p)], u_terms + [u]))
    scores = np.asarray(log_ps) + lam * np.asarray(utils)
    return _logsumexp(scores) / lam


def _logsumexp(a: np.ndarray) -> float:
    """log Σ exp(a) for a nonempty 1-D array.

    The maximal entries are taken out of the sum and added back exactly:
    log Σ exp(a) = a_max + log(m) + log1p(Σ' exp(a − a_max) / m), where m
    counts the maximal entries and Σ' runs over the others. This is the form
    scipy.special.logsumexp uses, and it agrees with it bit for bit.
    """
    a_max = a.max()
    top = a == a_max
    m = float(np.count_nonzero(top))
    s = float(np.exp(np.where(top, -np.inf, a - a_max)).sum()) / m
    return float(np.log1p(s) + np.log(m) + a_max)
