"""Brute-force reference optimizers used to certify the analytic solvers.

Nothing here calls the analytic code paths: objectives are recomputed from
the elementary measures (expectation, KL) only, so agreement between an
oracle and a solver is genuine evidence rather than the same code run twice.
The oracles read the problems' own arrays and import nothing but model;
the hard-max backup normalises its rows and takes their KL with model's row
kernels, as every TreeValue does.
Everything is deterministic given the instance and resolution, and
intentionally size-capped — these are certificates, not production solvers.

The simplex searches are exact maximizations over the lattice {c/N} of the
probability simplex. Because both objectives are per-coordinate separable,
the lattice maximum is found by max-plus convolution across coordinates in
O(n·N²) instead of enumerating the full lattice (which for 4 outcomes at
N = 1000 would be ~1.7e8 points); the reported evaluation count is the
lattice cardinality the convolution covers. Each convolution step scores
its (N+1)×(N+1) matrix a block of rows at a time, about _BLOCK_ENTRIES
entries, so the working memory is O(block·N), not O(N²). The staged
two-stage search is this simplex search run once per stage.
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
    TreeValue,
    TwoStageProblem,
    UtilityTable,
    _finite,
    _normalise_rows,
    _real,
    _require,
    _row_kls,
    _tree_value,
    expectation,
    kl_divergence,
)

MAX_GRID_OUTCOMES = 4
MAX_PATHS = 100_000

# Score-matrix entries per block of a max-plus convolution step.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class OracleResult:
    """Best value and point found by a grid oracle.

    best_point is a FiniteDistribution for single-simplex searches or, for
    the staged search, a tuple of the action distribution followed by one
    outcome distribution per action; evaluations is the cardinality of the
    lattice covered (for the staged search, the product of its stages').
    """

    best_value: float
    best_point: FiniteDistribution | tuple
    resolution: float
    evaluations: int


def _check_resolution(resolution: float) -> int:
    resolution = _real(resolution, "grid resolution")
    if not (1e-4 <= resolution <= 0.1):
        raise DomainError(
            f"grid resolution must lie in [1e-4, 0.1], got {resolution!r}"
        )
    return int(round(1.0 / resolution))


def _log_ratio(x: np.ndarray, q: float) -> np.ndarray:
    """log(x/q) for q > 0; where x/q overflows (a subnormal q), log x − log q."""
    with np.errstate(over="ignore"):
        out = np.log(x / q)
    big = out == np.inf
    out[big] = np.log(x[big]) - math.log(q)
    return out


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
    _require(prior, FiniteDistribution, "prior")
    _require(u_star, UtilityTable, "u_star")
    n = len(prior)
    if n > MAX_GRID_OUTCOMES:
        raise TooManyOutcomes(
            f"grid search supports at most {MAX_GRID_OUTCOMES} outcomes, got {n}"
        )
    alpha = _real(alpha, "temperature")
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
            # Near the float maximum, alpha·x·log(x/p) overflows to +inf only
            # where the log is positive: that term is -inf, never the maximum.
            with np.errstate(over="ignore"):
                t[1:] = xs * u[i] - alpha * xs * _log_ratio(xs, p_i)
        terms.append(t)

    # Max-plus convolution: f[s] = best objective using the first k
    # coordinates with total count s; choices[k][s] records coordinate k's
    # count at that optimum. Each step scores [s, c] = f[s-c] + terms[k][c]
    # into one reused buffer, a block of rows s at a time.
    f = terms[0]
    choices = []
    step = max(1, _BLOCK_ENTRIES // (N + 1))
    block = np.empty((min(step, N + 1), N + 1))
    rows = np.arange(len(block))
    for k in range(1, n):
        padded = np.concatenate([np.full(N, -np.inf), f])
        windows = sliding_window_view(padded, N + 1)[:, ::-1]  # [s, c] = f[s-c]
        f = np.empty(N + 1)
        best_c = np.empty(N + 1, dtype=np.intp)
        for lo in range(0, N + 1, step):
            hi = min(lo + step, N + 1)
            scores = np.add(windows[lo:hi], terms[k], out=block[: hi - lo])
            np.argmax(scores, axis=1, out=best_c[lo:hi])
            f[lo:hi] = scores[rows[: hi - lo], best_c[lo:hi]]
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
    _require(problem, TwoStageProblem, "problem")
    _require(action_policy, FiniteDistribution, "action_policy")
    lam = _real(lam, "lam")
    mu = _real(mu, "mu")
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
        total.append(_finite(w * (problem.action_utility.value(a) + inner), "the staged objective"))
    return _finite(
        math.fsum(total) - kl_divergence(action_policy, problem.prior_action) / lam,
        "the staged objective",
    )


def exhaustive_two_stage(
    problem: TwoStageProblem, lam: float, mu: float, resolution: float = 1e-3
) -> OracleResult:
    """Grid optimum of the staged objective, one simplex lattice per stage.

    The objective separates: each action's belief row is searched on its own
    simplex lattice at alpha = 1/|mu| (maximized for mu > 0; for mu < 0 the
    environment stage is adversarial, the problem is a max-min, and the row
    is minimized as the maximum of the negated utilities, negated back),
    then the action distribution is searched against U1(a) plus those row
    optima at alpha = 1/lam. This covers the whole product of the lattices,
    whose cardinality is the reported evaluation count; best_point is the
    action point followed by the row points in action order. Each stage may
    have at most MAX_GRID_OUTCOMES entries.
    """
    _require(problem, TwoStageProblem, "problem")
    n_actions, n_outcomes = len(problem.actions), len(problem.outcomes)
    if max(n_actions, n_outcomes) > MAX_GRID_OUTCOMES:
        raise TooLarge(
            f"staged grid search supports at most {MAX_GRID_OUTCOMES} actions and "
            f"{MAX_GRID_OUTCOMES} outcomes, got {n_actions}x{n_outcomes}"
        )
    lam = _real(lam, "lam")
    mu = _real(mu, "mu")
    # Each stage's lattice alpha is the reciprocal, which must be finite too.
    if not (math.isfinite(lam) and lam > 0.0 and math.isfinite(1.0 / lam)):
        raise DomainError(
            f"lam must be a positive finite real with a finite reciprocal, got {lam!r}"
        )
    if not (math.isfinite(mu) and mu != 0.0 and math.isfinite(1.0 / mu)):
        raise DomainError(
            f"mu must be a finite nonzero real with a finite reciprocal, got {mu!r}"
        )
    sign = 1.0 if mu > 0.0 else -1.0

    rows, gains = [], []
    for a in problem.actions:
        u = problem.outcome_utility[a]
        row = simplex_grid_search(
            problem.channel[a], UtilityTable(u.outcomes, [sign * v for v in u.values]),
            1.0 / abs(mu), resolution,
        )
        rows.append(row)
        gains.append(problem.action_utility.value(a) + sign * row.best_value)
    outer = simplex_grid_search(
        problem.prior_action, UtilityTable(problem.actions, gains), 1.0 / lam, resolution
    )
    return OracleResult(
        outer.best_value,
        (outer.best_point, *(row.best_point for row in rows)),
        outer.resolution,
        math.prod(res.evaluations for res in (outer, *rows)),
    )


def enumerate_minimax(problem: TwoStageProblem) -> tuple[str, float]:
    """Exhaustive max over actions of the min outcome utility on the
    channel's support (plus direct action utility); ground truth for the
    worst-case solver. Actions without prior mass are skipped, since no
    policy anchored to that prior can choose them. The first-listed action
    within ARGMAX_TIE_TOL of the best value wins ties. A best value past the
    float range raises DomainError."""
    _require(problem, TwoStageProblem, "problem")
    supported = np.flatnonzero(problem.prior_action.array > 0.0)
    rows = np.where(problem.channel_matrix > 0.0, problem.utility_matrix, np.inf)[supported]
    # A sum past the float range is inf, as it is for Python floats.
    with np.errstate(over="ignore"):
        worst = problem.action_utility.array[supported] + rows.min(axis=1)
    best = _finite(worst.max().item(), "the worst-case value")
    return problem.actions[supported[np.argmax(worst >= best - ARGMAX_TIE_TOL)]], best


def bellman_backup(tree: DecisionTree) -> TreeValue:
    """Hard-max dynamic program: V = max over supported children of U + V.

    The limit of value_recursion as every temperature goes to +inf; policies
    are uniform over children within ARGMAX_TIE_TOL of the maximum. The
    tree's arrays are breadth-first, so visiting the nodes last to first
    backs up every child before its parent. A value past the float range
    raises DomainError.
    """
    _require(tree, DecisionTree, "tree")
    first, counts = tree.first_child.tolist(), tree.n_children.tolist()
    prior, utility = tree.prior.tolist(), tree.utility.tolist()
    value = [0.0] * len(counts)
    policy = np.zeros(len(prior))
    for i in reversed(range(len(counts))):
        if not counts[i]:
            continue
        edges = range(first[i] - 1, first[i] - 1 + counts[i])  # edge e leads to node e + 1
        totals = {e: utility[e] + value[e + 1] for e in edges if prior[e] > 0.0}
        best = max(totals.values())
        if not math.isfinite(best):
            raise DomainError(f"value of {tree.names[i]!r} is not finite: {best!r}")
        winners = [e for e, t in totals.items() if abs(t - best) <= ARGMAX_TIE_TOL]
        policy[winners] = 1.0 / len(winners)
        value[i] = best
    starts = tree.first_child[tree.n_children > 0] - 1
    _normalise_rows(policy, starts)
    log_z = np.full(len(starts), np.nan)
    return _tree_value(tree, np.array(value), policy, log_z, _row_kls(policy, tree.prior, starts))


def path_enumeration(tree: DecisionTree, lam: float) -> float:
    """Root value by brute force over whole paths:
    (1/lam)·log Σ_paths P0(path)·exp(lam·U(path)).

    P0(path) is the product of edge priors, U(path) the sum of edge
    utilities; zero-prior edges contribute nothing and are skipped. Equals
    the root value of the soft recursion when every node runs at lam — the
    per-node log-normalizers telescope into this single path sum. A path
    utility or a result past the float range raises DomainError.
    """
    _require(tree, DecisionTree, "tree")
    lam = _real(lam, "lam")
    if not math.isfinite(lam) or lam == 0.0:
        raise DomainError(f"lam must be a finite nonzero real, got {lam!r}")
    n_paths = tree.n_leaves()
    if n_paths > MAX_PATHS:
        raise TooManyPaths(
            f"tree has {n_paths} root-to-leaf paths, limit is {MAX_PATHS}"
        )

    prior, utility = tree.prior.tolist(), tree.utility.tolist()
    # The node that edge e leaves; edge e leads to node e + 1.
    parent = np.repeat(np.arange(len(tree.names)), tree.n_children).tolist()
    pre = tree.pre_order()
    log_ps: list[float] = []
    utils: list[float] = []
    # Each leaf in pre-order, its path walked up to the root.
    for leaf in pre[tree.n_children[pre] == 0].tolist():
        log_p_terms, u_terms = [], []
        e = leaf - 1
        while e >= 0 and prior[e] > 0.0:
            log_p_terms.append(math.log(prior[e]))
            u_terms.append(utility[e])
            e = parent[e] - 1
        if e < 0:
            log_ps.append(math.fsum(log_p_terms))
            try:
                utils.append(math.fsum(u_terms))
            except OverflowError:
                raise DomainError(
                    f"utility of the path to {tree.names[leaf]!r} is not finite"
                ) from None
    # A score past the float range leaves the result past it too, unless it
    # is -inf beside finite scores: that path then weighs 0, its limit.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = np.asarray(log_ps) + lam * np.asarray(utils)
        return _finite(_logsumexp(scores) / lam, "the path sum")


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
