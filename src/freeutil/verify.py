"""Certificate suites: analytic solvers checked against the brute-force oracles.

Each suite draws reproducible random instances (seeded from the
FREEUTIL_SEED environment variable, default "0"), runs an analytic solver
and an independent oracle on them, and condenses the results into
certificates that record the worst case observed. A certificate passes when
its gap is within tolerance (or, for structural checks, when the property
held on every instance). Suites use independent random streams, so running
one alone or inside "all" gives identical instances.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ControlProblem,
    DomainError,
    FiniteDistribution,
    Temperature,
    TemperatureSpec,
    TreeNode,
    DecisionTree,
    TwoStageProblem,
    UtilityTable,
    expectation,
)
from .oracle import bellman_backup, enumerate_minimax, path_enumeration, simplex_grid_search
from .sequential import (
    TreeValue,
    certainty_equivalent,
    minimax_solve,
    risk_sensitive_argmax,
    solve_regime,
    taylor_ce_approx,
    value_recursion,
)
from .variational import bounded_control, control_temperature, free_utility, gibbs_measure

# No check uses these; they stay bound for the benchmark's traced run, which wraps them here.
from .model import kl_divergence  # noqa: F401
from .oracle import exhaustive_two_stage, two_stage_objective  # noqa: F401
from .sequential import outer_policy  # noqa: F401

SEED_ENV_VAR = "FREEUTIL_SEED"


@dataclass(frozen=True)
class Certificate:
    """One verification record: what was compared, how far apart, verdict.

    Every certificate passes exactly when gap <= tolerance. Numeric checks
    report the worst analytic/oracle pair; counting checks report instances
    required vs. instances satisfied, with the shortfall as the gap.
    """

    name: str
    analytic: float
    oracle: float
    gap: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.gap <= self.tolerance


def seed_text() -> str:
    """The seed exactly as the environment provides it (reports record this
    string verbatim)."""
    return os.environ.get(SEED_ENV_VAR, "0")


def resolve_seed(text: str) -> int:
    """Map the seed string to a non-negative integer: direct for decimal
    strings, hashed otherwise."""
    try:
        v = int(text.strip())
        if v >= 0:
            return v
    except ValueError:
        pass
    import hashlib  # here, so that importing the package maps no OpenSSL

    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _rng(seed: int, ordinal: int) -> np.random.Generator:
    return np.random.default_rng([seed, ordinal])


def _labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def _random_utilities(rng, outcomes, scale: float = 5.0) -> UtilityTable:
    return UtilityTable(outcomes, rng.uniform(-scale, scale, len(outcomes)))


def _random_dist(rng, outcomes, n_zero: int = 0) -> FiniteDistribution:
    n = len(outcomes)
    w = rng.uniform(0.1, 1.0, n)
    if n_zero:
        idx = rng.choice(n, size=n_zero, replace=False)
        w[idx] = 0.0
    return FiniteDistribution(outcomes, w / w.sum())


def _random_two_stage(
    rng, n_actions: int, n_outcomes: int, zero_action_utility: bool
) -> TwoStageProblem:
    actions = _labels("a", n_actions)
    outcomes = _labels("o", n_outcomes)
    prior = _random_dist(rng, actions)
    channel = {a: _random_dist(rng, outcomes) for a in actions}
    if zero_action_utility:
        action_utility = UtilityTable(actions, [0.0] * n_actions)
    else:
        action_utility = _random_utilities(rng, actions, 2.0)
    outcome_utility = {a: _random_utilities(rng, outcomes) for a in actions}
    return TwoStageProblem(actions, outcomes, prior, channel, action_utility, outcome_utility)


def _random_tree(rng, with_zero_edge: bool = False) -> DecisionTree:
    depth = int(rng.integers(2, 5))

    counter = [0]

    def build(remaining: int) -> TreeNode:
        counter[0] += 1
        name = f"n{counter[0]}"
        if remaining == 0 or (remaining < depth and rng.uniform() < 0.2):
            return TreeNode(name=name)
        k = int(rng.integers(2, 4))
        children = tuple(build(remaining - 1) for _ in range(k))
        names = [c.name for c in children]
        w = rng.uniform(0.1, 1.0, k)
        return TreeNode(
            name=name,
            children=children,
            child_prior=FiniteDistribution(names, w / w.sum()),
            child_utility=UtilityTable(names, rng.uniform(-3.0, 3.0, k)),
        )

    root = build(depth)
    if with_zero_edge and not root.is_leaf and len(root.children) >= 3:
        names = [c.name for c in root.children]
        w = [0.0] + list(rng.uniform(0.1, 1.0, len(names) - 1))
        root = TreeNode(
            name=root.name,
            children=root.children,
            child_prior=FiniteDistribution(names, np.asarray(w) / sum(w)),
            child_utility=root.child_utility,
        )
    return DecisionTree(root)


def _worst_cert(name: str, rows, tolerance: float, note: str) -> Certificate:
    """A numeric certificate from the worst of its (gap, analytic, oracle)
    rows, as np.argmax picks it: the largest gap, the first of equal gaps,
    and the first NaN gap ahead of everything else."""
    gap, analytic, oracle = rows[int(np.argmax([row[0] for row in rows]))]
    return Certificate(name, analytic, oracle, gap, tolerance, note)


def _count_cert(name: str, required: int, satisfied: int, note: str) -> Certificate:
    """A counting certificate: analytic = instances required, oracle =
    instances satisfied, gap = shortfall. Passes only at zero shortfall."""
    return Certificate(name, float(required), float(satisfied), float(required - satisfied), 0.0,
                       f"{satisfied}/{required} {note}")


def _worst_case_margin(problem: TwoStageProblem) -> float:
    """Lead of the best action's worst supported outcome utility over the
    second best; instances with a clear lead have a unique worst-case
    optimum."""
    worsts = np.where(problem.channel_matrix > 0.0, problem.utility_matrix, np.inf).min(axis=1)
    second, first = np.sort(worsts)[-2:].tolist()
    return first - second


ALPHAS = (0.1, 1.0, 10.0)


def _per_alpha(rng, suite: str, row, tolerance: float, note: str) -> list[Certificate]:
    """One certificate per alpha in ALPHAS, the worst row(u, alpha) =
    (gap, analytic, oracle) over 50 random tables u of 2-4 outcomes, each
    drawn as its size, then its utilities."""
    rows = {a: [] for a in ALPHAS}
    for _ in range(50):
        u = _random_utilities(rng, _labels("o", int(rng.integers(2, 5))))
        for alpha in ALPHAS:
            rows[alpha].append(row(u, alpha))
    return [_worst_cert(f"{suite}/alpha-{a:g}", rows[a], tolerance, note) for a in ALPHAS]


def suite_gibbs_optimality(rng) -> list[Certificate]:
    """Tilted-measure optimality: no lattice point beats the closed form."""

    def row(u, alpha):
        analytic = free_utility(gibbs_measure(u, alpha), u, alpha)
        res = simplex_grid_search(FiniteDistribution.uniform(u.outcomes), u, alpha, 1e-3)
        # The lattice objective is measured against the uniform prior,
        # which differs from the entropy form by exactly alpha*log(n).
        adjusted = res.best_value + alpha * math.log(len(u.outcomes))
        return adjusted - analytic, analytic, adjusted

    return _per_alpha(rng, "gibbs-optimality", row, 1e-5,
                      "worst of 50 random tables, lattice step 0.001")


def suite_log_partition(rng) -> list[Certificate]:
    """Optimal free utility equals alpha*log of the plain exponential sum."""

    def row(u, alpha):
        analytic = free_utility(gibbs_measure(u, alpha), u, alpha)
        reference = alpha * math.log(math.fsum(math.exp(v / alpha) for v in u.values))
        return abs(analytic - reference), analytic, reference

    return _per_alpha(rng, "log-partition", row, 1e-9,
                      "worst of 50 random tables, direct summation reference")


def suite_control_optimality(rng) -> list[Certificate]:
    """KL-regularized control passes the node bracket and preserves support."""
    rows = []
    preserved = 0
    n_zero_cases = 0
    for i in range(50):
        n = int(rng.integers(2, 5))
        outcomes = _labels("o", n)
        n_zero = 1 if (i % 2 == 1 and n >= 3) else 0
        prior = _random_dist(rng, outcomes, n_zero=n_zero)
        u = _random_utilities(rng, outcomes)
        alpha = float(rng.choice([0.1, 0.5, 1.0, 2.0, 10.0]))
        objective, *support = verify_control(ControlProblem(prior, u), alpha)
        rows.append((objective.gap, objective.analytic, objective.oracle))
        if support:
            n_zero_cases += 1
            preserved += support[0].passed
    return [
        _worst_cert(
            "control-optimality/objective-gap",
            rows,
            1e-5,
            "worst of 50 random (prior, utility, temperature) triples",
        ),
        _count_cert(
            "control-optimality/support-preservation",
            n_zero_cases,
            preserved,
            "exact zero-propagation on priors with a zero coordinate",
        ),
    ]


def suite_limit_recovery(rng) -> list[Certificate]:
    """The four declared limits reproduce their exact closed forms."""
    certs = []

    argmax_hits = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        outcomes = _labels("o", n)
        u = UtilityTable(outcomes, rng.integers(-3, 4, n).astype(float))
        top = max(u.values)
        winners = [o for o, v in zip(outcomes, u.values) if v == top]
        expected = FiniteDistribution(
            outcomes, [1.0 / len(winners) if o in winners else 0.0 for o in outcomes]
        )
        if gibbs_measure(u, Temperature.zero()).probs == expected.probs:
            argmax_hits += 1
    certs.append(
        _count_cert(
            "limit-recovery/zero-temperature-argmax",
            50,
            argmax_hits,
            "integer tables with ties, exact equality required",
        )
    )

    prior_hits = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        outcomes = _labels("o", n)
        prior = _random_dist(rng, outcomes)
        u = _random_utilities(rng, outcomes)
        if bounded_control(prior, u, Temperature.pos_inf()).probs == prior.probs:
            prior_hits += 1
    certs.append(
        _count_cert(
            "limit-recovery/infinite-temperature-prior",
            50,
            prior_hits,
            "random instances returned the prior bit-for-bit",
        )
    )

    eu_agree = 0
    n_eu = 200
    eu_temps = TemperatureSpec(Temperature.pos_inf(), Temperature.zero())
    for i in range(n_eu):
        while True:
            problem = _random_two_stage(
                rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), i % 2 == 0
            )
            scores = [
                problem.action_utility.value(a)
                + expectation(problem.channel[a], problem.outcome_utility[a])
                for a in problem.actions
            ]
            ranked = sorted(scores, reverse=True)
            if ranked[0] - ranked[1] > 1e-6:
                break
        brute = problem.actions[scores.index(max(scores))]
        sol = solve_regime(problem, eu_temps)
        if sol.chosen_action() == brute and sol.action_policy.prob(brute) == 1.0:
            eu_agree += 1
    certs.append(
        _count_cert(
            "limit-recovery/expected-utility-argmax",
            n_eu,
            eu_agree,
            "two-stage instances with unique maximizers",
        )
    )

    mm_agree = 0
    n_mm = 1000
    for _ in range(n_mm):
        while True:
            problem = _random_two_stage(rng, 5, 5, True)
            if _worst_case_margin(problem) > 1e-6:
                break
        if minimax_solve(problem)[0] == enumerate_minimax(problem)[0]:
            mm_agree += 1
    certs.append(
        _count_cert(
            "limit-recovery/minimax-agreement",
            n_mm,
            mm_agree,
            "random 5x5 instances with unique worst-case optima",
        )
    )
    return certs


def suite_two_stage_optimality(rng) -> list[Certificate]:
    """The nested solution passes the node bracket at both stages, and no
    node's lattice maximum (step 1e-3) rises above the bracket's top."""
    combos = [(l, m) for l in (0.5, 1.0, 2.0) for m in (0.5, 1.0, 2.0)]
    rows, excess = [], []
    for i in range(20):
        lam, mu = combos[i % len(combos)]
        tree, temps = _random_two_stage(rng, 2, 2, i % 3 == 0)._tree, TemperatureSpec(lam, mu)
        cert, _, (internal, t, g, f, width, _) = _objective_gap("two-stage-optimality", tree, temps)
        rows.append((cert.gap, cert.analytic, cert.oracle))
        for k, node in enumerate(internal):
            lo, hi = tree.first_child[node], tree.first_child[node] + tree.n_children[node]
            prior = FiniteDistribution._trusted(tree.names[lo:hi], tree.prior[lo - 1 : hi - 1])
            gains = UtilityTable(tree.names[lo:hi], g[lo - 1 : hi - 1])
            lattice = simplex_grid_search(prior, gains, 1.0 / abs(t[k]), 1e-3).best_value
            top = (f[k] + width[k]).item()
            excess.append((lattice - top, top, lattice))
    note = "worst of 20 random 2x2 instances, lambda/mu in {0.5,1,2}"
    return [
        _worst_cert("two-stage-optimality/objective-gap", rows, 1e-5, note),
        _worst_cert("two-stage-optimality/lattice-bracket", excess, 1e-5,
                    f"{note}, every node, lattice step 0.001"),
    ]


def suite_value_recursion(rng) -> list[Certificate]:
    """Tree backup telescopes into the path sum and converges to hard max."""
    paths, limits = [], []
    for i in range(50):
        tree = _random_tree(rng, with_zero_edge=(i % 5 == 0))
        for lam in (0.5, 1.0, 5.0):
            analytic = value_recursion(tree, TemperatureSpec(lam, 1.0)).root_value
            reference = path_enumeration(tree, lam)
            paths.append((abs(analytic - reference), analytic, reference))
        soft = value_recursion(tree, TemperatureSpec(1e4, 1.0)).root_value
        hard = bellman_backup(tree).root_value
        limits.append((abs(soft - hard), soft, hard))
    return [
        _worst_cert(
            "value-recursion/path-identity",
            paths,
            1e-9,
            "worst over 50 random trees at inverse temperature 0.5, 1, 5",
        ),
        _worst_cert(
            "value-recursion/hard-max-limit",
            limits,
            1e-2,
            "soft backup at 1e4 against the exact hard-max backup",
        ),
    ]


CE_LADDER = (
    Temperature.neg_inf(),
    Temperature.finite(-10.0),
    Temperature.finite(-1.0),
    Temperature.zero(),
    Temperature.finite(1.0),
    Temperature.finite(10.0),
    Temperature.pos_inf(),
)


def suite_ce_monotonicity(rng) -> list[Certificate]:
    """Certainty equivalents rise with the risk parameter and stay in range."""
    mono, bounds = [0.0], [0.0]  # violations g, each the row (g, 0.0, g); 0.0 for none
    for i in range(200):
        n = int(rng.integers(2, 6))
        outcomes = _labels("o", n)
        p = _random_dist(rng, outcomes, n_zero=1 if (i % 7 == 0 and n >= 3) else 0)
        u = _random_utilities(rng, outcomes)
        ces = [certainty_equivalent(p, u, m) for m in CE_LADDER]
        mono += [lo - hi for lo, hi in zip(ces, ces[1:])]
        supported = [v for v, pr in zip(u.aligned_to(p.outcomes), p.probs) if pr > 0.0]
        u_min, u_max = min(supported), max(supported)
        bounds += [c - u_max for c in ces] + [u_min - c for c in ces]
    return [
        _worst_cert("ce-monotonicity/non-decreasing", [(g, 0.0, g) for g in mono], 1e-12,
                    "worst ordering violation over 200 random gambles across the full risk ladder"),
        _worst_cert("ce-monotonicity/bounds", [(g, 0.0, g) for g in bounds], 1e-12,
                    "worst excursion outside [min, max] of supported utilities"),
    ]


def suite_cumulant_expansion(rng) -> list[Certificate]:
    """Second-order expansion residual shrinks quadratically in mu."""
    excess = []
    for _ in range(100):
        n = int(rng.integers(2, 5))
        outcomes = _labels("o", n)
        p = _random_dist(rng, outcomes)
        u = _random_utilities(rng, outcomes)

        def err(mu: float) -> float:
            return abs(
                certainty_equivalent(p, u, mu) - taylor_ce_approx(p, u, mu)
            )

        # The fitted curvature, floored; a NaN fit stays NaN.
        c_eff = np.max([err(0.04) / 0.04**2, err(-0.04) / 0.04**2, 1e-10]).item()
        excess += [err(mu) - 4.0 * c_eff * mu * mu for mu in (0.01, -0.01, 0.02, -0.02)]
    return [
        _worst_cert("cumulant-expansion/ratio-test", [(g, 0.0, g) for g in excess], 0.0,
                    "residual/mu^2 fitted at |mu|=0.04, factor-4 bound at smaller mu, "
                    "curvature floor 1e-10")
    ]


MINIMAX_MU = -3000.0


def suite_minimax_convergence(rng) -> list[Certificate]:
    """The risk-averse choice at a finite mu, MINIMAX_MU, is the worst-case
    action."""
    n_inst = 100
    found = 0
    for _ in range(n_inst):
        while True:
            problem = _random_two_stage(
                rng, int(rng.integers(3, 6)), int(rng.integers(3, 6)), True
            )
            if _worst_case_margin(problem) > 0.05:
                break
        target, _ = enumerate_minimax(problem)
        found += risk_sensitive_argmax(problem, MINIMAX_MU)[0] == target
    return [
        _count_cert(
            "minimax-convergence/threshold-exists",
            n_inst,
            found,
            f"instances locked onto the worst-case action by mu = {MINIMAX_MU:g}",
        )
    ]


SUITES: dict[str, tuple[int, callable]] = {
    "gibbs-optimality": (0, suite_gibbs_optimality),
    "log-partition": (1, suite_log_partition),
    "control-optimality": (2, suite_control_optimality),
    "limit-recovery": (3, suite_limit_recovery),
    "two-stage-optimality": (4, suite_two_stage_optimality),
    "value-recursion": (5, suite_value_recursion),
    "ce-monotonicity": (6, suite_ce_monotonicity),
    "cumulant-expansion": (7, suite_cumulant_expansion),
    "minimax-convergence": (8, suite_minimax_convergence),
}


def suite_names() -> list[str]:
    return list(SUITES) + ["all"]


def run_suite(name: str, seed: int) -> list[Certificate]:
    """Run one named suite (or every suite for "all") at the given seed."""
    if name == "all":
        certs = []
        for suite in SUITES:
            certs.extend(run_suite(suite, seed))
        return certs
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {suite_names()}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    ordinal, fn = SUITES[name]
    return fn(_rng(seed, ordinal))


def apply_perturbation(certs: list[Certificate], eps: float) -> list[Certificate]:
    """Bias every certificate by |eps| toward failure (self-test): eps is
    added to its analytic value and |eps| to its gap.

    A certificate then fails once |eps| exceeds its slack, tolerance − gap;
    a counting certificate (tolerance 0, gap 0 when it holds) fails at any
    nonzero eps. Injecting the bias post-hoc exercises exactly the
    reporting and exit-code path that a real regression would take.
    """
    if eps == 0.0:
        return certs
    return [replace(c, analytic=c.analytic + eps, gap=c.gap + abs(eps)) for c in certs]


def _node_bracket(tree: DecisionTree, tv: TreeValue, temps: TemperatureSpec):
    """The optimality bracket of every internal node of a solved tree, in
    one array pass over its edges: the internal nodes (breadth-first), per
    internal node its inverse temperature t, f(x), the bracket's width and
    the gap, and per edge the gains g.

    At a node, τ = |t|, s = sign(t), g = s·(U + V(child)), and s·V is the
    maximum of f(y) = Σ y·g − KL(y‖p)/τ, (1/τ)-strongly concave (Pinsker).
    With h = g − log(x/p)/τ where the solver's row x is normal, f(x) =
    Σ x·h; the maximum over those entries is at most min(τ/8·(max h −
    min h)², |max h − f(x)|) above it (strong concavity, Frank-Wolfe gap);
    entries of p that x left at 0 or subnormal (log off by up to ln 2) add
    at most Σ p·exp(τ(g − f(x)))/τ. Both hold for x or p rescaled by ulps.
    The gap is max(width, |s·V − f(x)|), capped at the largest float (a row
    with no mass, say), so that a failing report can be written; it is one
    plus the mass for a row with mass where p has none, and NaN for NaN.
    The rows are only logged; nothing here repeats the solver's tilt.
    """
    internal = np.flatnonzero(tree.n_children)
    counts, starts = tree.n_children[internal], tree.first_child[internal] - 1
    t = np.where(tree.is_mu[internal], temps.mu.finite_value, temps.lam.finite_value)
    tau, p, x = np.repeat(np.abs(t), counts), tree.prior, tv.flat_policy
    g = np.repeat(np.sign(t), counts) * (tree.utility + tv.flat_values[1:])
    zero, nil = x < np.finfo(float).tiny, p == 0.0
    on = ~(zero | nil)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.log(x / p)
        big = on & np.isinf(ratio)  # x/p past the float range: a subnormal prior entry
        ratio[big] = np.log(x[big]) - np.log(p[big])
        h = np.where(on, g - ratio / tau, 0.0)
        f = np.add.reduceat(x * h, starts)
        h_max = np.maximum.reduceat(np.where(on, h, -np.inf), starts)
        h_min = np.minimum.reduceat(np.where(on, h, np.inf), starts)
        width = np.minimum(np.abs(t) / 8 * (h_max - h_min) ** 2, np.abs(h_max - f))
        under = np.where(zero & ~nil, p * np.exp(tau * (g - np.repeat(f, counts))) / tau, 0.0)
        width += np.add.reduceat(under, starts)
        gap = np.maximum(width, np.abs(np.sign(t) * tv.flat_values[internal] - f))
    off = np.add.reduceat(np.where(nil, x, 0.0), starts)  # mass off the prior's support
    gap = np.where(off != 0.0, 1.0 + off, np.minimum(gap, np.finfo(float).max))
    return internal, t, g, f, width, gap


def _objective_gap(name: str, tree: DecisionTree, temps: TemperatureSpec):
    """One value_recursion on a tree at finite temperatures, certified by
    _node_bracket at every internal node (leaves are exact, so by induction
    the whole backup); with the TreeValue it checked and _node_bracket's
    result. analytic and oracle are the root's V and s·f(x); gap is the
    worst node's, a NaN gap the worst.

    The tolerance is 1e-5, or at scale 8·2⁻⁵²·G, G the largest supported
    |g|. With u = 2⁻⁵³, near the optimum h ≈ s·V is in [−G, G] and
    log(x/p)/τ = g − h in [−2G, 2G]: the ratio's quotient, log and division
    round by 6u·G, h by u·G, f(x) by 2u·G (x sums to 1) and the gap by 2u·G,
    11u·G in all; the ratio adds u/τ, inside the floor for τ above 1e-11.
    """
    tv = value_recursion(tree, temps)
    bracket = internal, t, g, f, _, gap = _node_bracket(tree, tv, temps)
    worst = int(np.argmax(gap))  # the first NaN, if any
    note = f"worst node {tree.paths()[internal[worst]]!r} of {len(internal)}"
    tolerance = max(1e-5, 8 * 2.0**-52 * np.abs(g[tree.prior > 0.0]).max().item())
    row = (gap[worst].item(), tv.root_value, (np.sign(t[0]) * f[0]).item())
    return _worst_cert(name, [row], tolerance, note), tv, bracket


def verify_control(problem: ControlProblem, alpha) -> list[Certificate]:
    """Certificates for one control instance: the node bracket of its
    depth-1 tree at mu = 1/alpha, of any number of outcomes, and, when the
    prior has zeros, whether the policy kept them exactly zero."""
    temps = TemperatureSpec(1, control_temperature(alpha).reciprocal())
    cert, tv, _ = _objective_gap("file/control/objective-gap", problem._tree, temps)
    off_support = tv.flat_policy[problem.prior.array == 0.0].tolist()
    if not off_support:
        return [cert]
    return [cert, _count_cert("file/control/support-preservation", len(off_support),
                              off_support.count(0.0),
                              "zero prior coordinates stayed exactly zero in the policy")]


def verify_two_stage(problem, lam: Temperature, mu: Temperature) -> list[Certificate]:
    """Certificates for one two-stage instance: always the staged solver at
    (+inf, -inf) against the enumeration oracle, and at finite temperatures
    the node bracket of _objective_gap on the problem's depth-2 tree."""
    own_action, own_value = minimax_solve(problem)
    ref_action, ref_value = enumerate_minimax(problem)
    # An action mismatch is a full failure even when the values tie, so it
    # contributes a unit of gap on its own.
    gap = abs(own_value - ref_value) + (0.0 if own_action == ref_action else 1.0)
    certs = [_worst_cert("file/two-stage/minimax-agreement", [(gap, own_value, ref_value)], 1e-12,
                         f"worst-case action {own_action!r} vs enumeration {ref_action!r}")]
    if lam.is_finite and mu.is_finite:
        temps = TemperatureSpec(lam, mu)
        certs.append(_objective_gap("file/two-stage/objective-gap", problem._tree, temps)[0])
    return certs


def verify_tree(tree, lam: Temperature, mu: Temperature) -> list[Certificate]:
    """Certificates for one tree instance: the path-sum identity when every
    internal node is lambda-tagged, else the node bracket of _objective_gap
    at every node, each at finite temperatures; plus hard-max consistency."""
    certs = []
    if tree.is_mu[tree.n_children > 0].any():
        if lam.is_finite and mu.is_finite:
            temps = TemperatureSpec(lam, mu)
            certs.append(_objective_gap("file/tree/objective-gap", tree, temps)[0])
    elif lam.is_finite:
        analytic = value_recursion(tree, TemperatureSpec(lam, mu)).root_value
        reference = path_enumeration(tree, lam.value)
        certs.append(_worst_cert(
            "file/tree/path-identity", [(abs(analytic - reference), analytic, reference)], 1e-9,
            f"brute force over {tree.n_leaves()} root-to-leaf paths"))
    hard_temps = TemperatureSpec(Temperature.pos_inf(), Temperature.pos_inf())
    soft = value_recursion(tree, hard_temps).root_value
    hard = bellman_backup(tree).root_value
    certs.append(_worst_cert(
        "file/tree/hard-max-consistency", [(abs(soft - hard), soft, hard)], 1e-12,
        "infinite-temperature backup against the direct hard-max program"))
    return certs
