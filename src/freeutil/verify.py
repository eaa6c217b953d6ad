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
    FiniteDistribution,
    Temperature,
    TemperatureSpec,
    TooLarge,
    TreeNode,
    DecisionTree,
    TwoStageProblem,
    UtilityTable,
    expectation,
    kl_divergence,
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


def _worst(worst, gap: float, analytic: float, oracle: float):
    if worst is None or gap > worst[0]:
        return (gap, analytic, oracle)
    return worst


def _worst_cert(name: str, worst, tolerance: float, note: str) -> Certificate:
    """A numeric certificate from the (gap, analytic, oracle) triple of the
    worst instance."""
    gap, analytic, oracle = worst
    return Certificate(name, analytic, oracle, gap, tolerance, note)


def _count_cert(name: str, required: int, satisfied: int, note: str) -> Certificate:
    """A counting certificate: analytic = instances required, oracle =
    instances satisfied, gap = shortfall. Passes only at zero shortfall."""
    return Certificate(
        name=name,
        analytic=float(required),
        oracle=float(satisfied),
        gap=float(required - satisfied),
        tolerance=0.0,
        note=f"{satisfied}/{required} {note}",
    )


def _worst_case_margin(problem: TwoStageProblem) -> float:
    """Lead of the best action's worst supported outcome utility over the
    second best; instances with a clear lead have a unique worst-case
    optimum."""
    worsts = np.where(problem.channel_matrix > 0.0, problem.utility_matrix, np.inf).min(axis=1)
    second, first = np.sort(worsts)[-2:].tolist()
    return first - second


def suite_gibbs_optimality(rng) -> list[Certificate]:
    """Tilted-measure optimality: no lattice point beats the closed form."""
    alphas = (0.1, 1.0, 10.0)
    worst = {a: None for a in alphas}
    for _ in range(50):
        n = int(rng.integers(2, 5))
        outcomes = _labels("o", n)
        u = _random_utilities(rng, outcomes)
        prior = FiniteDistribution.uniform(outcomes)
        for alpha in alphas:
            analytic = free_utility(gibbs_measure(u, alpha), u, alpha)
            res = simplex_grid_search(prior, u, alpha, 1e-3)
            # The lattice objective is measured against the uniform prior,
            # which differs from the entropy form by exactly alpha*log(n).
            adjusted = res.best_value + alpha * math.log(n)
            worst[alpha] = _worst(worst[alpha], adjusted - analytic, analytic, adjusted)
    return [
        _worst_cert(
            f"gibbs-optimality/alpha-{alpha:g}",
            worst[alpha],
            1e-5,
            "worst of 50 random tables, lattice step 0.001",
        )
        for alpha in alphas
    ]


def suite_log_partition(rng) -> list[Certificate]:
    """Optimal free utility equals alpha*log of the plain exponential sum."""
    alphas = (0.1, 1.0, 10.0)
    worst = {a: None for a in alphas}
    for _ in range(50):
        n = int(rng.integers(2, 5))
        outcomes = _labels("o", n)
        u = _random_utilities(rng, outcomes)
        for alpha in alphas:
            analytic = free_utility(gibbs_measure(u, alpha), u, alpha)
            reference = alpha * math.log(
                math.fsum(math.exp(v / alpha) for v in u.values)
            )
            gap = abs(analytic - reference)
            worst[alpha] = _worst(worst[alpha], gap, analytic, reference)
    return [
        _worst_cert(
            f"log-partition/alpha-{alpha:g}",
            worst[alpha],
            1e-9,
            "worst of 50 random tables, direct summation reference",
        )
        for alpha in alphas
    ]


def suite_control_optimality(rng) -> list[Certificate]:
    """KL-regularized control beats every lattice point and preserves support."""
    worst = None
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
        worst = _worst(worst, objective.gap, objective.analytic, objective.oracle)
        if support:
            n_zero_cases += 1
            preserved += support[0].passed
    return [
        _worst_cert(
            "control-optimality/objective-gap",
            worst,
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
    """The nested analytic solution passes the lattice check at both stages."""
    combos = [(l, m) for l in (0.5, 1.0, 2.0) for m in (0.5, 1.0, 2.0)]
    worst = None
    for i in range(20):
        lam, mu = combos[i % len(combos)]
        problem = _random_two_stage(rng, 2, 2, i % 3 == 0)
        cert, _ = _objective_gap("two-stage-optimality", problem._tree, TemperatureSpec(lam, mu))
        worst = _worst(worst, cert.gap, cert.analytic, cert.oracle)
    return [
        _worst_cert(
            "two-stage-optimality/objective-gap",
            worst,
            1e-5,
            "worst of 20 random 2x2 instances, lambda/mu in {0.5,1,2}",
        )
    ]


def suite_value_recursion(rng) -> list[Certificate]:
    """Tree backup telescopes into the path sum and converges to hard max."""
    worst_path = None
    worst_limit = None
    for i in range(50):
        tree = _random_tree(rng, with_zero_edge=(i % 5 == 0))
        for lam in (0.5, 1.0, 5.0):
            analytic = value_recursion(tree, TemperatureSpec(lam, 1.0)).root_value
            reference = path_enumeration(tree, lam)
            worst_path = _worst(worst_path, abs(analytic - reference), analytic, reference)
        soft = value_recursion(tree, TemperatureSpec(1e4, 1.0)).root_value
        hard = bellman_backup(tree).root_value
        worst_limit = _worst(worst_limit, abs(soft - hard), soft, hard)
    return [
        _worst_cert(
            "value-recursion/path-identity",
            worst_path,
            1e-9,
            "worst over 50 random trees at inverse temperature 0.5, 1, 5",
        ),
        _worst_cert(
            "value-recursion/hard-max-limit",
            worst_limit,
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
    worst_mono = 0.0
    worst_bounds = 0.0
    for i in range(200):
        n = int(rng.integers(2, 6))
        outcomes = _labels("o", n)
        p = _random_dist(rng, outcomes, n_zero=1 if (i % 7 == 0 and n >= 3) else 0)
        u = _random_utilities(rng, outcomes)
        ces = [certainty_equivalent(p, u, m) for m in CE_LADDER]
        for lo, hi in zip(ces, ces[1:]):
            worst_mono = max(worst_mono, lo - hi)
        supported = [v for v, pr in zip(u.aligned_to(p.outcomes), p.probs) if pr > 0.0]
        u_min, u_max = min(supported), max(supported)
        worst_bounds = max(worst_bounds, max(ces) - u_max, u_min - min(ces))
    return [
        Certificate(
            name="ce-monotonicity/non-decreasing",
            analytic=0.0,
            oracle=worst_mono,
            gap=worst_mono,
            tolerance=1e-12,
            note="worst ordering violation over 200 random gambles "
            "across the full risk ladder",
        ),
        Certificate(
            name="ce-monotonicity/bounds",
            analytic=0.0,
            oracle=worst_bounds,
            gap=worst_bounds,
            tolerance=1e-12,
            note="worst excursion outside [min, max] of supported utilities",
        ),
    ]


def suite_cumulant_expansion(rng) -> list[Certificate]:
    """Second-order expansion residual shrinks quadratically in mu."""
    worst_excess = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 5))
        outcomes = _labels("o", n)
        p = _random_dist(rng, outcomes)
        u = _random_utilities(rng, outcomes)

        def err(mu: float) -> float:
            return abs(
                certainty_equivalent(p, u, mu) - taylor_ce_approx(p, u, mu)
            )

        c_fit = max(err(0.04), err(-0.04)) / 0.04**2
        c_eff = max(c_fit, 1e-10)
        for mu in (0.01, -0.01, 0.02, -0.02):
            worst_excess = max(worst_excess, err(mu) - 4.0 * c_eff * mu * mu)
    return [
        Certificate(
            name="cumulant-expansion/ratio-test",
            analytic=0.0,
            oracle=worst_excess,
            gap=worst_excess,
            tolerance=0.0,
            note="residual/mu^2 fitted at |mu|=0.04, factor-4 bound at smaller mu, "
            "curvature floor 1e-10",
        )
    ]


MU_LADDER = (-0.5, -1.0, -2.0, -5.0, -10.0, -20.0, -50.0, -100.0, -300.0, -1000.0, -3000.0)


def suite_minimax_convergence(rng) -> list[Certificate]:
    """Risk-averse choices lock onto the worst-case action at finite mu."""
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
        picks = [risk_sensitive_argmax(problem, mu)[0] for mu in MU_LADDER]
        last_bad = -1
        for idx, a in enumerate(picks):
            if a != target:
                last_bad = idx
        if last_bad < len(MU_LADDER) - 1:
            found += 1
    return [
        _count_cert(
            "minimax-convergence/threshold-exists",
            n_inst,
            found,
            f"instances locked onto the worst-case action by mu = {MU_LADDER[-1]:g}",
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
        raise KeyError(f"unknown suite {name!r}; choose from {suite_names()}")
    ordinal, fn = SUITES[name]
    return fn(_rng(seed, ordinal))


def apply_perturbation(certs: list[Certificate], eps: float) -> list[Certificate]:
    """Bias every numeric certificate by |eps| toward failure (self-test).

    A corrupted build must surface as nonzero gaps; injecting the bias
    post-hoc exercises exactly the reporting and exit-code path that a real
    regression would take.
    """
    if eps == 0.0:
        return certs
    return [replace(c, analytic=c.analytic + eps, gap=c.gap + abs(eps)) for c in certs]


# Internal nodes one file may certify: the lattice search takes about 3, 5
# and 7 ms at 2, 3 and 4 children (2-CPU x86-64), so a file stays within 2 s.
MAX_CERTIFIED_NODES = 256


def _objective_gap(
    name: str, tree: DecisionTree, temps: TemperatureSpec
) -> tuple[Certificate, TreeValue]:
    """One value_recursion on a tree at finite temperatures, certified node
    by node against the lattice, and the TreeValue it checked.

    At a node of inverse temperature t, s = sign(t), the objective is
    E_x[g] − KL(x‖prior)/|t| over the gains g = s·(U + V(child)) (t < 0 is
    a soft minimum). Its gap is max(lattice − scored, |s·V − scored|):
    scored is the solver's policy row on the objective, lattice the
    objective's maximum by simplex_grid_search at step 1e-3. Leaves are
    exact, so a pass at every node certifies the backup by induction.
    analytic and oracle are the root's V and s·lattice; gap is the worst.

    The tolerance is 1e-5, or at scale 8·2⁻⁵²·G, G the largest supported
    |g|. With u = 2⁻⁵³, each compared objective near the optimum (within
    [−G, G], so its cost is at most 2G) is rounded in its products (u·G, as
    the weights sum to 1), its sum (u·G), its cost (2u·G) and its
    difference (2u·G): 6u·G; a gap subtracts two of them (s·V is no worse)
    and rounds once at 4G, 16u·G in all. More than MAX_CERTIFIED_NODES
    internal nodes raise TooLarge; a node past the lattice's outcome cap
    raises TooManyOutcomes.
    """
    first, counts = tree.first_child.tolist(), tree.n_children.tolist()
    internal = [i for i, k in enumerate(counts) if k]
    if len(internal) > MAX_CERTIFIED_NODES:
        raise TooLarge(f"node certificate takes at most {MAX_CERTIFIED_NODES} internal "
                       f"nodes, got {len(internal)}")
    tv = value_recursion(tree, temps)
    gaps, scale = [], 0.0
    for i in internal:
        t = (temps.mu if tree.is_mu[i] else temps.lam).finite_value
        s = math.copysign(1.0, t)
        lo, hi = first[i], first[i] + counts[i]  # the children; edge e leads to node e + 1
        names, p = tree.names[lo:hi], tree.prior[lo - 1 : hi - 1]
        g = s * (tree.utility[lo - 1 : hi - 1] + tv.flat_values[lo:hi])
        prior, gains = FiniteDistribution._trusted(names, p), UtilityTable(names, g)
        row = FiniteDistribution._trusted(names, tv.flat_policy[lo - 1 : hi - 1])
        scored = expectation(row, gains) - kl_divergence(row, prior) / abs(t)
        lattice = simplex_grid_search(prior, gains, 1.0 / abs(t), 1e-3).best_value
        if not gaps:
            root_lattice = s * lattice
        gaps.append([lattice - scored, abs(s * tv.flat_values[i].item() - scored)])
        scale = max(scale, np.abs(g[p > 0.0]).max().item())
    node_gaps = np.max(gaps, axis=1)  # a NaN gap, a failure, stays NaN
    worst = int(np.argmax(node_gaps))  # and is the worst
    note = f"worst node {tree.paths()[internal[worst]]!r} of {len(internal)}, lattice step 0.001"
    gap, tolerance = node_gaps[worst].item(), max(1e-5, 8 * 2.0**-52 * scale)
    return Certificate(name, tv.root_value, root_lattice, gap, tolerance, note), tv


def verify_control(problem: ControlProblem, alpha) -> list[Certificate]:
    """Certificates for one control instance: its depth-1 tree at mu =
    1/alpha against the lattice oracle, and, when the prior has zeros,
    whether the policy kept them exactly zero."""
    temps = TemperatureSpec(1, control_temperature(alpha).reciprocal())
    cert, tv = _objective_gap("file/control/objective-gap", problem._tree, temps)
    off_support = tv.flat_policy[problem.prior.array == 0.0].tolist()
    if not off_support:
        return [cert]
    return [cert, _count_cert("file/control/support-preservation", len(off_support),
                              off_support.count(0.0),
                              "zero prior coordinates stayed exactly zero in the policy")]


def verify_two_stage(problem, lam: Temperature, mu: Temperature) -> list[Certificate]:
    """Certificates for one two-stage instance.

    The worst-case check always runs: the staged solver at (+inf, -inf)
    against the enumeration oracle. The lattice check, _objective_gap on
    the problem's depth-2 tree, runs at finite temperatures on any shape
    within the lattice's cap of MAX_GRID_OUTCOMES actions and outcomes (a
    wider one raises TooManyOutcomes).
    """
    own_action, own_value = minimax_solve(problem)
    ref_action, ref_value = enumerate_minimax(problem)
    # An action mismatch is a full failure even when the values tie, so it
    # contributes a unit of gap on its own.
    gap = abs(own_value - ref_value) + (0.0 if own_action == ref_action else 1.0)
    certs = [
        Certificate(
            name="file/two-stage/minimax-agreement",
            analytic=own_value,
            oracle=ref_value,
            gap=gap,
            tolerance=1e-12,
            note=f"worst-case action {own_action!r} vs enumeration {ref_action!r}",
        )
    ]
    if lam.is_finite and mu.is_finite:
        temps = TemperatureSpec(lam, mu)
        certs.append(_objective_gap("file/two-stage/objective-gap", problem._tree, temps)[0])
    return certs


def verify_tree(tree, lam: Temperature, mu: Temperature) -> list[Certificate]:
    """Certificates for one tree instance: the path-sum identity when every
    internal node is lambda-tagged, else the node certificate of
    _objective_gap, each at finite temperatures; plus hard-max
    consistency."""
    certs = []
    if tree.is_mu[tree.n_children > 0].any():
        if lam.is_finite and mu.is_finite:
            temps = TemperatureSpec(lam, mu)
            certs.append(_objective_gap("file/tree/objective-gap", tree, temps)[0])
    elif lam.is_finite:
        analytic = value_recursion(tree, TemperatureSpec(lam, mu)).root_value
        reference = path_enumeration(tree, lam.value)
        gap = abs(analytic - reference)
        certs.append(
            Certificate(
                name="file/tree/path-identity",
                analytic=analytic,
                oracle=reference,
                gap=gap,
                tolerance=1e-9,
                note=f"brute force over {tree.n_leaves()} root-to-leaf paths",
            )
        )
    hard_temps = TemperatureSpec(Temperature.pos_inf(), Temperature.pos_inf())
    soft = value_recursion(tree, hard_temps).root_value
    hard = bellman_backup(tree).root_value
    gap = abs(soft - hard)
    certs.append(
        Certificate(
            name="file/tree/hard-max-consistency",
            analytic=soft,
            oracle=hard,
            gap=gap,
            tolerance=1e-12,
            note="infinite-temperature backup against the direct hard-max program",
        )
    )
    return certs
