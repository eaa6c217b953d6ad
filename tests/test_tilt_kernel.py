"""The segmented tilt kernel against the per-row tilt it replaced, and the
identities that hold because every solver sums a segment the same way."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeutil.model import (
    ARGMAX_TIE_TOL,
    DecisionTree,
    DomainError,
    EmptySupport,
    FiniteDistribution,
    Temperature,
    TemperatureSpec,
    TreeNode,
    TwoStageProblem,
    UtilityTable,
    _ARRAY_ROW_WIDTH,
    _normalise_rows,
    _row_kls,
    _row_sums,
    _valid_rows,
    kl_divergence,
)
from freeutil.sequential import (
    certainty_equivalent,
    outer_policy,
    solve_regime,
    two_stage_to_tree,
    value_recursion,
)
from freeutil.variational import _tilt_segments, exponential_tilt


def reference_tilt(prior, g, t, total=None):
    """The per-row body exponential_tilt ran before the segmented kernel, on
    plain arrays. Returns (policy, value, log_partition, kept, m); kept means
    the policy is the prior itself. total sums the finite branch's weights
    (default: ndarray.sum, as the per-row body did). A finite or zero-limit
    value is clamped into [g_min, g_max], as the kernel clamps it."""
    support = [i for i, p in enumerate(prior) if p > 0.0]
    g_sup = g[support]
    g_min = float(g_sup.min())
    g_max = float(g_sup.max())
    if g_min == g_max:
        if t.is_zero:
            log_partition = 0.0
        elif t.is_finite:
            log_partition = t.value * g_max
        else:
            log_partition = None
        return prior, g_max, log_partition, True, None
    if t.is_zero:
        value = math.fsum(prior[i] * g[i] for i in support)
        return prior, min(max(value, g_min), g_max), 0.0, True, None
    if t.is_pos_inf or t.is_neg_inf:
        target = g_max if t.is_pos_inf else g_min
        winners = {i for i in support if abs(g[i] - target) <= ARGMAX_TIE_TOL}
        share = 1.0 / len(winners)
        probs = np.array([share if i in winners else 0.0 for i in range(len(prior))])
        return probs, target, None, False, None
    tv = t.value
    log_w = np.log(np.asarray([prior[i] for i in support])) + tv * g_sup
    m = float(log_w.max())
    e = np.exp(log_w - m)
    if total is None:
        s = float(e.sum())
    else:
        full = np.zeros(len(prior))
        full[support] = e
        s = float(total(full))
    log_partition = m + math.log(s)
    probs = np.zeros(len(prior))
    probs[support] = e / s
    return probs, min(max(log_partition / tv, g_min), g_max), log_partition, False, m


def log_partition(z):
    """A log-partition of the kernel as a float, NaN read as None: no
    log-partition, as at the infinite limits."""
    return None if math.isnan(z) else z.item()


def kernel_sum(weights):
    """How the kernel sums one segment: np.add.reduceat over the whole
    segment, zero weights included (its first entry plus numpy's pairwise
    sum of the rest)."""
    return np.add.reduceat(weights, [0])[0]


def ulps(a, b):
    """Distance of two float arrays in units in the last place of the
    larger magnitude."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


GAIN_STYLES = ("random", "integers", "constant", "near-ties")


@st.composite
def segments(draw, n=None):
    """One segment, of n entries (default: 1 to 40): a normalised prior with
    zero entries and gains that are random, tied integers, constant over the
    support, or within ARGMAX_TIE_TOL of each other."""
    if n is None:
        n = draw(st.integers(1, 40))
    weights = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0, 2.5]), min_size=n, max_size=n))
    )
    weights += draw(st.floats(0.0, 1.0)) * np.arange(n) / n * (weights > 0)
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, n - 1))] = 1.0
    prior = weights / weights.sum()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(GAIN_STYLES))
    if style == "random":
        gains = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
    elif style == "integers":
        gains = rng.integers(-2, 3, n).astype(float)
    elif style == "constant":
        gains = np.where(prior > 0.0, 1.75, rng.normal(size=n))
    else:
        gains = 3.0 + rng.choice([0.0, 0.5e-12, -0.5e-12, 2e-12, -2e-12], n)
    return prior, gains


temperatures = st.one_of(
    st.just(Temperature.zero()),
    st.just(Temperature.pos_inf()),
    st.just(Temperature.neg_inf()),
    st.floats(-30.0, 30.0).filter(lambda v: abs(v) > 1e-6).map(Temperature.finite),
)


def check_against_reference(policy, value, log_z, kept, prior, gains, t):
    ref_policy, ref_value, ref_log_z, ref_kept, m = reference_tilt(prior, gains, t)
    assert kept == ref_kept
    if kept or not t.is_finite:
        # Constant, zero and infinite branches: the same bits.
        assert np.array_equal(policy, ref_policy)
        assert value == ref_value
        assert log_z == ref_log_z
        return
    # Finite branch with the kernel's summation: the same bits.
    same_sum = reference_tilt(prior, gains, t, total=kernel_sum)
    assert np.array_equal(policy, same_sum[0])
    assert (value, log_z) == same_sum[1:3]
    # Against the per-row pairwise sum: two orders of summing n nonnegative
    # weights differ by about n units in the last place of the sum, which
    # every entry inherits through the one division. log_partition = m +
    # log(s) is measured on the scale of its larger term.
    n = len(prior)
    assert ulps(policy, ref_policy).max() <= n + 2
    scale = max(abs(m), abs(ref_log_z), 1.0)
    assert abs(log_z - ref_log_z) <= (n + 2) * np.spacing(scale)
    assert abs(value - ref_value) <= (n + 2) * np.spacing(scale) / abs(t.value) + np.spacing(
        abs(ref_value)
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(segments(), min_size=1, max_size=6), temperatures)
# Near-tied gains at a small temperature: log_partition / t rounds to
# 2.9999999999974487, below g_min, and both sides clamp it to 2.999999999998.
@example([(np.array([0.5, 0.5]), np.array([3.0, 2.999999999998]))], Temperature.finite(1e-5))
def test_kernel_matches_per_row_tilt(segs, t):
    check_segments(segs, t)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.sampled_from([_ARRAY_ROW_WIDTH, 300]), st.data(), temperatures)
def test_kernel_matches_per_row_tilt_on_rows_of_one_width(k, width, data, t):
    """Rows of one width, at and above _ARRAY_ROW_WIDTH, whose zero-limit
    values _row_sums sums by array extraction: still math.fsum(prior·gain)."""
    check_segments([data.draw(segments(width)) for _ in range(k)], t)


def check_segments(segs, t):
    """The kernel on the segments together, against reference_tilt on each
    row, and against the kernel on each row alone."""
    prior = np.concatenate([p for p, _ in segs])
    gains = np.concatenate([g for _, g in segs])
    starts = np.cumsum([0] + [len(p) for p, _ in segs[:-1]])
    policy, values, log_z, kept = _tilt_segments(prior, gains, starts, t)
    assert len(values) == len(log_z) == len(kept) == len(segs)
    for i, (p, g) in enumerate(segs):
        lo = starts[i]
        part = policy[lo : lo + len(p)]
        check_against_reference(
            part, values[i].item(), log_partition(log_z[i]), kept[i].item(), p, g, t
        )
        # A segment gets the same bits alone as with its neighbours.
        alone = _tilt_segments(p, g, np.zeros(1, dtype=np.intp), t)
        assert np.array_equal(alone[0], part)
        for whole, one in zip((values, log_z, kept), alone[1:]):
            assert one.tobytes() == whole[i : i + 1].tobytes()


@settings(max_examples=200, deadline=None)
@given(segments(), temperatures)
def test_exponential_tilt_is_the_one_segment_kernel(seg, t):
    prior, gains = seg
    labels = [f"x{i}" for i in range(len(prior))]
    dist = FiniteDistribution(labels, prior)
    result = exponential_tilt(dist, UtilityTable(labels, gains), t)
    policy, values, log_z, kept = _tilt_segments(
        dist.array, gains, np.zeros(1, dtype=np.intp), t
    )
    if kept.item():
        assert result.policy is dist
    else:
        assert result.policy == FiniteDistribution(labels, policy)
    assert (result.value, result.log_partition) == (values.item(), log_partition(log_z[0]))


def list_tilt_segments(prior, gains, starts, t):
    """The segmented kernel as it was before it became one array path: a
    full-support fork, a scalar path for one segment, and per-segment lists
    for its outputs (None for the log-partition at ±inf). The reference the
    array kernel must match bit for bit."""
    n = len(prior)
    bounds = starts.tolist()
    bounds.append(n)
    k = len(bounds) - 1
    lengths = None if k == 1 else np.array([hi - lo for lo, hi in zip(bounds, bounds[1:])])

    def spread(per_segment):
        """A per-segment quantity repeated over its segment's entries (a
        scalar for a single segment)."""
        return per_segment[0] if lengths is None else np.repeat(per_segment, lengths)

    support = prior > 0.0
    everywhere = np.count_nonzero(support) == n
    if everywhere:
        g_max = np.maximum.reduceat(gains, starts)
        g_min = np.minimum.reduceat(gains, starts)
    else:
        masked = np.where(support, gains, -np.inf)
        g_max = np.maximum.reduceat(masked, starts)
        masked[~support] = np.inf
        g_min = np.minimum.reduceat(masked, starts)
        del masked
    g_max_list = g_max.tolist()
    if not everywhere and -math.inf in g_max_list:
        raise EmptySupport("prior assigns no positive probability anywhere")
    const = [lo == hi for lo, hi in zip(g_min.tolist(), g_max_list)]

    # Rounding can carry a finite or zero-limit value past the supported
    # gains; it is clamped back into [g_min, g_max].
    if t.is_zero:
        # An unsupported entry adds -0.0, which changes no sum. A row whose
        # partial sums pass the float range gets its exact sum.
        terms = np.where(support, prior * gains, -0.0)
        sums = [reference_sum(terms[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]
        sums = np.clip(sums, g_min, g_max).tolist()
        values = [g if c else v for g, c, v in zip(g_max_list, const, sums)]
        return prior, values, [0.0] * k, [True] * k

    # log 0 is -inf; gains near ±1e308 overflow into NaN rows, which fail downstream.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if t.is_finite:
            tv = t.value
            policy = np.log(prior)
            policy += gains * tv
            if not everywhere:
                policy[~support] = -np.inf
            m = np.maximum.reduceat(policy, starts)
            policy -= spread(m)
            np.exp(policy, out=policy)
            s = np.add.reduceat(policy, starts)
            policy /= spread(s)
            log_z = [mi + math.log(si) for mi, si in zip(m.tolist(), s.tolist())]
            values = np.clip(np.array(log_z) / tv, g_min, g_max).tolist()
            for i in [i for i, c in enumerate(const) if c]:
                values[i] = g_max_list[i]
                log_z[i] = tv * g_max_list[i]
        else:
            target = g_max if t.is_pos_inf else g_min
            winners = np.abs(gains - spread(target)) <= ARGMAX_TIE_TOL
            if not everywhere:
                winners &= support
            # 1.0 per winner, divided by the number of winners in its segment.
            policy = winners.astype(float)
            policy /= spread(np.add.reduceat(policy, starts))
            values = target.tolist()
            log_z = [None] * k
    if True in const:
        np.copyto(policy, prior, where=spread(np.array(const)))
    return policy, values, log_z, const


# Gains at the edges of the float range and of zero, and small ties.
AWKWARD_GAINS = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0, 1e308, -1e308, 1.7976931348623157e308)

awkward_temperatures = st.one_of(
    st.just(Temperature.zero()),
    st.just(Temperature.pos_inf()),
    st.just(Temperature.neg_inf()),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-300.0, 305.0)).map(
        lambda se: Temperature.finite(se[0] * 10.0**se[1])
    ),
)


@st.composite
def awkward_segments(draw):
    """One segment: a prior with zero and subnormal entries, and gains that
    mix the awkward values with random reals, tie as integers, or are
    constant over the support."""
    n = draw(st.integers(1, 8))
    weights = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.0, 5e-324, 0.3, 1.0, 2.5]), min_size=n, max_size=n))
    )
    if not weights.sum() > 0.0:
        weights[draw(st.integers(0, n - 1))] = 1.0
    prior = weights / weights.sum()
    gain = st.one_of(
        st.sampled_from(AWKWARD_GAINS), st.floats(-1e3, 1e3), st.integers(-2, 2).map(float)
    )
    gains = np.array(draw(st.lists(gain, min_size=n, max_size=n)))
    style = draw(st.sampled_from(["mixed", "integers", "constant"]))
    if style == "integers":
        gains = np.round(gains % 5.0) - 2.0
    elif style == "constant":
        gains[prior > 0.0] = draw(gain)
    return prior, gains


def float_bits(values):
    """The bytes of float values, None read as NaN."""
    return np.array([np.nan if v is None else v for v in values], dtype=float).tobytes()


@settings(max_examples=600, deadline=None)
@given(st.lists(awkward_segments(), min_size=1, max_size=6), awkward_temperatures)
@example([(np.array([0.5, 0.5]), np.array([1e308, -1e308]))], Temperature.finite(10.0))
# A sum s = 1.569782824730923 whose log np.log rounds one unit below math.log.
@example([(np.array([0.5, 0.5]), np.array([0.0, -0.5625]))], Temperature.finite(1.0))
@example([(np.array([1.0]), np.array([-0.0])), (np.array([0.0, 1.0]), np.array([1e308, 0.0]))],
         Temperature.zero())
# The first row's products sum past the float range, which math.fsum refuses.
@example([(np.full(3, 0.33333333333333337),
           np.array([1.7976931348623157e308, 1.7976931348623155e308, 1.7976931348623157e308])),
          (np.array([0.5, 0.5]), np.array([1.0, 2.0]))], Temperature.zero())
def test_array_kernel_has_the_bits_of_the_list_kernel(segs, t):
    prior = np.concatenate([p for p, _ in segs])
    gains = np.concatenate([g for _, g in segs])
    starts = np.cumsum([0] + [len(p) for p, _ in segs[:-1]])
    outcomes = []
    for kernel in (list_tilt_segments, _tilt_segments):
        try:
            outcomes.append(kernel(prior, gains, starts, t))
        except (EmptySupport, ArithmeticError) as e:
            outcomes.append(type(e))
    old, new = outcomes
    if not isinstance(old, tuple):
        assert new is old
        return
    assert all(isinstance(a, np.ndarray) for a in new)
    assert new[0].tobytes() == old[0].tobytes()
    assert new[1].tobytes() == float_bits(old[1])
    assert new[2].tobytes() == float_bits(old[2])
    assert new[3].dtype == bool and new[3].tolist() == list(old[3])
    assert (new[0] is prior) == (old[0] is prior)


def random_problem(rng, n_a=12, n_o=12):
    """A two-stage problem with zero channel entries and zero-prior actions."""
    actions = [f"a{i}" for i in range(n_a)]
    outcomes = [f"o{j}" for j in range(n_o)]

    def weights(n):
        w = rng.uniform(0.1, 1.0, n) * (rng.uniform(size=n) > 0.25)
        if w.sum() == 0.0:
            w[int(rng.integers(0, n))] = 1.0
        return w / w.sum()

    return TwoStageProblem(
        actions,
        outcomes,
        FiniteDistribution(actions, weights(n_a)),
        {a: FiniteDistribution(outcomes, weights(n_o)) for a in actions},
        UtilityTable(actions, rng.integers(-2, 3, n_a) * 0.5),
        {a: UtilityTable(outcomes, rng.normal(size=n_o)) for a in actions},
    )


@pytest.mark.parametrize("lam", [0.7, 3.0, "inf"])
@pytest.mark.parametrize("mu", [-2.5, "-inf", "zero", 0.4, "inf"])
def test_tree_recursion_matches_two_stage_bitwise(lam, mu):
    rng = np.random.default_rng(12)
    for _ in range(5):
        check_tree_recursion(random_problem(rng), TemperatureSpec(lam, mu))


@pytest.mark.parametrize("lam", [0.7, 3.0, "inf"])
@pytest.mark.parametrize("mu", [-2.5, "-inf", "zero", 0.4, "inf"])
def test_tree_recursion_matches_two_stage_bitwise_on_300_wide_rows(lam, mu):
    """Rows above _ARRAY_ROW_WIDTH, whose sums _row_sums takes by array
    extraction."""
    check_tree_recursion(random_problem(np.random.default_rng(12), 300, 300), TemperatureSpec(lam, mu))


def check_tree_recursion(problem, temps):
    """solve_regime against value_recursion on two_stage_to_tree, bit for
    bit; achieved_c1 and achieved_c2 against kl_divergence of the tree's
    policies."""
    sol = solve_regime(problem, temps)
    tv = value_recursion(two_stage_to_tree(problem), temps)
    assert tv.root_value == sol.value
    assert tv.policies["root"].probs == sol.action_policy.probs
    kls = []
    for a in problem.actions:
        assert problem.action_utility.value(a) + tv.values[f"root/{a}"] == sol.values[a]
        assert tv.policies[f"root/{a}"].probs == sol.outcome_beliefs[a].probs
        kls.append(kl_divergence(tv.policies[f"root/{a}"], problem.channel[a]))
    assert sol.achieved_c1 == kl_divergence(tv.policies["root"], problem.prior_action)
    probs = tv.policies["root"].probs
    assert sol.achieved_c2 == math.fsum(p * kl for p, kl in zip(probs, kls) if p > 0.0)


def test_outer_policy_blocks_rows_without_changing_bits():
    """outer_policy tilts its rows in blocks; each row matches its own
    one-row tilt bit for bit."""
    rng = np.random.default_rng(5)
    problem = random_problem(rng, n_a=40, n_o=1000)
    sol = outer_policy(problem, 2.0, -0.5)
    for a in problem.actions:
        one = exponential_tilt(problem.channel[a], problem.outcome_utility[a], -0.5)
        assert sol.outcome_beliefs[a].probs == one.policy.probs
        assert sol.values[a] == problem.action_utility.value(a) + one.value
        assert sol.log_z2[a] == one.log_partition


def test_a_300_by_300_solve_peaks_below_1_8_times_its_edge_arrays():
    """The backup tilts, normalises and sums a block of whole rows at a
    time, and _row_sums extracts a block in two reused scratch matrices of
    at most _BLOCK_EDGES entries, so the traced peak of a solve stays within
    1.8 times the tree's prior and utility arrays (1.70 times when every
    row took a math.fsum; 1.76 times with the scratch)."""
    problem = random_problem(np.random.default_rng(3), 300, 300)
    edges = problem._tree.prior.nbytes + problem._tree.utility.nbytes
    for lam, mu in [(2.0, -1.0), ("inf", "zero"), (0.5, "inf")]:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_regime(problem, TemperatureSpec(lam, mu))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * edges, (peak / edges, edges)


def test_risk_sensitive_row_values_equal_certainty_equivalents():
    rng = np.random.default_rng(9)
    problem = random_problem(rng, n_a=30, n_o=50)
    for mu in (-3.0, 0.25, "zero", "-inf"):
        sol = outer_policy(problem, "inf", mu)
        for a in problem.actions:
            ce = certainty_equivalent(problem.channel[a], problem.outcome_utility[a], mu)
            assert sol.values[a] == problem.action_utility.value(a) + ce


def chain(depth):
    """A chain of `depth` binary nodes: each has a leaf 'x' (utility 0) and
    the next node 'n' (utility 1), with equal priors; the last 'n' is a
    leaf."""
    node = TreeNode(name="n")
    halves = FiniteDistribution(["x", "n"], [0.5, 0.5])
    gains = UtilityTable(["x", "n"], [0.0, 1.0])
    for _ in range(depth):
        node = TreeNode(
            name="n",
            children=(TreeNode(name="x"), node),
            child_prior=halves,
            child_utility=gains,
            temperature_tag="mu",
        )
    return DecisionTree(node)


def test_value_recursion_on_a_chain_10000_deep():
    depth = 10_000
    tree = chain(depth)
    # Hard maximum: every step takes the edge of utility 1.
    hard = value_recursion(tree, TemperatureSpec("inf", "inf"))
    assert hard.root_value == float(depth)
    assert len(hard.values) == 2 * depth + 1
    # Expectation: V = (1 + V') / 2 from V = 0 at the bottom, so
    # V = 1 - 2**-depth, which is 1.0 in floating point.
    mean = value_recursion(tree, TemperatureSpec("inf", "zero"))
    assert mean.root_value == pytest.approx(1.0, abs=1e-12)
    # Worst case: the leaf of utility 0 at the top.
    assert value_recursion(tree, TemperatureSpec("inf", "-inf")).root_value == 0.0


def test_overflow_is_reported_at_the_first_node_a_recursive_backup_reaches():
    """Gains u + V that overflow raise the DomainError of the node that comes
    first in post-order, although the level pass meets deeper nodes first."""
    big = 1.5e308

    def node(name, children, utilities):
        names = [c.name for c in children]
        return TreeNode(
            name=name,
            children=tuple(children),
            child_prior=FiniteDistribution(names, [1.0 / len(names)] * len(names)),
            child_utility=UtilityTable(names, utilities),
        )

    def overflowing(name, child):
        """A node whose child `child` has value about `big`, reached over an
        edge of utility `big`."""
        inner = node(child, [TreeNode(name="x"), TreeNode(name="y")], [big, big])
        return node(name, [inner], [big])

    shallow = overflowing("c", "d")
    deep = node("e", [overflowing("a", "b")], [0.0])
    temps = TemperatureSpec(1.0, 1.0)
    first = DecisionTree(node("r", [shallow, deep], [0.0, 0.0]))
    with pytest.raises(DomainError, match="utility of 'd' is not finite: inf"):
        value_recursion(first, temps)
    shallow = overflowing("c", "d")
    deep = node("e", [overflowing("a", "b")], [0.0])
    second = DecisionTree(node("r", [deep, shallow], [0.0, 0.0]))
    with pytest.raises(DomainError, match="utility of 'b' is not finite: inf"):
        value_recursion(second, temps)


def reference_value_recursion(root, temps):
    """The recursive backup value_recursion ran before the level pass, one
    exponential_tilt per node: (values, policies) in the order it filled
    them."""
    values, policies = {}, {}

    def backup(node, path):
        if node.is_leaf:
            values[path] = 0.0
            return 0.0
        child_values = [backup(c, f"{path}/{c.name}") for c in node.children]
        names = tuple(c.name for c in node.children)
        gains = UtilityTable(
            names, [u + v for u, v in zip(node.child_utility.values, child_values)]
        )
        t = temps.lam if node.temperature_tag == "lambda" else temps.mu
        result = exponential_tilt(node.child_prior, gains, t)
        values[path] = result.value
        policies[path] = result.policy
        return result.value

    backup(root, root.name)
    return values, policies


def random_tree(rng, name="root", depth=0):
    """A random tree with lambda and mu nodes mixed within levels, zero
    child priors and tied integer or real utilities."""
    if depth == 4 or (depth and rng.uniform() < 0.3):
        return TreeNode(name=name)
    names = [f"c{i}" for i in range(int(rng.integers(1, 5)))]
    w = rng.uniform(0.1, 1.0, len(names)) * (rng.uniform(size=len(names)) > 0.2)
    if w.sum() == 0.0:
        w[0] = 1.0
    if rng.uniform() < 0.5:
        utilities = rng.integers(-2, 3, len(names))
    else:
        utilities = rng.normal(size=len(names))
    return TreeNode(
        name=name,
        children=tuple(random_tree(rng, c, depth + 1) for c in names),
        child_prior=FiniteDistribution(names, w / w.sum()),
        child_utility=UtilityTable(names, utilities),
        temperature_tag="lambda" if rng.uniform() < 0.5 else "mu",
    )


@pytest.mark.parametrize("lam", [0.5, 3.0, "inf"])
@pytest.mark.parametrize("mu", [-2.0, "-inf", "zero", 0.7, "inf"])
def test_level_pass_matches_the_recursive_backup(lam, mu):
    rng = np.random.default_rng(77)
    temps = TemperatureSpec(lam, mu)
    for _ in range(10):
        root = random_tree(rng)
        tv = value_recursion(DecisionTree(root), temps)
        values, policies = reference_value_recursion(root, temps)
        assert list(tv.values.items()) == list(values.items())
        assert list(tv.policies) == list(policies)
        for path, policy in policies.items():
            assert tv.policies[path].probs == policy.probs


# The least magnitude that rounds, half-even, past the largest float.
FLOAT_OVERFLOW = Fraction(2**1024 - 2**970)


def reference_sum(row):
    """math.fsum of a list of floats; where math.fsum raises OverflowError
    (a partial sum passes the float range): NaN for a row holding a NaN, the
    infinity of a row holding infinities of one sign, ValueError for both
    signs, else the exact Fraction sum rounded half-even, ±inf from
    FLOAT_OVERFLOW on."""
    try:
        return math.fsum(row)
    except OverflowError:
        pass
    if any(map(math.isnan, row)):
        return math.nan
    infinities = {x for x in row if math.isinf(x)}
    if len(infinities) == 2:
        raise ValueError("a row holds inf and -inf")
    if infinities:
        return infinities.pop()
    exact = sum(map(Fraction, row))
    if abs(exact) >= FLOAT_OVERFLOW:
        return math.inf if exact > 0 else -math.inf
    return float(exact)


def fsum_rows(rows):
    """The float bits of the reference_sum of every row, or ValueError where
    a row holds inf and -inf."""
    try:
        return np.array([reference_sum(row.tolist()) for row in rows]).view(np.int64).tolist()
    except ValueError as e:
        return type(e)


ROW_STYLES = ("whole range", "one window", "weights", "small mantissas")


@st.composite
def float_rows(draw):
    """1 to 60 rows, mostly of one width on either side of _ARRAY_ROW_WIDTH
    (sometimes ragged), of values ±m·2**e: exponents over the whole range or
    a window of it (cancellation and rounding boundaries), normalised
    weights, or small mantissas (exact ties); with zeros of both signs and
    subnormals, rows that end in the negated sum of the others, and a few
    infinities and NaNs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 60))
    width = draw(st.one_of(st.integers(1, _ARRAY_ROW_WIDTH - 1),
                           st.integers(_ARRAY_ROW_WIDTH, 40), st.sampled_from([300, 600])))
    widths = rng.integers(1, 2 * width, k) if draw(st.booleans()) and k > 1 else [width] * k
    specials = draw(st.sampled_from([0.0, 0.0, 0.01]))
    rows = []
    for w in widths:
        style = ROW_STYLES[rng.integers(len(ROW_STYLES))]
        if style == "weights":
            row = rng.uniform(0.1, 1.0, w)
            row /= row.sum()
        else:
            lo = int(rng.integers(-1074, 971))
            exponents = (rng.integers(-1074, 972, w) if style == "whole range"
                         else np.minimum(lo + rng.integers(0, 120, w), 971))
            bits = 53 if style != "small mantissas" else 3
            row = np.ldexp(rng.integers(1, 2**bits, w).astype(float), exponents - (bits - 1))
            row *= rng.choice([-1.0, 1.0], w)
        row[rng.uniform(size=w) < 0.1] = rng.choice([0.0, -0.0])
        if rng.uniform() < 0.3 and w > 1:
            with np.errstate(over="ignore"):
                rest = math.fsum(row[:-1]) if np.isfinite(row[:-1].sum()) else 0.0
            row[-1] = -rest
        row[rng.uniform(size=w) < specials] = rng.choice([math.inf, -math.inf, math.nan])
        rows.append(row)
    return rows


def padded(*values):
    """One row of the values, padded with zeros to _ARRAY_ROW_WIDTH."""
    return [np.array(values + (0.0,) * (_ARRAY_ROW_WIDTH - len(values)))]


@settings(max_examples=250, deadline=None)
@given(float_rows())
# A sum whose r2 are subnormal: 1.01·w·2**-53·Σ|r2| underflows to 0 here,
# so only Σ|r2| itself tells that r2 is not all zero.
@example(padded(1.5159490296178484e-294, -1.8503426789745422e115, 1.8503426789745422e115))
@example(padded(1.0, 2.0**-53))  # an exact half-ulp tie, rounded to even
@example(padded(1.0, 2.0**-53, 5e-324))  # the tie broken by a subnormal r2
@example(padded(0.5, 0.25, 0.25 - 2.0**-54))  # weights summing to 1 - 2**-54
@example(padded(-0.0))
@example(padded(math.inf, 1.0))
@example(padded(-math.inf, 1.0))
@example(padded(math.inf, -math.inf))
@example(padded(1e308, 1e308))  # a finite row whose sum overflows: inf
# Finite rows whose partial sums pass the float range, where math.fsum
# raises: 2 and 3 wide, and 17 wide, which extraction leaves unsure.
@example([np.array([1e308, 1e308])])
@example([np.array([1e308, 1e308, -1e308])])
@example([np.array((1e308, 1e308, -1e308) + (0.0,) * 14)])
# Sums past the range, whose halved partial sums pass it too, of both signs.
@example([np.array([1e308] * 4)])
@example([np.array([-1e308] * 4), np.array([1e308, 1e308, 1e308, -1e308])])
# Overflowing partial sums whose exact sum is subnormal.
@example([np.array([1e308, 1e308, -1e308, -1e308, 5e-324])])
@example([np.array([1e308, 1e308, -1e308, -1e308, 1e-310, 3e-320])])
# Overflowing partial sums beside an infinity, a NaN, or both infinities.
@example([np.array([1e308, 1e308, math.inf]), np.array([1e308, 1e308, math.nan])])
@example([np.array([1e308, 1e308, math.inf, -math.inf])])
def test_row_sums_are_the_bits_of_math_fsum(rows):
    flat = np.concatenate(rows)
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    want = fsum_rows(rows)
    if isinstance(want, type):
        with pytest.raises(want):
            _row_sums(flat, starts)
    else:
        assert _row_sums(flat, starts).view(np.int64).tolist() == want


def test_a_prior_row_whose_sum_passes_the_float_range_is_not_valid():
    for width in (2, 4):
        prior = np.full(width, 1e308)
        assert not _valid_rows(prior, np.zeros(width), np.zeros(1, dtype=np.intp))
        assert prior.tolist() == [1e308] * width  # a failing row is left as it is


def test_wide_rows_normalise_and_diverge_as_the_labelled_constructors():
    """On 300-wide rows, whose sums _row_sums takes by array extraction,
    _normalise_rows gives the probs of FiniteDistribution (a row off 1 by
    more than NORMALIZATION_TOL fails and is left as it is), and _row_kls
    gives kl_divergence row by row, bit for bit."""
    rng = np.random.default_rng(21)
    k, w = 40, 300
    labels = [f"o{j}" for j in range(w)]

    def rows():
        weights = rng.uniform(0.1, 1.0, (k, w)) * (rng.uniform(size=(k, w)) > 0.25)
        weights[:, 0] += 0.1
        weights /= weights.sum(axis=1, keepdims=True)
        return weights * (1.0 + rng.uniform(-1e-10, 1e-10, (k, 1)))

    weights = rows()
    weights[3] *= 1.01
    flat, starts = weights.ravel().copy(), np.arange(0, k * w, w)
    passed = _normalise_rows(flat, starts)
    assert passed.tolist() == [i != 3 for i in range(k)]
    for i, row in enumerate(weights):
        got = flat[starts[i] : starts[i] + w]
        if i == 3:
            assert got.tobytes() == row.tobytes()
        else:
            assert got.tolist() == list(FiniteDistribution(labels, row).probs)
    p = [FiniteDistribution(labels, row) for row in weights[np.arange(k) != 3]]
    q = [FiniteDistribution(labels, (row + 1e-3) / (row + 1e-3).sum()) for row in rows()[: k - 1]]
    kls = _row_kls(np.concatenate([d.array for d in p]), np.concatenate([d.array for d in q]), starts[:-1])
    assert kls.tolist() == [kl_divergence(a, b) for a, b in zip(p, q)]
