"""Single-stage free-utility machinery.

The central object is the exponential tilt of a prior by a utility vector:
``policy ∝ prior · exp(t·gain)``. Every solver in the package — the Gibbs
constructor, KL-regularized control, certainty equivalents, and the tree
recursion — is this one primitive at some inverse temperature ``t``, including
its three limits (t → 0 returns the prior, t → ±∞ concentrate uniformly on
the arg-max/arg-min over the prior's support). Funnelling everything through
one code path is what makes the exact-equality identities between solvers
hold bit-for-bit rather than approximately.

Temperatures come in two flavours here: ``alpha`` is a *temperature*
(exponents are u/α, so α → ∞ flattens) while the tilt parameter is an
*inverse* temperature (exponents are t·u, so t → 0 flattens). The two are
linked by ``Temperature.reciprocal``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ARGMAX_TIE_TOL,
    DomainError,
    EmptySupport,
    FiniteDistribution,
    Temperature,
    UtilityTable,
    _WHOLE,
    _finite,
    _real,
    _require,
    _row_sums,
    entropy,
    expectation,
    kl_divergence,
)


@dataclass(frozen=True)
class TiltResult:
    """Outcome of one exponential tilt.

    value is the optimal trade-off objective (1/t)·log Σ prior·exp(t·gain):
    the certainty equivalent of the gains under the prior. log_partition is
    log Σ prior·exp(t·gain), or None at the infinite limits where the
    partition sum diverges; it is exactly 0.0 at t = 0.
    """

    policy: FiniteDistribution
    value: float
    log_partition: float | None


def _tilt_segments(prior, gains, starts, t: Temperature):
    """Tilt every segment of a flat prior by the same segment of flat gains.

    prior and gains are float arrays of one length; starts holds the
    increasing offsets of the segments (the first is 0, none is empty). One
    array path serves every segment: its gains are masked to the entries
    its prior supports, and each takes the branch exponential_tilt
    documents:

    - constant gains: the prior unchanged, value g_max, log-partition
      t·g_max (0.0 at the zero limit, NaN at ±inf);
    - zero limit: the prior, value the _row_sums of prior·gain, which has
      the bits of math.fsum(prior·gain);
    - ±inf: uniform over the entries within ARGMAX_TIE_TOL of the extreme;
    - finite t: log-weights, a max shift, exp, a sum, log_partition =
      m + log(s).

    A segment is always summed by np.add.reduceat, so it gets the same bits
    whichever call or neighbours it comes with. Returns four arrays
    (policy, values, log_partitions, kept): the flat policy and, per
    segment, the value, the log-partition (0.0 at the zero limit, NaN at
    ±inf) and whether the policy is the prior itself, entry for entry. At
    the zero limit the returned policy is the prior array.
    """
    lengths = np.diff(starts, append=len(prior))
    unsupported = ~(prior > 0.0)
    masked = np.where(unsupported, -np.inf, gains)
    g_max = np.maximum.reduceat(masked, starts)
    if (g_max == -np.inf).any():
        raise EmptySupport("prior assigns no positive probability anywhere")
    masked[unsupported] = np.inf
    g_min = np.minimum.reduceat(masked, starts)
    del masked
    const = g_min == g_max

    # Rounding can carry a finite or zero-limit value past the supported
    # gains; it is clamped back into [g_min, g_max].
    if t.is_zero:
        # An unsupported entry adds -0.0, which changes no sum.
        sums = np.clip(_row_sums(np.where(unsupported, -0.0, prior * gains), starts), g_min, g_max)
        k = len(starts)
        return prior, np.where(const, g_max, sums), np.zeros(k), np.ones(k, dtype=bool)

    # log 0 is -inf; gains near ±1e308 overflow into NaN rows, which fail downstream.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if t.is_finite:
            tv = t.value
            policy = np.log(prior)
            policy += gains * tv
            policy[unsupported] = -np.inf
            m = np.maximum.reduceat(policy, starts)
            policy -= np.repeat(m, lengths)
            np.exp(policy, out=policy)
            s = np.add.reduceat(policy, starts)
            policy /= np.repeat(s, lengths)
            # math.log, not np.log: the two round some sums differently.
            log_z = m + np.fromiter(map(math.log, s.tolist()), float, len(s))
            values = np.where(const, g_max, np.clip(log_z / tv, g_min, g_max))
            log_z = np.where(const, tv * g_max, log_z)
        else:
            values = g_max if t.is_pos_inf else g_min
            winners = np.abs(gains - np.repeat(values, lengths)) <= ARGMAX_TIE_TOL
            winners[unsupported] = False
            # 1.0 per winner, divided by the number of winners in its segment.
            policy = winners.astype(float)
            policy /= np.repeat(np.add.reduceat(policy, starts), lengths)
            log_z = np.full(len(starts), np.nan)
    np.copyto(policy, prior, where=np.repeat(const, lengths))
    return policy, values, log_z, const


def exponential_tilt(
    prior: FiniteDistribution, gains: UtilityTable, inv_temp
) -> TiltResult:
    """Tilt ``prior`` toward high ``gains`` at inverse temperature ``inv_temp``.

    Finite t: policy ∝ prior·exp(t·gains) computed in log-space with
    max-subtraction. t = zero limit: the prior itself, value = expected gain.
    t = +inf / -inf: uniform over the maximizers / minimizers of gains
    restricted to support(prior), ties resolved within 1e-12.

    Constant gains (over the support) short-circuit to the prior exactly, so
    "utility shifts nothing" holds bitwise, not just numerically. A
    log-partition past the float range (t·gain beyond about 1.8e308) raises
    DomainError.
    """
    _require(prior, FiniteDistribution, "prior")
    _require(gains, UtilityTable, "gains")
    t = Temperature.coerce(inv_temp)
    g = gains.aligned_to(prior.outcomes)
    flat, value, log_z, kept = _tilt_segments(prior.array, g, _WHOLE, t)
    policy = prior if kept.item() else FiniteDistribution(prior.outcomes, flat)
    if t.is_pos_inf or t.is_neg_inf:
        return TiltResult(policy, value.item(), None)
    return TiltResult(policy, value.item(), _finite(log_z.item(), "the log-partition"))


def _probability(p) -> float:
    """p as a float in (0, 1], else DomainError."""
    p = _real(p, "probability")
    if not p > 0.0:
        raise DomainError(f"probability must be positive, got {p!r}")
    if p > 1.0:
        raise DomainError(f"probability must not exceed 1, got {p!r}")
    return p


def utility_gain_from_prob(p: float, alpha: float) -> float:
    """Utility gain equivalent to learning an event of probability p: α·log p.

    α is the conversion factor between utility and log-probability; negative
    α models an adversarial assignment (low probability becomes attractive).
    """
    alpha = _real(alpha, "conversion factor")
    if not math.isfinite(alpha) or alpha == 0.0:
        raise DomainError(f"conversion factor must be finite and nonzero, got {alpha!r}")
    return _finite(alpha * math.log(_probability(p)), "the utility gain")


def prob_from_utility_gain(gain: float, alpha: float) -> float:
    """Inverse conversion: the probability exp(gain/α) implied by a gain.

    Rejects gains whose implied probability would exceed 1 (gain and α of
    the same sign).
    """
    gain = _real(gain, "gain")
    alpha = _real(alpha, "conversion factor")
    if not math.isfinite(alpha) or alpha == 0.0:
        raise DomainError(f"conversion factor must be finite and nonzero, got {alpha!r}")
    if math.isnan(gain):
        raise DomainError("gain must be a number, got nan")
    ratio = gain / alpha
    if ratio > 0.0:
        raise DomainError(
            f"gain {gain!r} at conversion factor {alpha!r} implies probability "
            f"exp({ratio!r}) > 1"
        )
    return math.exp(ratio)


def information_work(p: float, alpha: float) -> float:
    """Work required to acquire information −log p at conversion factor α > 0."""
    alpha = _real(alpha, "conversion factor")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"conversion factor must be a positive real, got {alpha!r}")
    return _finite(-alpha * math.log(_probability(p)), "the information work")


def gibbs_measure(u: UtilityTable, alpha) -> FiniteDistribution:
    """The distribution with probabilities ∝ exp(u/α).

    alpha may be a positive or negative finite real, the zero limit
    (approached from above: uniform over the maximal outcomes, maximal
    meaning within 1e-12 of the maximum), or the +inf limit (uniform over
    all outcomes). Computed in log-space; finite utilities cannot overflow.
    """
    _require(u, UtilityTable, "u")
    t = Temperature.coerce(alpha)
    if t.is_neg_inf:
        raise DomainError("temperature cannot be the -inf limit")
    uniform = FiniteDistribution.uniform(u.outcomes)
    return exponential_tilt(uniform, u, t.reciprocal()).policy


def free_utility(p: FiniteDistribution, u: UtilityTable, alpha: float) -> float:
    """The trade-off functional Σ p·u − α Σ p log p (expected utility plus
    α-weighted entropy). Maximized over p by gibbs_measure(u, alpha), where
    it equals α·log Σ exp(u/α)."""
    alpha = _real(alpha, "temperature")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"temperature must be a positive real, got {alpha!r}")
    return expectation(p, u) + alpha * entropy(p)


def control_temperature(alpha) -> Temperature:
    """alpha as a control temperature: a positive real or the zero / +inf
    limit. Negative values and the -inf limit raise DomainError."""
    t = Temperature.coerce(alpha)
    if t.is_neg_inf or (t.is_finite and t.value < 0.0):
        raise DomainError(
            f"control temperature must be non-negative or 'inf', got {t.spell()}"
        )
    return t


def bounded_control(prior: FiniteDistribution, u_star: UtilityTable, alpha) -> FiniteDistribution:
    """Maximizer of Σ P·u_star − α·KL(P‖prior) over distributions P.

    The solution is the prior tilted by exp(u_star/α); its support never
    exceeds the prior's. alpha = zero limit: all mass moves uniformly onto
    the arg-max of u_star within support(prior) (deviation is free).
    alpha = +inf limit: the prior is returned unchanged (deviation is
    infinitely expensive).
    """
    return exponential_tilt(prior, u_star, control_temperature(alpha).reciprocal()).policy


@dataclass(frozen=True)
class FreeUtilityReport:
    """Decomposition of a policy change into utility gained and information paid.

    total = expected_utility − information_cost, where information_cost is
    α·achieved_kl (achieved_kl in nats).
    """

    expected_utility: float
    information_cost: float
    total: float
    achieved_kl: float


def free_utility_difference(
    prior: FiniteDistribution,
    posterior: FiniteDistribution,
    u_star: UtilityTable,
    alpha: float,
) -> FreeUtilityReport:
    """Score a move from prior to posterior: utility minus α-weighted KL cost.

    Requires support(posterior) ⊆ support(prior); maximized over posteriors
    by bounded_control(prior, u_star, alpha). A cost or total past the float
    range raises DomainError.
    """
    _require(prior, FiniteDistribution, "prior")
    _require(posterior, FiniteDistribution, "posterior")
    _require(u_star, UtilityTable, "u_star")
    alpha = _real(alpha, "temperature")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"temperature must be a positive real, got {alpha!r}")
    kl = kl_divergence(posterior, prior)
    expected = expectation(posterior, u_star)
    cost = _finite(alpha * kl, "the information cost")
    return FreeUtilityReport(expected, cost, _finite(expected - cost, "the total"), kl)
