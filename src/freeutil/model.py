"""Finite probabilistic vocabulary shared by every solver in the package.

Distributions, utility tables, staged decision problems, decision trees and
temperature parameters, plus the three elementary information measures
(entropy, KL divergence, expectation). Everything is immutable after
construction and every operation is a pure function, so all of it is safe to
call from concurrent code without coordination.

All information quantities are in nats (natural log); the CLI offers a
display-only bits conversion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

# Normalization tolerance applied once at ingestion; after construction a
# distribution is treated as exact.
NORMALIZATION_TOL = 1e-9

# Two utilities within this of the maximum count as tied when a limit
# concentrates mass on the maximal set.
ARGMAX_TIE_TOL = 1e-12


class FreeUtilError(Exception):
    """Base class for every error raised by this package."""


class NegativeProbability(FreeUtilError):
    pass


class NotNormalized(FreeUtilError):
    pass


class DuplicateLabel(FreeUtilError):
    pass


class SupportMismatch(FreeUtilError):
    pass


class LabelMismatch(FreeUtilError):
    pass


class DomainError(FreeUtilError):
    pass


class EmptySupport(FreeUtilError):
    pass


class UnknownAction(FreeUtilError):
    pass


class UnsupportedRegime(FreeUtilError):
    pass


class CyclicTree(FreeUtilError):
    pass


class UnknownTemperatureTag(FreeUtilError):
    pass


class TooManyOutcomes(FreeUtilError):
    pass


class TooLarge(FreeUtilError):
    pass


class TooManyPaths(FreeUtilError):
    pass


def _finite(result: float, what: str) -> float:
    """result, unless it is past the float range (or NaN): then DomainError."""
    if not math.isfinite(result):
        raise DomainError(f"{what} is not a finite number: {result!r}")
    return result


def _fsum(terms: list[float]) -> float:
    """math.fsum of finite terms. Where a partial sum passes the float
    range, which raises in math.fsum, twice the math.fsum of the halved
    terms, exact at that scale: the sum, or ±inf for a sum past the range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return 2.0 * math.fsum([x * 0.5 for x in terms])


def _real(x, what: str) -> float:
    """x as float() reads it; anything float() cannot convert (None, a
    non-numeric string, an int past the float range) raises DomainError
    naming its type."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a real number, got {type(x).__name__}") from None


def _require(value, cls: type, what: str):
    """value, unless it is not a cls: then DomainError naming what."""
    if not isinstance(value, cls):
        raise DomainError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _reals(values, what: str) -> list[float]:
    """A sequence or an ndarray as a list of floats, each as float() reads
    it; anything else raises DomainError."""
    try:
        return list(map(float, values.tolist() if isinstance(values, np.ndarray) else values))
    except (TypeError, ValueError, OverflowError) as e:
        raise DomainError(f"{what} must be a sequence of real numbers: {e}") from None


def _check_distribution(outcomes: Sequence[str], probs: Sequence[float]) -> float:
    """Raise the first violated distribution invariant; return math.fsum(probs)."""
    if len(outcomes) != len(probs):
        raise LabelMismatch(
            f"{len(outcomes)} labels but {len(probs)} probabilities"
        )
    if len(outcomes) == 0:
        raise EmptySupport("a distribution needs at least one outcome")
    if len(set(outcomes)) != len(outcomes):
        seen: set[str] = set()
        for label in outcomes:
            if label in seen:
                raise DuplicateLabel(f"duplicate outcome label {label!r}")
            seen.add(label)
    if not (all(map(math.isfinite, probs)) and min(probs) >= 0.0):
        for label, p in zip(outcomes, probs):
            if not math.isfinite(p):
                raise DomainError(f"probability of {label!r} is not finite: {p!r}")
            if p < 0.0:
                raise NegativeProbability(f"probability of {label!r} is {p}")
    try:
        total = math.fsum(probs)
    except OverflowError:  # finite terms whose sum leaves the float range
        total = math.inf
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}, expected 1")
    return total


def _aligned(
    outcomes: Sequence[str], values: Sequence[float], target: Sequence[str]
) -> np.ndarray:
    """values, labelled by outcomes, reordered to the target label order; the
    two label sets must agree."""
    if tuple(target) == tuple(outcomes):
        return np.asarray(values, dtype=float)
    if set(target) != set(outcomes):
        raise LabelMismatch(
            f"label sets differ: {sorted(set(outcomes))} vs {sorted(set(target))}"
        )
    index = {o: i for i, o in enumerate(outcomes)}
    return np.asarray([values[index[o]] for o in target], dtype=float)


class LazyMapping(Mapping):
    """A read-only mapping whose dict a function builds on first read."""

    __slots__ = ("_build", "_dict")

    def __init__(self, build):
        self._build = build
        self._dict = None

    def _items(self) -> dict:
        if self._dict is None:
            self._dict = self._build()
        return self._dict

    def __getitem__(self, key):
        return self._items()[key]

    def __iter__(self):
        return iter(self._items())

    def __len__(self) -> int:
        return len(self._items())

    def __repr__(self) -> str:
        return repr(self._items())


class _FlatStore:
    """An immutable problem held in arrays. _FIELDS name the parameters of
    the class's _fill, which hold its whole value: _from_arrays rebuilds a
    problem from them, equality compares them (arrays entry by entry),
    hashing uses those that are not arrays, and pickling rebuilds from them."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    @classmethod
    def _from_arrays(cls, *fields):
        """A problem from its fields, which already hold every invariant."""
        store = cls.__new__(cls)
        store._fill(*fields)
        return store

    def _freeze(self, *values) -> None:
        """Set the slots, in order, to values; arrays among them become read-only."""
        for name, value in zip(self.__slots__, values, strict=True):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self._FIELDS))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable problem")

    def __reduce__(self):
        return type(self)._from_arrays, self._fields()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = zip(self._fields(), other._fields())
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def __hash__(self) -> int:
        return hash(tuple(f for f in self._fields() if not isinstance(f, np.ndarray)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._FIELDS)
        return f"{type(self).__name__}({fields})"


@dataclass(frozen=True)
class FiniteDistribution:
    """Normalized probability vector over an ordered list of opaque labels.

    Probabilities are validated (nonnegative, summing to 1 within 1e-9,
    unique labels) and renormalized exactly once here; afterwards they are
    treated as exact. Label order is the ingestion order and is the
    deterministic tie-break order everywhere downstream.
    """

    outcomes: tuple[str, ...]
    probs: tuple[float, ...]

    def __init__(self, outcomes: Sequence[str], probs: Sequence[float]):
        outcomes = tuple(outcomes)
        probs_list = _reals(probs, "probabilities")
        total = _check_distribution(outcomes, probs_list)
        object.__setattr__(self, "outcomes", outcomes)
        # Dividing by exactly 1.0 changes no bit, so it is skipped.
        if total != 1.0:
            probs_list = [p / total for p in probs_list]
        object.__setattr__(self, "probs", tuple(probs_list))

    @classmethod
    def _trusted(cls, outcomes: Sequence[str], probs: Sequence[float]) -> "FiniteDistribution":
        """A distribution from labels and probabilities that already passed
        the checks and the one normalisation, kept bit for bit."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "outcomes", tuple(outcomes))
        object.__setattr__(dist, "probs", tuple(probs))
        return dist

    @classmethod
    def uniform(cls, outcomes: Sequence[str]) -> "FiniteDistribution":
        n = len(outcomes)
        return cls(outcomes, [1.0 / n] * n if n else [])  # no outcome: EmptySupport

    @classmethod
    def point_mass(cls, outcomes: Sequence[str], label: str) -> "FiniteDistribution":
        if label not in outcomes:
            raise LabelMismatch(f"label {label!r} not among outcomes")
        return cls(outcomes, [1.0 if o == label else 0.0 for o in outcomes])

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> "FiniteDistribution":
        return cls(tuple(mapping.keys()), tuple(mapping.values()))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def prob(self, label: str) -> float:
        try:
            return self.probs[self.outcomes.index(label)]
        except ValueError:
            raise LabelMismatch(f"unknown outcome label {label!r}") from None

    def support(self) -> tuple[str, ...]:
        return tuple(o for o, p in zip(self.outcomes, self.probs) if p > 0.0)

    def as_mapping(self) -> dict[str, float]:
        return dict(zip(self.outcomes, self.probs))

    def __len__(self) -> int:
        return len(self.outcomes)


def validate(dist: FiniteDistribution) -> None:
    """Re-check the distribution invariants, raising the specific violation.

    Construction already enforces them; this re-checks an instance that may
    have been produced by deserialization or test plumbing.
    """
    _require(dist, FiniteDistribution, "dist")
    _check_distribution(dist.outcomes, dist.probs)


@dataclass(frozen=True)
class UtilityTable:
    """Real-valued utility per outcome label, on an arbitrary scale.

    Only differences of utilities carry meaning for the solvers (adding a
    constant never changes a policy), so no normalization is applied. Values
    must be finite; label order follows ingestion order.
    """

    outcomes: tuple[str, ...]
    values: tuple[float, ...]

    def __init__(self, outcomes: Sequence[str], values: Sequence[float]):
        outcomes = tuple(outcomes)
        vals = tuple(_reals(values, "utilities"))
        if len(outcomes) != len(vals):
            raise LabelMismatch(f"{len(outcomes)} labels but {len(vals)} values")
        if len(set(outcomes)) != len(outcomes):
            raise DuplicateLabel("duplicate outcome label in utility table")
        if not all(map(math.isfinite, vals)):
            for label, v in zip(outcomes, vals):
                if not math.isfinite(v):
                    raise DomainError(f"utility of {label!r} is not finite: {v!r}")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> "UtilityTable":
        return cls(tuple(mapping.keys()), tuple(mapping.values()))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def value(self, label: str) -> float:
        try:
            return self.values[self.outcomes.index(label)]
        except ValueError:
            raise LabelMismatch(f"unknown outcome label {label!r}") from None

    def aligned_to(self, outcomes: Sequence[str]) -> np.ndarray:
        """Values reordered to the given label order; label sets must agree."""
        return _aligned(self.outcomes, self.values, outcomes)

    def shifted(self, constant: float) -> "UtilityTable":
        constant = _real(constant, "the shift")
        return UtilityTable(self.outcomes, [v + constant for v in self.values])

    def __len__(self) -> int:
        return len(self.outcomes)


# The offsets of a single segment covering a whole array.
_WHOLE = np.zeros(1, dtype=np.intp)


# Edges per block of whole rows, in the backup's block tilts and the file
# reader's block checks. value_recursion tilts a level a block at a time, at
# most this many edges (a longer row alone), so no temporary grows with the
# tree; problemio's hook checks a tree's rows in blocks of at least this many
# edges, and its two-stage reader a table's in blocks of at most this many;
# _extracted_sums sums whole rows of at most this many entries at a time.
_BLOCK_EDGES = 1 << 14

# Calls whose rows share one width of at least this many entries (and at
# most _BLOCK_EDGES) sum them by array extraction, _extracted_sums; other
# rows take a math.fsum each. The array path has a fixed cost per call and a
# small one per entry, math.fsum a cost per row and a larger one per entry:
# on rows of normalised weights, a call of 64 rows costs the same either way
# at this width. Narrower rows, such as a ternary tree's, keep math.fsum.
_ARRAY_ROW_WIDTH = 16


def _row_sums(flat, starts) -> np.ndarray:
    """math.fsum of every segment of a flat float array, bit for bit: the
    exact sum rounded half-even. Segments of one width of at least
    _ARRAY_ROW_WIDTH are summed by _extracted_sums; every other segment,
    and every one it leaves unsure, takes math.fsum, read through a
    memoryview slice, which iterates as Python floats, in segment order.
    No segment whose math.fsum raises is sure, so the first such segment
    raises its error: a sum past the float range OverflowError, inf + -inf
    ValueError."""
    n, k = len(flat), len(starts)
    w = n // max(k, 1)
    if (_ARRAY_ROW_WIDTH <= w <= _BLOCK_EDGES and n == k * w
            and (k == 1 or (np.diff(starts) == w).all())):
        sums, sure = _extracted_sums(flat.reshape(k, w))
        unsure = np.flatnonzero(~sure).tolist()
    else:
        sums, unsure = np.empty(k), range(k)
    if unsure:
        bounds, rows = starts.tolist() + [n], memoryview(flat)
        for i in unsure:
            sums[i] = math.fsum(rows[bounds[i]:bounds[i + 1]])
    return sums


def _extracted_sums(table):
    """The sum of every row of a float matrix, and whether it is sure to be
    the row's math.fsum, by two error-free extractions (Rump, Ogita and
    Oishi, "Accurate floating-point summation part I", SIAM J. Sci. Comput.
    31(1), 2008), a chunk of at most _BLOCK_EDGES entries at a time in two
    reused scratch matrices.

    For a row of width w, 2**m >= w + 2, and sigma a power of two with
    sigma >= 2**m * max|x|, q = (sigma + x) - sigma is x rounded to a
    multiple of 2**-53 * sigma, and r = x - q its exact rest, |r| <=
    2**-53 * sigma; the q of a row sum exactly to tau1 in any order, as
    every partial sum is such a multiple below sigma. The same with
    sigma * 2**(m - 53) on r gives tau2 and rests r2, so the row's sum is
    exactly tau1 + tau2 + sum(r2). Where every r2 is 0, one IEEE addition
    rounds tau1 + tau2 half-even, as math.fsum rounds. Elsewhere s =
    fl(tau1 + tau2) with exact error err (TwoSum) is the rounded sum if
    err +- bound lies strictly inside the half-gaps to s's neighbours, bound
    >= sum|r2| (the float sum of |r2|, whose relative error is below
    w * 2**-53, widened by 2**-20; a sum of subnormals is exact).

    Unsure rows: a zero sum, whose sign math.fsum decides; max|x| not
    finite, or so large that sigma passes the float range; and a row with
    r2 whose s is below 2**-1000, where the half-gaps underflow, or whose
    err +- bound reaches a half-gap. A sigma in the subnormals, or one that
    underflows to 0, extracts exactly too: every partial sum below 2**-1021
    is exact. A sure row's math.fsum cannot raise: its entries are finite,
    and with (w + 2) * max|x| <= 2**1023 no partial sum of math.fsum
    passes the float range.
    """
    k, w = table.shape
    m = (w + 1).bit_length()  # 2**m >= w + 2
    step = _BLOCK_EDGES // w
    scratch = np.empty((2, min(k, step), w))
    top, tau1, tau2, bound = np.empty((4, k))
    # inf and NaN arise in unsure rows only.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, k, step):
            rows, part = table[lo : lo + step], slice(lo, lo + step)
            q, r = scratch[:, : len(rows)]
            np.abs(rows, out=q).max(axis=1, out=top[part])
            exponent = np.frexp(top[part])[1]  # max|x| < 2**exponent
            sigma = np.ldexp(2.0**m, exponent)[:, None]
            np.add(rows, sigma, out=q)
            q -= sigma
            q.sum(axis=1, out=tau1[part])
            np.subtract(rows, q, out=r)
            sigma = np.ldexp(2.0 ** (2 * m - 53), exponent)[:, None]
            np.add(r, sigma, out=q)
            q -= sigma
            q.sum(axis=1, out=tau2[part])
            r -= q
            np.abs(r, out=r).sum(axis=1, out=bound[part])
        s = tau1 + tau2
        sure = (top < 2.0 ** (1023 - m)) & (s != 0.0)  # max|x| < 2**(1023 - m): sigma is finite
        rest = np.flatnonzero(bound != 0.0)
        if len(rest):
            t1, t2, sr, b = tau1[rest], tau2[rest], s[rest], bound[rest] * (1.0 + 2.0**-20)
            after = sr - t1
            err = (t1 - (sr - after)) + (t2 - after)
            sure[rest] &= ((np.abs(sr) >= 2.0**-1000)
                           & (err + b < (np.nextafter(sr, np.inf) - sr) * 0.5)
                           & (err - b > (np.nextafter(sr, -np.inf) - sr) * 0.5))
    return s, sure


def _normalise_rows(flat, starts, skip=False) -> np.ndarray:
    """Divide every segment of a flat float array, in place, by its sum
    from _row_sums, which has the bits of the math.fsum FiniteDistribution
    divides by, as FiniteDistribution normalises; return which segments pass,
    their sum within NORMALIZATION_TOL of 1 (a NaN sum fails). A failing
    segment, or one skip marks (which passes), is left as it is."""
    totals = _row_sums(flat, starts)
    passed = (np.abs(totals - 1.0) <= NORMALIZATION_TOL) | skip
    totals[~passed | skip] = 1.0
    flat /= np.repeat(totals, np.diff(starts, append=len(flat)))
    return passed


def _valid_rows(prior, utility, starts) -> bool:
    """Whether rows in flat arrays pass the checks of UtilityTable and
    FiniteDistribution: finite utilities, and nonnegative priors whose every
    segment normalises, in place, as FiniteDistribution normalises it."""
    try:
        return bool(np.isfinite(utility).all() and (prior >= 0.0).all()
                    and _normalise_rows(prior, starts).all())
    except OverflowError:  # a sum past the float range
        return False


def _row_kls(p, q, starts) -> np.ndarray:
    """KL(p row ‖ q row) in nats for every segment of two flat arrays, where
    q is positive wherever p is: the one relative-entropy kernel. A term
    with p = 0 is 0.0, and a row equal to its q row has every term, and so
    its KL, 0.0."""
    terms = np.ones_like(p)
    with np.errstate(over="ignore"):
        np.divide(p, q, out=terms, where=p > 0.0)
    # Past the float range (a subnormal q entry), the ratio is taken as logs.
    big = np.isinf(terms)
    np.log(terms, out=terms)
    terms[big] = np.log(p[big]) - np.log(q[big])
    terms *= p
    kls = _row_sums(terms, starts)
    kls[kls < 0.0] = 0.0  # as max(kl, 0.0): -0.0 and NaN stay
    return kls


def kl_divergence(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Relative entropy sum(p log p/q) in nats, with 0 log(0/q) = 0: the
    row kernel _row_kls on one row.

    q may put mass outside support(p), but q(x) = 0 with p(x) > 0 is a
    support violation.
    """
    _require(p, FiniteDistribution, "p")
    _require(q, FiniteDistribution, "q")
    p_probs = np.asarray(p.probs, dtype=float)
    q_probs = _aligned(q.outcomes, q.probs, p.outcomes)
    unsupported = (p_probs > 0.0) & (q_probs == 0.0)
    if unsupported.any():
        i = int(unsupported.argmax())
        label = p.outcomes[i]
        raise SupportMismatch(f"p({label!r}) = {p.probs[i]} > 0 but q({label!r}) = 0")
    return _row_kls(p_probs, q_probs, _WHOLE).item()


def entropy(p: FiniteDistribution) -> float:
    """Shannon entropy -sum(p log p) in nats, with 0 log 0 = 0."""
    _require(p, FiniteDistribution, "p")
    total = math.fsum(-pi * math.log(pi) for pi in p.probs if pi > 0.0)
    return max(total, 0.0)


def expectation(p: FiniteDistribution, u: UtilityTable) -> float:
    """Expected utility sum(p * u) under matching labels; a sum past the
    float range raises DomainError."""
    _require(p, FiniteDistribution, "p")
    _require(u, UtilityTable, "u")
    vals = u.aligned_to(p.outcomes)
    return _finite(_fsum([pi * vi for pi, vi in zip(p.probs, vals)]), "the expected utility")


_FINITE = "finite"
_ZERO = "zero"
_POS_INF = "pos_inf"
_NEG_INF = "neg_inf"

_LIMIT_SPELLINGS = {"inf": _POS_INF, "-inf": _NEG_INF, "zero": _ZERO}
_SPELL_BACK = {_POS_INF: "inf", _NEG_INF: "-inf", _ZERO: "zero"}


@dataclass(frozen=True)
class Temperature:
    """A finite real parameter or one of the declared limits (0, +inf, -inf).

    Limits are explicit symbolic cases, never large or small floats, so limit
    semantics carry no tolerance ambiguity. ``zero`` always denotes the
    one-sided limit approached from the parameter's valid side.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in (_FINITE, _ZERO, _POS_INF, _NEG_INF):
            raise DomainError(f"unknown temperature kind {self.kind!r}")
        if self.kind == _FINITE and (
            not math.isfinite(self.value) or self.value == 0.0
        ):
            raise DomainError(
                f"finite temperature must be a nonzero finite real, got {self.value!r}"
            )

    @classmethod
    def finite(cls, value: float) -> "Temperature":
        return cls(_FINITE, _real(value, "a finite temperature"))

    @classmethod
    def zero(cls) -> "Temperature":
        return cls(_ZERO)

    @classmethod
    def pos_inf(cls) -> "Temperature":
        return cls(_POS_INF)

    @classmethod
    def neg_inf(cls) -> "Temperature":
        return cls(_NEG_INF)

    @classmethod
    def coerce(cls, value) -> "Temperature":
        """Canonicalize a float / str / Temperature.

        Float 0.0 becomes the zero limit and float infinities become the
        signed infinite limits, so callers can pass plain numbers. Anything
        float() cannot convert raises DomainError naming its type.
        """
        if isinstance(value, Temperature):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        try:
            v = float(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(
                "temperature must be a number in the float range, a string or a "
                f"Temperature, got {type(value).__name__}"
            ) from None
        if v == 0.0:
            return cls.zero()
        if math.isinf(v):
            return cls.pos_inf() if v > 0 else cls.neg_inf()
        if math.isnan(v):
            raise DomainError("temperature cannot be NaN")
        return cls.finite(v)

    @classmethod
    def parse(cls, text: str) -> "Temperature":
        """Parse the file spelling: a number, or 'inf' / '-inf' / 'zero'."""
        if not isinstance(text, str):
            raise DomainError(f"a temperature spelling must be a str, got {type(text).__name__}")
        token = text.strip()
        if token in _LIMIT_SPELLINGS:
            return cls(_LIMIT_SPELLINGS[token])
        try:
            v = float(token)
        except ValueError:
            raise DomainError(
                f"temperature must be a number or one of 'inf', '-inf', 'zero'; got {text!r}"
            ) from None
        if math.isinf(v) or math.isnan(v):
            raise DomainError(
                f"numeric temperature must be finite; spell limits as 'inf'/'-inf'/'zero', got {text!r}"
            )
        return cls.coerce(v)

    @property
    def is_finite(self) -> bool:
        return self.kind == _FINITE

    @property
    def is_zero(self) -> bool:
        return self.kind == _ZERO

    @property
    def is_pos_inf(self) -> bool:
        return self.kind == _POS_INF

    @property
    def is_neg_inf(self) -> bool:
        return self.kind == _NEG_INF

    @property
    def finite_value(self) -> float:
        if not self.is_finite:
            raise DomainError(f"temperature {self.spell()} is not finite")
        return self.value

    def reciprocal(self) -> "Temperature":
        """1/t with the limit pairing zero <-> +inf (valid-side limits). A
        finite t whose reciprocal overflows (|t| < about 5.6e-309) raises
        DomainError naming t."""
        if self.is_finite:
            if math.isinf(1.0 / self.value):
                raise DomainError(
                    f"temperature {self.value!r} has no finite reciprocal: 1/t overflows"
                )
            return Temperature.finite(1.0 / self.value)
        if self.is_zero:
            return Temperature.pos_inf()
        if self.is_pos_inf:
            return Temperature.zero()
        raise DomainError("reciprocal of the -inf limit is not defined")

    def spell(self) -> str:
        if self.is_finite:
            return format(self.value, ".12g")
        return _SPELL_BACK[self.kind]


@dataclass(frozen=True)
class TemperatureSpec:
    """Inverse-temperature pair (lam, mu) governing a staged problem.

    ``lam`` controls the chooser's own stage and must be a positive finite
    real or the +inf limit; the zero limit is representable (files may spell
    it) but every solver rejects it as an unsupported regime. ``mu`` controls
    the environment stage; any sign is meaningful there, negative values
    model an adversarial environment, so all four cases (finite nonzero,
    zero, +inf, -inf) are accepted.
    """

    lam: Temperature
    mu: Temperature

    def __init__(self, lam, mu):
        lam = Temperature.coerce(lam)
        mu = Temperature.coerce(mu)
        if lam.is_neg_inf:
            raise DomainError("lambda cannot be the -inf limit")
        if lam.is_finite and lam.value < 0:
            raise DomainError(f"finite lambda must be positive, got {lam.value}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)


class ControlProblem(_FlatStore):
    """Single-stage control instance: a default policy plus gain utilities,
    a store of the two (==, hash and repr read them) that holds the depth-1
    tree _fill builds once, _tree: a mu-tagged root over the outcomes,
    solved at mu = 1/alpha."""

    _FIELDS = ("prior", "utility")
    __slots__ = (*_FIELDS, "_tree")

    def __init__(self, prior: FiniteDistribution, utility: UtilityTable):
        _require(prior, FiniteDistribution, "prior")
        _require(utility, UtilityTable, "utility")
        if utility.outcomes != prior.outcomes:
            # Permutations are resolved at ingestion, not here.
            if set(utility.outcomes) != set(prior.outcomes):
                raise LabelMismatch("utility labels do not match prior labels")
            raise LabelMismatch("utility label order must match prior label order")
        self._fill(prior, utility)

    def _fill(self, prior, utility) -> None:
        n = len(prior.outcomes)
        tree = DecisionTree._from_arrays(("root",) + prior.outcomes, [True] + [False] * n,
                                         [n] + [0] * n, prior.array, utility.array)
        self._freeze(prior, utility, tree)

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.prior.outcomes


class TwoStageProblem(_FlatStore):
    """An action stage followed by an outcome stage.

    The system emits an action with default probability prior_action, then
    sees an outcome drawn from the per-action channel row. Utilities attach
    to the action itself and to each (action, outcome) pair.

    The rows are read-only actions × outcomes arrays, channel_matrix and
    utility_matrix, views of the edge arrays of the problem's depth-2 tree,
    which is built with the problem. The constructor keeps no mapping it is
    given. ``channel`` and ``outcome_utility`` map each action to its row as
    a FiniteDistribution and a UtilityTable, built from the arrays on first
    read. _from_arrays rebuilds a problem from its _FIELDS, those of _fill.
    """

    _FIELDS = (
        "actions", "outcomes", "prior_action", "action_utility", "channel_matrix", "utility_matrix"
    )
    __slots__ = (*_FIELDS, "channel", "outcome_utility", "_tree")

    def __init__(
        self,
        actions: Sequence[str],
        outcomes: Sequence[str],
        prior_action: FiniteDistribution,
        channel: Mapping[str, FiniteDistribution],
        action_utility: UtilityTable,
        outcome_utility: Mapping[str, UtilityTable],
    ):
        actions = tuple(actions)
        outcomes = tuple(outcomes)
        if _require(prior_action, FiniteDistribution, "prior_action").outcomes != actions:
            raise LabelMismatch("prior_action labels must equal the action list")
        if _require(action_utility, UtilityTable, "action_utility").outcomes != actions:
            raise LabelMismatch("action_utility labels must equal the action list")
        if set(channel) != set(actions):
            raise LabelMismatch("channel must have exactly one row per action")
        if set(outcome_utility) != set(actions):
            raise LabelMismatch("outcome_utility must have exactly one row per action")
        for a in actions:
            for what, rows, cls in (("channel", channel, FiniteDistribution),
                                    ("outcome_utility", outcome_utility, UtilityTable)):
                if _require(rows[a], cls, f"{what} row for {a!r}").outcomes != outcomes:
                    raise LabelMismatch(f"{what} row for {a!r} must cover the outcome list")
        self._fill(
            actions, outcomes, prior_action, action_utility,
            [channel[a].probs for a in actions], [outcome_utility[a].values for a in actions],
        )

    def _fill(self, actions, outcomes, prior_action, action_utility, channel_matrix, utility_matrix):
        """Set the fields from the labels (held as tuples), the action stage
        and the A×O rows (arrays or lists of rows) stacked after it into the
        edge arrays of the depth-2 tree of sequential.two_stage_to_tree,
        _tree, which the matrices view and the mappings read on first use."""
        actions, outcomes = tuple(actions), tuple(outcomes)
        n, width = len(actions), len(outcomes)
        prior = np.concatenate((prior_action.probs, np.ravel(channel_matrix)))
        utility = np.concatenate((action_utility.values, np.ravel(utility_matrix)))
        matrices = prior[n:].reshape(n, width), utility[n:].reshape(n, width)
        rows = [
            LazyMapping(lambda build=build, m=m: {
                a: build(outcomes, row) for a, row in zip(actions, m.tolist())
            })
            for build, m in zip((FiniteDistribution._trusted, UtilityTable), matrices)
        ]
        sizes = [1, n, n * width]
        tree = DecisionTree._from_arrays(("root",) + actions + outcomes * n,
                                         np.repeat([False, True, False], sizes),
                                         np.repeat([n, width, 0], sizes), prior, utility)
        self._freeze(actions, outcomes, prior_action, action_utility, *matrices, *rows, tree)

    def channel_row(self, action: str) -> FiniteDistribution:
        try:
            return self.channel[action]
        except KeyError:
            raise UnknownAction(f"unknown action {action!r}") from None

    def outcome_utility_row(self, action: str) -> UtilityTable:
        try:
            return self.outcome_utility[action]
        except KeyError:
            raise UnknownAction(f"unknown action {action!r}") from None


# Temperature tags a tree node may carry: which TemperatureSpec entry governs
# the node's backup.
LAMBDA_TAG = "lambda"
MU_TAG = "mu"
_VALID_TAGS = (LAMBDA_TAG, MU_TAG)


@dataclass(frozen=True)
class TreeNode:
    """One node of a decision tree.

    Internal nodes carry a distribution over their children (the default
    transition probabilities), a per-child utility gain for traversing each
    edge, and a temperature tag naming which TemperatureSpec entry governs
    the node. Leaves carry nothing.

    == and repr give what the generated dataclass methods give, and hash
    agrees with ==, children in a set included, but on a cycle, where those
    recurse, == and hash raise CyclicTree. == and hash read one
    explicit-stack pre-order walk, _records, and repr is a recursive writer
    run by _trampoline, so depth is bounded by memory.
    """

    name: str
    children: tuple["TreeNode", ...] = ()
    child_prior: FiniteDistribution | None = None
    child_utility: UtilityTable | None = None
    temperature_tag: str = LAMBDA_TAG

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def _records(self):
        """Per entry of a pre-order walk, children in order, from an
        explicit stack, what the dataclass == compares: a node's class and
        fields and its children container's type and length, or, for
        children that are no sequence, the container itself; a child that is
        not a TreeNode as itself, in a 1-tuple no node's record equals. A
        node met below itself yields its record once more, and CyclicTree is
        raised in place of its children."""
        stack, path = [(self, 0)], {}  # path: the ids of the nodes above the next one, in order
        while stack:
            node, depth = stack.pop()
            while len(path) > depth:
                path.popitem()
            if not isinstance(node, TreeNode):
                yield (node,)
                continue
            kids = node.children
            fields = (node.__class__, node.name, node.child_prior, node.child_utility,
                      node.temperature_tag)
            try:
                below = reversed(kids)
            except TypeError:  # compared as the dataclass == compares it
                yield fields + (kids,)
                continue
            yield fields + (type(kids), len(kids))
            if id(node) in path:
                raise CyclicTree(f"node {node.name!r} is its own ancestor; the structure is not a tree")
            path[id(node)] = None
            stack.extend(zip(below, repeat(depth + 1)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(tuple.__eq__, self._records(), other._records()))

    def __hash__(self) -> int:
        # Children in a set or a frozenset, which compare equal to each
        # other by their members, count by their number.
        return hash(tuple(r[:-1] + (len(r[-1]),) if isinstance(r[-1], (set, frozenset)) else r
                          for r in self._records()))

    def __repr__(self) -> str:
        return _trampoline(_node_repr(self))


def _trampoline(call):
    """The value of call, the generator of a recursive function that yields
    each call it makes to itself and is sent back its value. The suspended
    calls are kept on a list, so depth is bounded by memory."""
    calls, value = [call], None
    while calls:
        try:
            calls.append(calls[-1].send(value))
            value = None
        except StopIteration as done:
            calls.pop()
            value = done.value
    return value


def _node_repr(node: TreeNode):
    """The dataclass repr of node, run by _trampoline."""
    kids = node.children
    head = f"{node.__class__.__qualname__}(name={node.name!r}, children="
    tail = (f", child_prior={node.child_prior!r}, child_utility={node.child_utility!r}, "
            f"temperature_tag={node.temperature_tag!r})")
    if type(kids) is not tuple or not kids:
        return f"{head}{kids!r}{tail}"
    parts = []
    for c in kids:
        parts.append((yield _node_repr(c)) if isinstance(c, TreeNode) else repr(c))
    return f"{head}({', '.join(parts)}{',' if len(kids) == 1 else ''}){tail}"


def _check_node_name(name: str) -> None:
    _require(name, str, "node name")
    if "/" in name:
        raise DomainError(
            f"node name {name!r} contains '/', which separates the names in a node path"
        )


def _sequence(positions: np.ndarray) -> np.ndarray:
    """The index at each position of a permutation given as each index's
    position."""
    sequence = np.empty_like(positions)
    sequence[positions] = np.arange(len(positions))
    return sequence


class DecisionTree(_FlatStore):
    """Finite rooted tree alternating chooser-tagged stages.

    Each internal node's child priors form a FiniteDistribution over the
    child names and each edge carries a utility gain. Node paths (root name,
    then child names joined by '/') identify nodes in results, so no node
    name may contain '/'.

    The tree is stored as level-ordered (breadth-first) arrays, so the
    children of one level are the next level in order. Node i has the name
    names[i], the mu flag is_mu[i] (read back as a tag by tags) and
    n_children[i] children, the nodes from first_child[i] on; the edge into
    node j > 0 is edge j - 1, with the normalised prior prior[j - 1] and the
    utility gain utility[j - 1]. A leaf's tag is checked as any node's is,
    but governs no backup, and its flag is false. _from_arrays, ==, hash,
    repr and pickling read the flags; tags is a view for callers.
    A graph of TreeNodes is an input format only: the constructor checks
    and reads it, and the tree keeps no reference to it.
    """

    _FIELDS = ("names", "is_mu", "n_children", "prior", "utility")
    __slots__ = ("names", "is_mu", "n_children", "first_child", "prior", "utility")

    def __init__(self, root: TreeNode):
        _require(root, TreeNode, "the root of a decision tree")
        # One walk in pre-order, children in order, from an explicit stack,
        # raises the first violation of the tree invariants and files each
        # node under its depth. Nodes of one depth keep their pre-order, so
        # the levels in turn are the breadth-first order.
        levels, seen, stack = [], set(), [(root, 0)]
        while stack:
            node, depth = stack.pop()
            if id(node) in seen:
                raise CyclicTree(f"node {node.name!r} is reachable twice; the structure is not a tree")
            seen.add(id(node))
            _check_node_name(node.name)
            if node.temperature_tag not in _VALID_TAGS:
                raise UnknownTemperatureTag(
                    f"node {node.name!r} has temperature tag {node.temperature_tag!r}; "
                    f"expected one of {_VALID_TAGS}"
                )
            kids = node.children
            if type(kids) is not tuple:
                try:
                    iter(kids)
                except TypeError:
                    raise DomainError(f"the children of {node.name!r} must be iterable, "
                                      f"got {type(kids).__name__}") from None
            if depth == len(levels):
                levels.append([])
            levels[depth].append(node)
            if not kids:
                if node.child_prior is not None or node.child_utility is not None:
                    raise LabelMismatch(f"leaf {node.name!r} must not carry child priors or utilities")
                continue
            for child in kids:
                if not isinstance(child, TreeNode):  # the message is built only for a fault
                    _require(child, TreeNode, f"a child of {node.name!r}")
            names = tuple(map(attrgetter("name"), kids))
            for what, table, cls in (("priors", node.child_prior, FiniteDistribution),
                                     ("utilities", node.child_utility, UtilityTable)):
                if not isinstance(table, cls) or table.outcomes != names:
                    if table is not None:
                        _require(table, cls, f"the child {what} of {node.name!r}")
                    raise LabelMismatch(
                        f"child {what} of {node.name!r} must cover the child names {names}"
                    )
            try:
                below = reversed(kids)
            except TypeError:  # a set, whose order of str names changes with PYTHONHASHSEED
                raise DomainError(f"the children of {node.name!r} must be in a sequence, "
                                  f"got {type(kids).__name__}") from None
            stack.extend(zip(below, repeat(depth + 1)))
        nodes = list(chain.from_iterable(levels))
        internal = [node for node in nodes if node.children]
        n_edges = len(nodes) - 1
        self._fill(
            tuple(node.name for node in nodes),
            [node.temperature_tag == MU_TAG for node in nodes],
            [len(node.children) for node in nodes],
            np.fromiter(
                chain.from_iterable(n.child_prior.probs for n in internal), float, n_edges
            ),
            np.fromiter(
                chain.from_iterable(n.child_utility.values for n in internal),
                float,
                n_edges,
            ),
        )

    def _fill(self, names, is_mu, n_children, prior, utility) -> None:
        n_children = np.asarray(n_children, dtype=np.intp)
        first_child = np.cumsum(n_children) - n_children + 1
        # Not dtype=bool, which reads any nonempty string as true: tags raise TypeError.
        is_mu = np.asarray(is_mu) & (n_children > 0)
        self._freeze(tuple(names), is_mu, n_children, first_child, prior, utility)

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(map((LAMBDA_TAG, MU_TAG).__getitem__, self.is_mu.tolist()))

    def paths(self) -> list[str]:
        """The path of every node, in breadth-first order."""
        parents = np.repeat(np.arange(len(self.names)), self.n_children).tolist()
        paths = [self.names[0]]
        for parent, name in zip(parents, self.names[1:]):
            paths.append(f"{paths[parent]}/{name}")
        return paths

    def level_starts(self) -> list[int]:
        """The index of the first node of each level, then the node count."""
        n = len(self.names)
        starts = [0]
        while starts[-1] < n:
            starts.append(int(self.first_child[starts[-1]]))
        return starts

    def _pre_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Each node's position in pre-order, children in order, and the
        size of its subtree, computed level by level."""
        n = len(self.names)
        size = np.ones(n, dtype=np.intp)
        starts = self.level_starts()
        levels = list(zip(starts[:-2], starts[1:-1], starts[2:]))
        # Subtree sizes, deepest level first; then each child's pre-order
        # position: its parent's, plus one, plus its elder siblings' subtrees.
        for lo, hi, end in reversed(levels):
            parents = lo + np.flatnonzero(self.n_children[lo:hi])
            offsets = self.first_child[parents] - hi
            size[parents] += np.add.reduceat(size[hi:end], offsets)
        pre = np.zeros(n, dtype=np.intp)
        for lo, hi, end in levels:
            parents = lo + np.flatnonzero(self.n_children[lo:hi])
            counts = self.n_children[parents]
            elder = np.cumsum(size[hi:end]) - size[hi:end]
            elder -= np.repeat(elder[self.first_child[parents] - hi], counts)
            pre[hi:end] = np.repeat(pre[parents] + 1, counts) + elder
        return pre, size

    def pre_order(self) -> np.ndarray:
        """The node indices in pre-order, children in order."""
        return _sequence(self._pre_positions()[0])

    def orders(self) -> tuple[np.ndarray, np.ndarray]:
        """The node indices in pre-order and in post-order, children in
        order, computed level by level, each in an array of its own."""
        pre, size = self._pre_positions()
        starts = self.level_starts()
        depth = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        # A node follows its subtree in post-order, and its ancestors no longer
        # precede it.
        return _sequence(pre), _sequence(pre - depth + size - 1)

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.n_children == 0))


@dataclass(frozen=True)
class TreeValue:
    """Per-node values and child policies of a solved decision tree.

    Keys are node paths: the root's name, then child names joined by "/".
    Leaves have value 0 and no policy entry. The results are kept as arrays
    in the tree's breadth-first order, flat_values per node and flat_policy
    per edge, and the two mappings are built from them on first read. Per
    internal node, in the same order, flat_log_z holds the log-partition of
    its tilt (NaN at the infinite limits, where there is none) and flat_kl
    the relative entropy in nats of its policy row, after the row's one
    normalisation, against its prior row: the bits of kl_divergence on the
    two rows.
    """

    values: Mapping[str, float]
    policies: Mapping[str, FiniteDistribution]
    root_path: str
    flat_values: np.ndarray = field(compare=False, repr=False)
    flat_policy: np.ndarray = field(compare=False, repr=False)
    flat_log_z: np.ndarray = field(compare=False, repr=False)
    flat_kl: np.ndarray = field(compare=False, repr=False)

    @property
    def root_value(self) -> float:
        return self.flat_values[0].item()


def _tree_value(tree: DecisionTree, value, policy, log_z, kl) -> TreeValue:
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

    return TreeValue(LazyMapping(values), LazyMapping(policies), names[0], value, policy, log_z, kl)
