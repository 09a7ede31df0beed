"""Sufficient statistics for the unbalanced one-way random-effects layout.

The model has q groups with group effects of variance tau and noise
variance omega. Everything the likelihood depends on is captured by the
distinct group sizes, their multiplicities, the per-size-class mean of
group means, the between-group sums of squares, and the pooled
within-group sum of squares. All quantities are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .errors import InputError, ModelAssumptionError
from .polynomials import rat


def exact_count(value, what: str) -> int:
    """value as an int: an int or an integral Fraction. bool, float and
    fractional values are refused with InputError, not truncated."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise InputError(f"{what} must hold integers, got {value!r:.60}")


def as_fraction(value) -> Fraction:
    """value itself when it is a Fraction, else rat(value)."""
    return value if type(value) is Fraction else rat(value)


def check_layout(groups: int, largest: int) -> None:
    """ModelAssumptionError unless the layout has two or more groups and
    one group of two or more observations: below either, the two variance
    components are not identified."""
    if groups < 2:
        raise ModelAssumptionError("the model needs at least two groups")
    if largest < 2:
        raise ModelAssumptionError(
            "at least one group must have two or more observations")


@dataclass(frozen=True)
class GroupedData:
    """Raw grouped observations; each group is a tuple of Rationals."""

    groups: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.groups:
            raise InputError("no groups supplied")
        if any(len(g) == 0 for g in self.groups):
            raise InputError("empty group in input")
        object.__setattr__(
            self, "groups",
            tuple(tuple(rat(v) for v in g) for g in self.groups))
        check_layout(self.q, max(map(len, self.groups)))

    @property
    def q(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class OneWayStats:
    """Sufficient statistics pooled by distinct group size.

    sizes are strictly increasing; mults[i] counts the groups of size
    sizes[i]; means[i] is the average of the group means in that size
    class; betweenSS[i] is the sum of squared deviations of those group
    means around means[i]; withinSS pools the squared deviations of
    observations around their own group mean.
    """

    sizes: Tuple[int, ...]
    mults: Tuple[int, ...]
    means: Tuple[Fraction, ...]
    betweenSS: Tuple[Fraction, ...]
    withinSS: Fraction

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(
            exact_count(n, "sizes") for n in self.sizes))
        object.__setattr__(self, "mults", tuple(
            exact_count(m, "mults") for m in self.mults))
        object.__setattr__(self, "means", tuple(map(as_fraction, self.means)))
        object.__setattr__(self, "betweenSS",
                           tuple(map(as_fraction, self.betweenSS)))
        object.__setattr__(self, "withinSS", as_fraction(self.withinSS))
        k = len(self.sizes)
        if k == 0:
            raise InputError("no size classes")
        if not (len(self.mults) == len(self.means) == len(self.betweenSS) == k):
            raise InputError("statistic vectors have mismatched lengths")
        if any(n <= 0 for n in self.sizes) or any(m <= 0 for m in self.mults):
            raise InputError("sizes and multiplicities must be positive")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise InputError("sizes must be strictly increasing and distinct")
        if any(b < 0 for b in self.betweenSS) or self.withinSS < 0:
            raise InputError("sums of squares cannot be negative")
        for m, b in zip(self.mults, self.betweenSS):
            if m == 1 and b != 0:
                raise InputError(
                    "a size class with a single group has zero between-group SS")
        check_layout(self.q, max(self.sizes))

    @property
    def M(self) -> int:
        """Number of distinct group sizes."""
        return len(self.sizes)

    @property
    def M2(self) -> int:
        """Number of size classes holding two or more groups."""
        return sum(1 for m in self.mults if m >= 2)

    @property
    def q(self) -> int:
        return sum(self.mults)

    @property
    def N(self) -> int:
        return sum(m * n for m, n in zip(self.mults, self.sizes))


def summarize(data: GroupedData) -> OneWayStats:
    """Pool grouped observations into exact sufficient statistics.

    Groups of equal size share one size class; the class mean is the
    average of the per-group means, the between-group SS measures the
    spread of group means inside the class, and the within-group SS pools
    squared deviations around each group's own mean. The sums run in
    summarize_ints on x = s v, s the lcm of the value denominators.
    """
    s = lcm(*{v.denominator for g in data.groups for v in g})
    return summarize_ints(
        [[v.numerator * (s // v.denominator) for v in g] for g in data.groups],
        s)


def summarize_ints(groups: Sequence[Sequence[int]], s: int) -> OneWayStats:
    """summarize of nonempty groups of x / s, x integers, s > 0. With S_g a
    group total and m groups of size n, mean = sum S_g / (nms), betweenSS =
    (m sum S_g^2 - (sum S_g)^2) / (m n^2 s^2) and withinSS = sum_n sum_g
    (n sum x^2 - S_g^2) / n / s^2, each built as one Fraction."""
    if not groups:
        raise InputError("no groups supplied")
    check_layout(len(groups), max(map(len, groups)))
    by_size, sum_sq = {}, 0
    for xs in groups:
        sum_sq += sum(x * x for x in xs)
        by_size.setdefault(len(xs), []).append(sum(xs))
    classes = [(n, len(ts), sum(ts), sum(x * x for x in ts))
               for n, ts in sorted(by_size.items())]
    big_l = lcm(*by_size)   # withinSS's denominator over s^2
    within = big_l * sum_sq - sum(big_l // n * sq for n, _, _, sq in classes)
    return OneWayStats(
        tuple(c[0] for c in classes), tuple(c[1] for c in classes),
        tuple(Fraction(t, n * m * s) for n, m, t, _ in classes),
        tuple(Fraction(m * sq - t * t, m * n * n * s * s)
              for n, m, t, sq in classes),
        Fraction(within, big_l * s * s))


def multiplicity_profile(sizes_with_repeats: Sequence[int]) -> Tuple[int, List[int], int]:
    """Distinct-size count, multiplicities, and the repeated-class count.

    Args:
        sizes_with_repeats: nonempty list of positive group sizes, one per
            group, repeats allowed.

    Returns:
        (M, mults, M2) with mults ordered by increasing size and
        M2 = #{classes with multiplicity >= 2}.
    """
    if not sizes_with_repeats:
        raise InputError("empty size list")
    ns = [exact_count(n, "group sizes") for n in sizes_with_repeats]
    if any(n <= 0 for n in ns):
        raise InputError("group sizes must be positive")
    counts = {}
    for n in ns:
        counts[n] = counts.get(n, 0) + 1
    sizes = sorted(counts)
    mults = [counts[n] for n in sizes]
    m2 = sum(1 for m in mults if m >= 2)
    return len(sizes), mults, m2


def ml_degree(M: int, M2: int) -> int:
    """Degree of the cancelled ML profile numerator: 3M + M2 - 3."""
    return 3 * M + M2 - 3


def reml_degree(M: int, M2: int) -> int:
    """Degree of the cancelled REML profile numerator: 2M + 2M2 - 3."""
    return 2 * M + 2 * M2 - 3
