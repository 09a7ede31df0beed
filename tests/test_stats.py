"""Unit tests for sufficient statistics and degree formulas."""

import random
from fractions import Fraction

import pytest

from exactvc.errors import InputError, ModelAssumptionError
from exactvc.stats import (
    GroupedData,
    OneWayStats,
    ml_degree,
    multiplicity_profile,
    reml_degree,
    summarize,
)


def test_summarize_hand_example():
    data = GroupedData(((Fraction(1), Fraction(3)),
                        (Fraction(2), Fraction(4), Fraction(6))))
    s = summarize(data)
    assert s.M == 2
    assert s.sizes == (2, 3)
    assert s.mults == (1, 1)
    assert s.means == (Fraction(2), Fraction(4))
    assert s.betweenSS == (Fraction(0), Fraction(0))
    assert s.withinSS == Fraction(10)
    assert s.N == 5
    assert s.q == 2
    assert s.M2 == 0


def test_summarize_pools_equal_sizes():
    data = GroupedData(((1, 3), (5, 7), (2, 4, 6)))
    s = summarize(data)
    assert s.sizes == (2, 3)
    assert s.mults == (2, 1)
    # group means 2 and 6, class mean 4, between SS = 4 + 4
    assert s.means[0] == Fraction(4)
    assert s.betweenSS[0] == Fraction(8)
    assert s.betweenSS[1] == Fraction(0)


def test_summarize_within_matches_two_pass_oracle():
    rng = random.Random(20250819)
    for _ in range(30):
        groups = []
        for _ in range(rng.randrange(2, 6)):
            n = rng.randrange(1, 6)
            groups.append(tuple(Fraction(rng.randrange(-20, 21), 4)
                                for _ in range(n)))
        if all(len(g) == 1 for g in groups):
            groups[0] = groups[0] + (Fraction(1),)
        s = summarize(GroupedData(tuple(groups)))
        # oracle: total SS about group means, computed independently
        oracle = Fraction(0)
        for g in groups:
            gm = sum(g, Fraction(0)) / len(g)
            for v in g:
                oracle += (v - gm) ** 2
        assert s.withinSS == oracle
        assert s.N == sum(len(g) for g in groups)


def test_summarize_permutation_invariant():
    groups = ((1, 5, 3), (2, 2), (7, 1, 4), (9, 9))
    s1 = summarize(GroupedData(groups))
    shuffled = ((9, 9), (4, 7, 1), (2, 2), (3, 1, 5))
    s2 = summarize(GroupedData(shuffled))
    assert s1 == s2


def test_summarize_identical_means_give_zero_between():
    # two groups of size 2 with the same mean
    s = summarize(GroupedData(((0, 4), (1, 3), (5, 6, 7))))
    assert s.betweenSS[0] == 0


def test_grouped_data_rejects_single_group():
    with pytest.raises(ModelAssumptionError):
        GroupedData(((1, 2, 3),))


def test_grouped_data_rejects_all_singletons():
    with pytest.raises(ModelAssumptionError):
        GroupedData(((1,), (2,), (3,)))


def test_grouped_data_rejects_empty():
    with pytest.raises(InputError):
        GroupedData(())
    with pytest.raises(InputError):
        GroupedData(((1, 2), ()))


def test_stats_direct_construction_validates():
    s = OneWayStats((3, 4), (2, 1), (Fraction(1), Fraction(2)),
                    (Fraction(5), Fraction(0)), Fraction(7))
    assert s.M == 2 and s.M2 == 1 and s.N == 10
    with pytest.raises(InputError):
        OneWayStats((4, 3), (1, 1), (0, 0), (0, 0), 1)       # unsorted sizes
    with pytest.raises(InputError):
        OneWayStats((3, 3), (1, 1), (0, 0), (0, 0), 1)       # repeated sizes
    with pytest.raises(InputError):
        OneWayStats((3,), (1,), (0,), (5,), 1)               # B>0 with mult 1
    with pytest.raises(InputError):
        OneWayStats((3,), (2,), (0,), (-1,), 1)              # negative SS
    with pytest.raises(ModelAssumptionError):
        OneWayStats((3,), (1,), (0,), (0,), 1)               # single group
    with pytest.raises(ModelAssumptionError):
        OneWayStats((1,), (4,), (0,), (3,), 0)               # all sizes 1


def test_counts_are_refused_not_truncated():
    # bool, float and fractional counts were once truncated by int()
    means, between = (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))
    for sizes, mults in (((2.9, 3), (1, 1)), ((2, 3), (1, True)),
                         ((2, Fraction(7, 2)), (1, 1))):
        with pytest.raises(InputError, match="must hold integers"):
            OneWayStats(sizes, mults, means, between, Fraction(1))
    s = OneWayStats((Fraction(2), 3), (1, Fraction(4, 2)), means,
                    (Fraction(0), Fraction(1)), Fraction(1))
    assert s.sizes == (2, 3) and s.mults == (1, 2)
    assert all(type(v) is int for v in s.sizes + s.mults)
    for bad in ([2, 3.0], [2, True], [2, Fraction(5, 2)]):
        with pytest.raises(InputError, match="must hold integers"):
            multiplicity_profile(bad)
    assert multiplicity_profile([2, Fraction(4, 2), 3]) == (2, [2, 1], 1)


def test_multiplicity_profile_examples():
    M, mults, M2 = multiplicity_profile([3, 4, 5, 5, 5, 5])
    assert (M, M2) == (3, 1)
    assert sorted(mults) == [1, 1, 4]

    M, mults, M2 = multiplicity_profile([5, 5, 5, 5, 5, 5])
    assert (M, mults, M2) == (1, [6], 1)

    M, mults, M2 = multiplicity_profile([4, 4, 3, 2, 2, 2])
    assert (M, M2) == (3, 2)
    assert sorted(mults) == [1, 2, 3]


def test_multiplicity_profile_errors():
    with pytest.raises(InputError):
        multiplicity_profile([])
    with pytest.raises(InputError):
        multiplicity_profile([2, 0])


def test_degree_formulas():
    assert ml_degree(3, 1) == 7
    assert reml_degree(3, 1) == 5
    assert ml_degree(1, 1) == 1
    assert reml_degree(1, 1) == 1
    assert reml_degree(3, 2) == 7
    q = 5
    assert ml_degree(q, 0) == 3 * q - 3
    assert reml_degree(q, 0) == 2 * q - 3


def test_ml_degree_dominates_reml():
    for M in range(1, 8):
        for M2 in range(0, M + 1):
            ml, reml = ml_degree(M, M2), reml_degree(M, M2)
            assert ml >= reml
            assert (ml == reml) == (M2 == M)
