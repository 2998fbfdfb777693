from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralcalc.combinatorics import (
    bell_partial,
    binomial_row,
    stirling_first_classical,
    stirling_second_classical,
)
from umbralcalc.poly import Poly, X, Y
from umbralcalc.umbra import bell_umbra, bernoulli_umbra

import oracles
from oracles import Partition, bell_complete, falling_factorial, partition_coefficient, partitions_of

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=10)


# -- oracles -----------------------------------------------------------------


def brute_partitions(i):
    if i == 0:
        return [()]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(i, i, [])
    return out


def set_partitions(elements):
    """All set partitions of a list, as lists of blocks."""
    if not elements:
        return [[]]
    first, rest = elements[0], elements[1:]
    out = []
    for smaller in set_partitions(rest):
        out.append([[first]] + smaller)
        for i in range(len(smaller)):
            out.append(smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :])
    return out


# -- binomial / falling factorial --------------------------------------------


def test_binomial_examples():
    assert binomial_row(5, 2) == [1, 5, 10]
    assert binomial_row(5, 0) == [1]
    assert binomial_row(-2, 2)[2] == 3
    with pytest.raises(ValueError):
        binomial_row(5, -1)


def test_binomial_pascal_recurrence():
    rows = [binomial_row(n, n + 1) for n in range(21)]  # one entry past the top, which is 0
    for n in range(1, 21):
        for k in range(1, n + 1):
            assert rows[n][k] == rows[n - 1][k - 1] + rows[n - 1][k]


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=45))
def test_binomial_integer_matches_falling_factorial(n, k):
    """An integer row agrees with (n)_k / k! and math.comb, including 0 for k > n."""
    assert binomial_row(n, k)[k] == falling_factorial(n, k) / factorial(k) == comb(n, k)


def test_binomial_poly_argument():
    assert binomial_row(X, 2)[2] == (X**2 - X) / 2
    assert binomial_row(X + 1, 1)[1] == X + 1


@settings(max_examples=60)
@given(
    st.one_of(
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
        st.fractions(min_value=-6, max_value=6, max_denominator=5).map(lambda c: X + c),
        st.just(X + Y),
    ),
    st.integers(min_value=0, max_value=12),
)
def test_binomial_row_matches_falling_factorial(a, m):
    row = binomial_row(a, m)
    assert len(row) == m + 1
    for j, entry in enumerate(row):
        assert entry == falling_factorial(a, j) / factorial(j)


def test_falling_factorial():
    assert falling_factorial(X, 3) == X**3 - 3 * X**2 + 2 * X
    assert falling_factorial(F(7, 2), 0) == 1
    assert falling_factorial(3, 4) == 0


# -- partitions ---------------------------------------------------------------


def test_partitions_order_and_small_cases():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(1)] == [(1,)]
    assert [p.parts for p in partitions_of(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("i", range(9))
def test_partitions_match_brute_force(i):
    assert [p.parts for p in partitions_of(i)] == brute_partitions(i)


def test_partition_multiplicity_consistency():
    for p in partitions_of(7):
        mult = p.multiplicities()
        assert sum(j * r for j, r in mult.items()) == 7
        assert sum(mult.values()) == p.length


def test_partition_coefficient_examples():
    assert partition_coefficient(Partition((1, 1, 1, 1))) == 1
    assert partition_coefficient(Partition((2, 1, 1))) == 6
    assert partition_coefficient(Partition((2, 2))) == 3
    with pytest.raises(ValueError):
        partition_coefficient(Partition(()))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


# -- Bell polynomials ----------------------------------------------------------
#
# bell_partial is the production kernel wrapper; bell_complete and the
# partition sums are the oracles of tests/oracles.py.


def test_bell_partial_examples():
    assert bell_partial(3, 2, [1, 2]) == 6
    assert bell_partial(4, 4, [1]) == 1
    assert bell_partial(4, 2, [1, 1, 1]) == 7
    with pytest.raises(ValueError):
        bell_partial(3, 4, [1, 1, 1])
    with pytest.raises(ValueError):
        bell_partial(3, 0, [1, 1, 1])


def test_bell_complete_examples():
    assert bell_complete(1, [F(7)]) == 7
    assert bell_complete(3, [1, 1, 1]) == 5
    assert bell_complete(4, [1, 1, 1, 1]) == 15
    with pytest.raises(ValueError):
        bell_complete(0, [])


@pytest.mark.parametrize("i", range(1, 11))
def test_bell_all_ones_counts_set_partitions(i):
    """sum_j B_{i,j}(1,..) = Y_i(1,..) = number of set partitions of an i-set."""
    parts = set_partitions(list(range(i)))
    by_blocks = {}
    for p in parts:
        by_blocks[len(p)] = by_blocks.get(len(p), 0) + 1
    for j in range(1, i + 1):
        assert bell_partial(i, j, [1] * i) == by_blocks.get(j, 0)
    assert bell_complete(i, [1] * i) == len(parts)


@given(st.lists(fractions, min_size=10, max_size=10))
def test_partition_coefficient_bridges_to_bell(a):
    """sum over partitions of fixed length of d * prod a equals B_{i,j}."""
    for i in range(1, 8):
        for j in range(1, i + 1):
            total = F(0)
            for p in partitions_of(i):
                if p.length != j:
                    continue
                prod = partition_coefficient(p)
                for part in p.parts:
                    prod *= a[part - 1]
                total += prod
            assert total == bell_partial(i, j, a)


def test_partition_coefficient_bridge_symbolic():
    """Same bridge with symbolic entries a_m = x + m, checked as polynomials."""
    a = [X + m for m in range(1, 11)]
    for i in range(1, 11):
        for j in range(1, i + 1):
            total = X * 0
            for p in partitions_of(i):
                if p.length != j:
                    continue
                prod = partition_coefficient(p) * X**0
                for part in p.parts:
                    prod = prod * a[part - 1]
                total = total + prod
            assert total == bell_partial(i, j, a)


def bell_arguments():
    """(i, j, a): 1 <= j <= i <= 12, a holding exactly a_1..a_{i-j+1} or more,
    with rational or polynomial (in x, y) entries and many zeros."""
    entries = st.one_of(
        st.just(F(0)),
        fractions,
        st.builds(lambda c, cx, cy: Poly({(0, 0): c, (1, 0): cx, (0, 1): cy}), fractions, fractions, fractions),
    )
    return (
        st.integers(min_value=1, max_value=12)
        .flatmap(lambda i: st.tuples(st.just(i), st.integers(min_value=1, max_value=i)))
        .flatmap(
            lambda ij: st.tuples(
                st.just(ij[0]),
                st.just(ij[1]),
                st.integers(min_value=ij[0] - ij[1] + 1, max_value=ij[0] + 2).flatmap(
                    lambda n: st.lists(entries, min_size=n, max_size=n)
                ),
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(bell_arguments())
def test_bell_partial_matches_partition_oracle(args):
    """The kernel's B_{i,j} (moment i of h^j/j!) equals the partition sum."""
    i, j, a = args
    assert bell_partial(i, j, a) == oracles.bell_partial(i, j, a)


def test_bell_partial_short_polynomial_arguments():
    a = [X + m * Y for m in range(1, 13)]
    for i in range(1, 13):
        for j in range(1, i + 1):
            short = a[: i - j + 1]
            assert bell_partial(i, j, short) == oracles.bell_partial(i, j, short), (i, j)


# -- Stirling triangles --------------------------------------------------------


def test_stirling_examples():
    assert stirling_second_classical(4, 2) == 7
    assert stirling_first_classical(4, 2) == 11
    assert stirling_first_classical(3, 2) == -3
    assert all(stirling_second_classical(n, n) == 1 for n in range(10))
    assert stirling_second_classical(3, 5) == 0
    assert stirling_first_classical(3, 5) == 0


def test_stirling_orthogonality():
    for n in range(11):
        for m in range(11):
            total = sum(
                stirling_first_classical(n, k) * stirling_second_classical(k, m)
                for k in range(n + 1)
            )
            assert total == (1 if n == m else 0)


# -- number sequences ----------------------------------------------------------


def test_bernoulli_numbers():
    assert bernoulli_umbra(4).moments == (1, F(-1, 2), F(1, 6), 0, F(-1, 30))
    assert bernoulli_umbra(3).moment(3) == 0
    # defining relation: sum_k C(n,k) B_k = B_n for n != 1
    b = bernoulli_umbra(12).moments
    for n in range(12):
        if n == 1:
            continue
        assert sum(comb(n, k) * b[k] for k in range(n + 1)) == b[n]


def test_bell_and_bernoulli_umbrae_match_the_classical_recurrences():
    """exp(e^t - 1) and t/(e^t - 1) on the kernel give the recurrences' values at every order."""
    bell, bern = oracles.bell_numbers(64), oracles.bernoulli_numbers(64)
    for n in range(65):
        assert bell_umbra(n).moments == tuple(bell[: n + 1])
        assert bernoulli_umbra(n).moments == tuple(bern[: n + 1])


def test_bell_numbers_against_set_partition_oracle():
    values = bell_umbra(8).moments
    for i in range(9):
        assert values[i] == len(set_partitions(list(range(i))))
