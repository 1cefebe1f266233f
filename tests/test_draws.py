"""The package's draws: uniform integers and orders from `random()` alone.

`below` must be exactly uniform for every bound the generator takes,
`scan` must give the order a textbook Fisher–Yates shuffle gives on
every prefix it draws, and seed 0's first draws are pinned, so a change to the stream
(or a Python whose `random()` broke its documented promise) shows here
before it shows in a golden digest.
"""
from __future__ import annotations

from collections import Counter
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmcif import GeneratorSpec, generate
from rmcif.draws import below, make_rng, scan

seeds = st.integers(0, 10_000)
SPAN = 2**30  # the values of one chunk


def fisher_yates(rand, n):
    """The whole order at once, by swaps in place."""
    order = list(range(n))
    for i in range(n - 1):
        j = i + below(rand, n - i)
        order[i], order[j] = order[j], order[i]
    return order


class Fixed:
    """A `random()` whose draws carry the given 30-bit chunks in their top bits.

    Each k comes back as ``(k·2**23 + 2**23 - 1) / 2**53``, with every low
    bit set, so a chunk must ignore the 23 bits below its own.
    """

    def __init__(self, *ks):
        self.ks = list(ks)

    def __call__(self):
        return (self.ks.pop(0) * 2**23 + 2**23 - 1) / 2**53


@given(st.integers(1, 60), seeds)
def test_below_stays_in_range_and_reaches_every_value(n, seed):
    rand = make_rng(seed).random
    seen = Counter(below(rand, n) for _ in range(40 * n))
    assert set(seen) <= set(range(n))
    assert len(seen) == n


@pytest.mark.parametrize("n, critical", [(2, 10.83), (3, 13.82), (5, 18.47), (7, 22.46), (10, 27.88)])
def test_below_frequencies_pass_a_chi_square_bound(n, critical):
    # critical: the chi-square quantile at 0.999 for n - 1 degrees of freedom
    rand = make_rng(0).random
    draws = 20_000
    counts = Counter(below(rand, n) for _ in range(draws))
    expected = draws / n
    chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(n))
    assert chi2 < critical


def test_below_gives_each_value_exactly_its_block():
    # n = 3: q = 2**53 // 3 values of k map to each result, and the
    # remainder above 3q is drawn again
    q = SPAN // 3
    for v in range(3):
        assert below(Fixed(v * q), 3) == v
        assert below(Fixed((v + 1) * q - 1), 3) == v
    rand = Fixed(3 * q, SPAN - 1, 5)
    assert below(rand, 3) == 0 and rand.ks == []


def test_below_joins_chunks_past_2_30():
    # n = 2**30 + 1 needs two chunks; the first value below the limit is kept
    n = SPAN + 1
    span = SPAN * SPAN
    q = span // n
    rand = Fixed(SPAN - 1, SPAN - 1, 1, 2)  # k = span - 1 is past q·n, then k = 2**30 + 2
    assert below(rand, n) == (SPAN + 2) // q and rand.ks == []


@pytest.mark.parametrize("n", [2**62, 2**63 - 1, 2**63])
def test_below_near_2_63_is_in_range_and_balanced(n):
    rand = make_rng(1).random
    values = [below(rand, n) for _ in range(4_000)]
    assert all(0 <= v < n for v in values)
    upper = sum(v >= n // 2 for v in values)
    assert abs(upper - 2_000) < 4 * 32  # four standard errors
    assert len(set(values)) == len(values)


def test_generator_draws_at_its_largest_bound():
    top = 2**63 - 1
    spec = GeneratorSpec((2,), 1, capacity_range=(top - 1, top), cost_range=(0, top), seed=3)
    instance = generate(spec)
    assert set(instance.network.capacities) <= {top - 1, top}
    assert all(0 <= c <= top for c in instance.costs[0])


@given(st.integers(0, 60), seeds)
def test_a_whole_scan_is_a_permutation(n, seed):
    assert sorted(scan(make_rng(seed).random, n)) == list(range(n))


@given(st.integers(0, 60), st.integers(0, 60), seeds)
def test_lazy_scan_is_the_prefix_of_the_full_order(n, k, seed):
    k = min(k, n)
    lazy, full, replay = make_rng(seed), make_rng(seed), make_rng(seed)
    assert list(islice(scan(lazy.random, n), k)) == fisher_yates(full.random, n)[:k]
    # the prefix drew one `below` per position but the last, and no more
    for i in range(min(k, n - 1)):
        below(replay.random, n - i)
    assert lazy.random() == replay.random()


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_positions_draw_nothing(n):
    rng, fresh = make_rng(7), make_rng(7)
    assert list(scan(rng.random, n)) == list(range(n))
    assert rng.random() == fresh.random()


def test_seed_0_first_draws_are_pinned():
    rng = make_rng(0)
    assert [rng.random() for _ in range(3)] == [
        0.8444218515250481, 0.7579544029403025, 0.420571580830845,
    ]
    rand = make_rng(0).random
    assert [below(rand, 10) for _ in range(10)] == [8, 7, 4, 2, 5, 4, 7, 3, 4, 5]
    assert list(scan(rand, 8)) == [7, 4, 3, 6, 2, 5, 0, 1]
    assert below(rand, 2**63) == 9064596079363017511
