"""The evolutionary loop's selection steps against their plain oracles.

`_tournament` maps sampled positions past the excluded index
instead of building a candidate list, and `insert_child` tests each member
against the integer band ``threshold * base // 100`` instead of a
percentage comparison.  On random populations, with ties, zero-cost bests,
every threshold and no excluded member or one, both must
return what the oracles in `tests/oracles.py` return and leave the
generator where the oracles leave it.
"""
from __future__ import annotations

from operator import gt, lt

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rmcif.heuristics import _tournament, insert_child, make_rng

seeds = st.integers(0, 10_000)
# costs from a short range, so ties and zero-cost members are common
costs = st.integers(0, 12)


@st.composite
def populations(draw, min_size=1):
    return [("m", c, (c,)) for c in draw(st.lists(costs, min_size=min_size, max_size=12))]


def exclusions(size):
    """No excluded member, or one index inside the population."""
    return st.none() | st.integers(0, size - 1)


def assert_same_stream(a, b):
    assert a.random(3).tolist() == b.random(3).tolist()


def tournament(population, mode, size, rng, exclude=None):
    """`_tournament` over ``min(size, n)`` uniforms from one draw, as the oracle samples."""
    n = len(population) - (exclude is not None)
    better = {"best": lt, "worst": gt}[mode]
    return _tournament(population, better, rng.random(min(size, n)).tolist(), exclude)


@given(st.data(), populations(), st.sampled_from(("best", "worst")), st.integers(1, 14), seeds)
@settings(max_examples=400)
def test_tournament_matches_the_candidate_list(data, population, mode, size, seed):
    exclude = data.draw(exclusions(len(population)))
    ours, theirs = make_rng(seed), make_rng(seed)
    got = tournament(population, mode, size, ours, exclude)
    assert got == oracles.tournament_select_by_candidates(population, mode, size, theirs, exclude)
    assert_same_stream(ours, theirs)


@given(populations(), st.sampled_from(("best", "worst")), st.integers(1, 4), seeds)
def test_tournament_matches_on_tied_populations(population, mode, size, seed):
    tied = [(flow, 5, (5,)) for flow, _, _ in population]
    ours, theirs = make_rng(seed), make_rng(seed)
    got = tournament(tied, mode, size, ours)
    assert got == oracles.tournament_select_by_candidates(tied, mode, size, theirs)
    assert_same_stream(ours, theirs)


@given(
    populations(),
    costs,
    st.one_of(st.sampled_from((0, 100)), st.integers(0, 100)),
    st.integers(1, 5),
    seeds,
    st.booleans(),
)
@settings(max_examples=400)
def test_insert_child_matches_the_percentage_test(population, cost, threshold, size, seed, zero):
    if zero:  # a zero-cost best
        population[len(population) // 2] = ("m", 0, (0,))
    best = min(range(len(population)), key=lambda i: (population[i][1], i))
    ours, theirs = make_rng(seed), make_rng(seed)
    # insert_child writes into the list it is given, so the oracle sees the original
    copy = list(population)
    got = insert_child(copy, "kid", cost, threshold, size, ours, best, (cost,))
    want = oracles.insert_child_by_similarity(
        population, "kid", cost, threshold, size, theirs, best, (cost,)
    )
    assert got is copy
    assert got == want
    assert_same_stream(ours, theirs)
