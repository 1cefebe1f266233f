"""Batched draws read the same random stream as the calls they replace.

`compose` draws both scan orders with one `Generator.permuted` call, and
the evolutionary loop draws both parents' tournament uniforms with one
``rng.random(2 * size)`` call.  Each must give what the former pair of
calls gave and leave the generator where they left it, or every ec1..ec9
trajectory would move.
"""
from __future__ import annotations

from operator import lt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmcif.heuristics import _tournament, make_rng


def assert_same_stream(a, b):
    assert a.integers(0, 2**31, 4).tolist() == b.integers(0, 2**31, 4).tolist()


@pytest.mark.parametrize("seed", range(3))
def test_both_scan_orders_from_one_call(seed):
    batched, paired = make_rng(seed), make_rng(seed)
    for target in range(1, 101):
        # the coin `compose` flips first, then the two orders
        assert batched.integers(0, 2) == paired.integers(0, 2)
        orders = batched.permuted(np.arange(target)[None].repeat(2, 0), axis=1).tolist()
        assert orders == [paired.permutation(target).tolist(), paired.permutation(target).tolist()]
    assert_same_stream(batched, paired)


@given(st.lists(st.integers(0, 12), min_size=1, max_size=40), st.integers(1, 8), st.integers(0, 10_000))
def test_both_parents_from_one_draw(costs, tournament_size, seed):
    population = [("m", c, (c,)) for c in costs]
    batched, paired = make_rng(seed), make_rng(seed)
    size = min(tournament_size, len(population))
    uniforms = batched.random(2 * size).tolist()
    parents = [_tournament(population, lt, uniforms[:size]), _tournament(population, lt, uniforms[size:])]
    assert parents == [_tournament(population, lt, paired.random(size).tolist()) for _ in "ab"]
    assert_same_stream(batched, paired)
