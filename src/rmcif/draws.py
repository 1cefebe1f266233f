"""Seeded draws from the standard library's Mersenne Twister.

Every random integer, coin and order the package draws is built here
from `random.Random.random()` alone.  Python documents that `random()`
gives the same sequence for the same seed across versions ("Notes on
Reproducibility" in the `random` module documentation); it makes no
such promise for `randrange`, `shuffle`, `sample` or `getrandbits`, so
none of them is used.

`random()` returns ``k / 2**53`` for a uniform 53-bit integer k, so
``int(random() * 2**30)``, the top 30 bits of k, is a uniform 30-bit
integer.  `below` maps whole chunks of 30 bits onto ``0..n-1`` by
rejection, which is exactly uniform for every bound; 30 bits keep the
arithmetic on CPython's one-digit integers for every bound a list
length can take.  `scan` is a Fisher–Yates shuffle run from the front
(Knuth, *TAOCP* vol. 2, §3.4.2, Algorithm P, which runs from the back),
so it can draw each position only when its caller asks for it.
"""
from __future__ import annotations

from random import Random

from .core import check_integer

# random() is k / 2**53 for a uniform integer k in 0 .. 2**53 - 1, so
# int(random() * _SCALE) is the top 30 bits of k: uniform on 0 .. _SPAN - 1
_SPAN = 2**30
_SCALE = float(_SPAN)


def make_rng(seed: int) -> Random:
    """The generator for `seed`: the same seed gives the same draws on every
    Python version, so a seeded run writes the same `.sol` bytes anywhere."""
    return Random(check_integer(seed, "seed"))


def below(rand, n: int) -> int:
    """A uniform integer in ``0..n-1`` (n >= 1), from the uniforms `rand` returns.

    One 30-bit chunk covers n up to 2**30, and more are joined above that.
    Of the ``span`` chunk values, the first ``q·n`` (q = span // n) are
    kept and k // q is returned, so each result has exactly q of them; any
    other value is drawn again, which happens with probability below
    n / span.
    """
    if n <= _SPAN:
        q = _SPAN // n
        limit = q * n
        k = int(rand() * _SCALE)
        while k >= limit:
            k = int(rand() * _SCALE)
        return k // q
    span, chunks = _SPAN, 1
    while span < n:
        span, chunks = span * _SPAN, chunks + 1
    q = span // n
    while True:
        k = 0
        for _ in range(chunks):
            k = k * _SPAN + int(rand() * _SCALE)
        if k < q * n:
            return k // q


def scan(rand, n: int):
    """``0..n-1`` in a uniform random order, each drawn when it is asked for.

    Step i swaps a uniform pick from the positions i..n-1 into place i and
    yields it; the last position needs no draw, so fewer than two
    positions draw nothing.  A caller that stops early has drawn exactly
    the prefix of the order a scan run to its end gives.
    """
    order = list(range(n))
    for i in range(n - 1):
        j = i + below(rand, n - i)
        pick = order[j]
        order[j] = order[i]
        yield pick
    if n:
        yield order[-1]
