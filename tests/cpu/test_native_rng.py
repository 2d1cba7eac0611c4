"""The native kernel's MT19937 against a live :class:`random.Random`.

Engine ``native`` must draw exactly the words CPython draws, so each
C entry point is checked against the same method of a ``random.Random``
started from the same state: no stored vectors, just the interpreter
itself as the oracle.
"""

import random

import pytest

from repro.cpu import native

pytestmark = pytest.mark.skipif(
    native.LIB is None, reason=f"native kernel unavailable: {native.REASON}"
)

SEEDS = (0, 1, 2007, 2**40 + 17)


def _pair(seed):
    """A live generator and a C copy of its state."""
    rng = random.Random(seed)
    rng.random()  # start mid-block, not at a fresh twist
    mt = native.FFI.new("mt_t *")
    native.set_mt(mt, rng.getstate())
    return rng, mt


@pytest.mark.parametrize("seed", SEEDS)
def test_random(seed):
    rng, mt = _pair(seed)
    # 1500 doubles = 3000 words: crosses several 624-word twists.
    assert [native.LIB.mt_random(mt) for _ in range(1500)] == [
        rng.random() for _ in range(1500)
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_getrandbits_every_width(seed):
    rng, mt = _pair(seed)
    for k in range(1, 33):
        for _ in range(40):
            assert native.LIB.mt_getrandbits(mt, k) == rng.getrandbits(k), k


@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_around_powers_of_two(seed):
    rng, mt = _pair(seed)
    bounds = [1, 2**32 - 1]
    for k in range(1, 32):
        bounds += [2**k - 1, 2**k, 2**k + 1]
    for n in bounds:
        for _ in range(20):
            assert native.LIB.mt_randbelow(mt, n) == rng._randbelow(n), n


@pytest.mark.parametrize("seed", SEEDS)
def test_expovariate(seed):
    rng, mt = _pair(seed)
    for lambd in (1.0, 0.25, 1.0 / 3.5, 7.0):
        for _ in range(200):
            assert native.LIB.mt_expovariate(mt, lambd) == rng.expovariate(lambd)


@pytest.mark.parametrize("seed", SEEDS)
def test_state_round_trip(seed):
    """Draws made in C leave the state Python would have."""
    rng, mt = _pair(seed)
    for _ in range(1000):
        native.LIB.mt_random(mt)
        rng.random()
    copy = random.Random()
    copy.setstate(native.get_mt(mt, rng.getstate()))
    assert copy.getstate() == rng.getstate()
    assert copy.random() == rng.random()
