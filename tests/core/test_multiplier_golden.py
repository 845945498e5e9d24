"""The Fig. 5 multipliers against their frozen pre-folding golden.

``repro.core._raw`` folds constant-zero value lanes out of the
multipliers' abstract additions.  The folding must not change a single
output bit, because ``our_mul`` also backs the verifier's BPF_MUL
transfer and the known-bits domain.
"""

import random

import pytest

from repro.baselines import bitwise_mul_opt, kern_mul
from repro.core._raw import add_mask_raw, add_raw, add_unknown_raw
from repro.core.lattice import enumerate_tnums
from repro.core.multiply import our_mul
from repro.core.tnum import Tnum
from tests.core.frozen_multipliers import (
    frozen_bitwise_mul_opt,
    frozen_kern_mul,
    frozen_our_mul,
)

MULTIPLIERS = {
    "our_mul": (our_mul, frozen_our_mul),
    "kern_mul": (kern_mul, frozen_kern_mul),
    "bitwise_mul_opt": (bitwise_mul_opt, frozen_bitwise_mul_opt),
}
U64 = (1 << 64) - 1


def _random_operand(rng: random.Random) -> Tnum:
    """⊥, a constant, a sparse-mask or a uniform-mask 64-bit tnum."""
    kind = rng.randrange(20)
    if kind == 0:
        return Tnum.bottom(64)
    if kind < 4:
        return Tnum(rng.getrandbits(64), 0, 64)
    mask = rng.getrandbits(64)
    if kind < 12:
        mask &= rng.getrandbits(64) & rng.getrandbits(64)
    return Tnum(rng.getrandbits(64) & ~mask & U64, mask, 64)


def _assert_folded_adds_match(a: Tnum, b: Tnum, limit: int):
    assert add_unknown_raw(a.value, a.mask, b.mask, limit) == add_raw(
        a.value, a.mask, 0, b.mask, limit
    )
    assert (0, add_mask_raw(a.mask, b.mask, limit)) == add_raw(
        0, a.mask, 0, b.mask, limit
    )


def test_folded_adds_match_add_raw_exhaustive_width5():
    tnums = enumerate_tnums(5)
    for a in tnums:
        for b in tnums:
            _assert_folded_adds_match(a, b, 0b11111)


def test_folded_adds_match_add_raw_random_64bit():
    rng = random.Random(7)
    for _ in range(2000):
        a, b = _random_operand(rng), _random_operand(rng)
        if not (a.is_bottom() or b.is_bottom()):
            _assert_folded_adds_match(a, b, U64)


@pytest.mark.parametrize("name", sorted(MULTIPLIERS))
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_bit_identical_exhaustive(name, width):
    fn, frozen = MULTIPLIERS[name]
    tnums = enumerate_tnums(width, include_bottom=True)
    for p in tnums:
        for q in tnums:
            assert fn(p, q) == frozen(p, q), (p, q)


@pytest.mark.parametrize("name", sorted(MULTIPLIERS))
def test_bit_identical_random_64bit(name):
    fn, frozen = MULTIPLIERS[name]
    rng = random.Random(20211)
    pairs = [(_random_operand(rng), _random_operand(rng)) for _ in range(2000)]
    assert any(p.is_bottom() or q.is_bottom() for p, q in pairs)
    for p, q in pairs:
        assert fn(p, q) == frozen(p, q), (p, q)
