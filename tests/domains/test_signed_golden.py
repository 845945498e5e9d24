"""Golden test: what the signed branch refinements and ``arsh`` compute.

Each case renders every result of one family, one line per input, and
compares one sha256 with ``FROZEN``.  The families are the walk's four
signed jump refiners (``absint._REFINERS`` for ``jsgt``/``jsge``/
``jslt``/``jsle``, 64-bit like the walk) and ``ScalarValue.arshift`` at
every shift at widths 64 and 8.

The inputs are seeded: reduced constants, tnums over the ⊤ interval,
ranges anchored at the edges of both sign halves, and random tnums met
with such ranges, crossed with the boundary bounds 0, 1, 2^(w-1)-1,
2^(w-1) and 2^w-1 and a few random bounds per value, some of them
inside the value's range.
"""

import hashlib
import random

import pytest

from repro.bpf import isa
from repro.bpf.verifier import absint
from repro.core.tnum import Tnum
from repro.domains.interval import Interval
from repro.domains.product import ScalarValue

FROZEN = {
    "refine jsgt":
        "215184172d0a26e5138c67a155f04ad126e72b7b692f07d0b4d8737d982d2aa8",
    "refine jsge":
        "1f2cbc222b75589bc01b8cb0f1b4e8b895841a96e580bcd64bd24a9e0592928d",
    "refine jslt":
        "ca7e9c4a2ab2aaa50fa5947cdc70d9b79a56099b11eb6a5dbe4c78a8da483297",
    "refine jsle":
        "9a2be0c9559d2ae7dad61103c4ec1afbb5197a5fde9a14d7a8bf91fb0eb94df3",
    "arshift 64":
        "f376d1a88128c8741ccb07b0f05474aae988f1ec77c8e7e8bf37ab1a2ef6a183",
    "arshift 8":
        "28bcde4f9614b9e7ae34ab6abdf9d3fc4712c768fb6b1d9137754b1b2fc545f3",
}

SIGNED_JUMPS = {
    "jsgt": isa.JMP_JSGT,
    "jsge": isa.JMP_JSGE,
    "jslt": isa.JMP_JSLT,
    "jsle": isa.JMP_JSLE,
}


def edges(width):
    half = 1 << (width - 1)
    return (0, 1, half - 1, half, (1 << width) - 1)


def random_tnum(rng, width):
    mask = rng.getrandbits(width) & rng.getrandbits(width)
    return Tnum(rng.getrandbits(width) & ~mask, mask, width)


def anchored_range(rng, width):
    top = (1 << width) - 1
    edge = rng.choice(edges(width))
    span = rng.getrandbits(rng.randrange(1, width + 1))
    if rng.random() < 0.5:
        return Interval(edge, min(edge + span, top), width)
    return Interval(max(edge - span, 0), edge, width)


def sample_values(width, seed, rounds=60):
    """Seeded reduced scalars of ``width`` bits (bottom included)."""
    rng = random.Random(seed)
    out = [ScalarValue.top(width), ScalarValue.bottom(width)]
    out += [ScalarValue.const(e, width) for e in edges(width)]
    for _ in range(rounds):
        out.append(ScalarValue.const(rng.getrandbits(width), width))
        out.append(ScalarValue.from_tnum(random_tnum(rng, width)))
        iv = anchored_range(rng, width)
        out.append(ScalarValue.make(iv.to_tnum(), iv))
        iv = anchored_range(rng, width)
        member = rng.randint(iv.umin, iv.umax)
        mask = random_tnum(rng, width).mask
        out.append(ScalarValue.make(Tnum(member & ~mask, mask, width), iv))
    return out


def sample_bounds(rng, value):
    """The boundary bounds, then random ones: anywhere, near the edges,
    and inside the value's unsigned range."""
    width = value.width
    top = (1 << width) - 1
    half = 1 << (width - 1)
    bounds = edges(width) + (
        rng.getrandbits(width),
        rng.randrange(16),
        top - rng.randrange(16),
        half + rng.randrange(16),
        half - 1 - rng.randrange(16),
    )
    iv = value.interval
    if iv.is_bottom():
        return bounds
    return bounds + (iv.umin, iv.umax, rng.randint(iv.umin, iv.umax))


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SIGNED_JUMPS))
def test_signed_refiners_frozen(name):
    refine = absint._REFINERS[SIGNED_JUMPS[name]]
    rng = random.Random(f"bounds {name}")
    lines = []
    for value in sample_values(64, seed=26):
        for bound in sample_bounds(rng, value):
            taken, fall = refine(value, bound)
            lines.append(f"{value!r} {bound:#x} {taken!r} {fall!r}")
    assert digest(lines) == FROZEN[f"refine {name}"]


@pytest.mark.parametrize("width", [64, 8])
def test_arshift_frozen(width):
    lines = [
        f"{value!r} {shift} {value.arshift(shift)!r}"
        for value in sample_values(width, seed=width)
        for shift in range(width)
    ]
    assert digest(lines) == FROZEN[f"arshift {width}"]
