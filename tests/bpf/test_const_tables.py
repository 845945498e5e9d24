"""The walk's constant tables stay bounded and hand out exact constants.

``ScalarValue.const`` and ``RegState.const`` intern every constant they
build, each in one table that is emptied when full.  Ten times a table's
bound of distinct values pushed through it must never grow it past the
bound, and every value it returns must equal a freshly built one,
before a clear and after it.
"""

from repro.bpf.verifier import state as state_mod
from repro.bpf.verifier.state import RegKind, RegState
from repro.core.tnum import Tnum
from repro.domains import product
from repro.domains.interval import Interval
from repro.domains.product import ScalarValue

#: odd, so ``i * STRIDE`` is distinct modulo 2**64 for every i
STRIDE = 0x9E37_79B9_7F4A_7C15


def fresh_scalar(value: int, width: int) -> ScalarValue:
    v = value & ((1 << width) - 1)
    return ScalarValue(Tnum(v, 0, width), Interval(v, v, width))


def fresh_reg(value: int) -> RegState:
    return RegState(RegKind.SCALAR, scalar=fresh_scalar(value, 64))


def test_scalar_table_stays_bounded():
    table, bound = product._CONSTS, product._CONSTS_MAX
    for width in (64, 8):
        sizes = []
        for i in range(10 * bound):
            # Distinct inputs; at width 8 they wrap onto 256 values.
            value = i * STRIDE if width == 64 else i
            got = ScalarValue.const(value, width)
            assert got == fresh_scalar(value, width), (value, width)
            assert len(table) <= bound
            sizes.append(len(table))
        if width == 64:
            # Every value was new, so the table filled and emptied.
            assert sum(b < a for a, b in zip(sizes, sizes[1:])) >= 9


def test_reg_table_stays_bounded():
    table, bound = state_mod._CONST_REGS, state_mod._CONST_REGS_MAX
    sizes = []
    for i in range(10 * bound):
        value = (i * STRIDE) & ((1 << 64) - 1)
        got = RegState.const(value)
        assert got == fresh_reg(value), value
        assert len(table) <= bound
        sizes.append(len(table))
    assert sum(b < a for a, b in zip(sizes, sizes[1:])) >= 9


def test_constants_survive_a_clear():
    before = ScalarValue.const(-16), RegState.const(1 << 40)
    for i in range(max(product._CONSTS_MAX, state_mod._CONST_REGS_MAX) + 1):
        ScalarValue.const(i * STRIDE)
        RegState.const(i * STRIDE + 1)
    after = ScalarValue.const(-16), RegState.const(1 << 40)
    assert before == after == (fresh_scalar(-16, 64), fresh_reg(1 << 40))


def test_widths_never_share_an_entry():
    wide = ScalarValue.const(5)
    narrow = ScalarValue.const(5, 8)
    assert (wide.width, narrow.width) == (64, 8)
    assert ScalarValue.const(-1, 8) == fresh_scalar(0xFF, 8)
    assert ScalarValue.const(-1) == fresh_scalar((1 << 64) - 1, 64)
