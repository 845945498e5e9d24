"""Tests for the operator registry (repro.core.ops)."""

import pytest

from repro.core.ops import BINARY_OPS, SHIFT_OPS, UNARY_OPS, get_op
from repro.core.tnum import Tnum


class TestRegistryCompleteness:
    def test_covers_every_bpf_alu_op_the_analyzer_models(self):
        # §II-B lists the BPF concrete ops; div/mod are conservative.
        # kern_mul and bitwise_mul are Fig. 4/5's baselines for mul.
        assert set(BINARY_OPS) == {
            "add", "sub", "mul", "and", "or", "xor", "div", "mod",
            "kern_mul", "bitwise_mul",
        }
        assert set(UNARY_OPS) == {"neg", "not"}
        assert set(SHIFT_OPS) == {"lsh", "rsh", "arsh"}

    def test_specs_are_well_formed(self):
        for spec in BINARY_OPS.values():
            assert spec.arity == 2
            assert callable(spec.abstract) and callable(spec.concrete)
        for spec in UNARY_OPS.values():
            assert spec.arity == 1


class TestConcreteSemantics:
    def test_wrapping(self):
        assert BINARY_OPS["add"].concrete(255, 1, 8) == 0
        assert BINARY_OPS["sub"].concrete(0, 1, 8) == 255
        assert BINARY_OPS["mul"].concrete(16, 16, 8) == 0

    def test_neg_not(self):
        assert UNARY_OPS["neg"].concrete(1, 8) == 255
        assert UNARY_OPS["not"].concrete(0, 8) == 255

    def test_shift_counts_reduce_mod_width(self):
        assert SHIFT_OPS["lsh"].concrete(1, 9, 8) == 2
        assert SHIFT_OPS["rsh"].concrete(128, 9, 8) == 64

    def test_arsh_sign_extension(self):
        assert SHIFT_OPS["arsh"].concrete(0x80, 3, 8) == 0xF0
        assert SHIFT_OPS["arsh"].concrete(0x40, 3, 8) == 0x08


class TestAbstractConcreteAgreement:
    """For constant inputs, the abstract op must equal the concrete op."""

    @pytest.mark.parametrize("name", sorted(BINARY_OPS))
    def test_binary_constants(self, name):
        spec = BINARY_OPS[name]
        for x, y in [(0, 0), (3, 5), (255, 255), (7, 0)]:
            got = spec.abstract(Tnum.const(x, 8), Tnum.const(y, 8))
            assert got == Tnum.const(spec.concrete(x, y, 8), 8)

    @pytest.mark.parametrize("name", sorted(UNARY_OPS))
    def test_unary_constants(self, name):
        spec = UNARY_OPS[name]
        for x in (0, 1, 128, 255):
            assert spec.abstract(Tnum.const(x, 8)) == Tnum.const(
                spec.concrete(x, 8), 8
            )

    @pytest.mark.parametrize("name", sorted(SHIFT_OPS))
    def test_shift_constants(self, name):
        spec = SHIFT_OPS[name]
        for x in (0, 1, 0x80, 0xAB):
            for s in (0, 1, 7):
                assert spec.abstract(Tnum.const(x, 8), s) == Tnum.const(
                    spec.concrete(x, s, 8), 8
                )


class TestLookup:
    def test_get_op_kinds(self):
        assert get_op("add")[0] == "binary"
        assert get_op("neg")[0] == "unary"
        assert get_op("arsh")[0] == "shift"

    def test_get_op_unknown(self):
        with pytest.raises(KeyError):
            get_op("bogus")
