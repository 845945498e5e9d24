"""Corpus persistence: every entry kind survives JSON with wire equality."""

import pytest

from repro.bpf import isa
from repro.bpf.insn import Instruction
from repro.bpf.program import Program
from repro.fuzz import Corpus, generate_program

U64 = (1 << 64) - 1

MOV_R0 = isa.CLS_ALU64 | isa.ALU_MOV | isa.SRC_K
LDDW = isa.CLS_LD | isa.SZ_DW | isa.MODE_IMM
JA = isa.CLS_JMP | isa.JMP_JA
JEQ_K = isa.CLS_JMP | isa.JMP_JEQ | isa.SRC_K
EXIT = isa.CLS_JMP | isa.JMP_EXIT


def roundtrip(corpus: Corpus, tmp_path) -> Corpus:
    path = tmp_path / "corpus.json"
    corpus.save(path)
    return Corpus.load(path)


def extreme_imm_program() -> Program:
    """Max-size immediates at every boundary the wire format encodes."""
    return Program([
        Instruction(LDDW, dst=1, imm=U64),                   # all-ones imm64
        Instruction(LDDW, dst=2, imm=-(1 << 63)),            # most-negative
        Instruction(MOV_R0, dst=0, imm=-(1 << 31)),          # s32 min
        Instruction(MOV_R0, dst=3, imm=(1 << 31) - 1),       # s32 max
        Instruction(EXIT),
    ])


def negative_offset_program() -> Program:
    """Backward branches: negative offsets must survive the wire format."""
    return Program([
        Instruction(MOV_R0, dst=0, imm=0),
        Instruction(JEQ_K, dst=0, imm=1, off=1),   # skip the back-jump
        Instruction(JA, off=-3),                   # back to insn 0
        Instruction(EXIT),
    ])


class TestEveryKindRoundTrips:
    def test_violation_and_seed_entries(self, tmp_path):
        gp = generate_program(1)
        shrunk = generate_program(2).program
        corpus = Corpus()
        corpus.add_violation(
            gp.program, seed=1, profile="mixed",
            violation={"kind": "containment", "message": "x", "pc": 3},
            shrunk=shrunk, note="original",
        )
        corpus.add_seed(shrunk, seed=2, profile="mixed", note="near-miss")

        loaded = roundtrip(corpus, tmp_path)
        assert loaded.to_json() == corpus.to_json()
        assert [e.kind for e in loaded.entries] == ["violation", "seed"]
        for original, reloaded in zip(corpus.entries, loaded.entries):
            assert reloaded.program().to_bytes() == \
                original.program().to_bytes()
        assert loaded.entries[0].shrunk_program().to_bytes() == \
            shrunk.to_bytes()
        assert loaded.seeds()[0].note == "near-miss"

    def test_kind_accessors(self):
        corpus = Corpus()
        gp = generate_program(3)
        corpus.add_seed(gp.program, seed=3, profile="mixed")
        assert len(corpus.seeds()) == 1
        assert corpus.violations() == []


class TestWireFormatExtremes:
    def test_max_size_immediates_survive(self, tmp_path):
        program = extreme_imm_program()
        corpus = Corpus()
        corpus.add_seed(program, seed=0, profile="mixed")
        loaded = roundtrip(corpus, tmp_path)
        replayed = loaded.entries[0].program()
        assert replayed.to_bytes() == program.to_bytes()
        assert replayed.insns[0].imm & U64 == U64
        assert replayed.insns[1].imm & U64 == 1 << 63
        assert replayed.insns[2].imm == -(1 << 31)
        assert replayed.insns[3].imm == (1 << 31) - 1

    def test_negative_branch_offsets_survive(self, tmp_path):
        program = negative_offset_program()
        corpus = Corpus()
        corpus.add_violation(
            program, seed=0, profile="mixed",
            violation={"kind": "containment", "message": "loop"},
        )
        loaded = roundtrip(corpus, tmp_path)
        replayed = loaded.entries[0].program()
        assert replayed.to_bytes() == program.to_bytes()
        assert replayed.insns[2].off == -3
        # Slot addressing still resolves the backward target.
        assert replayed.jump_target_slot(2) == 0

    def test_extreme_offset_boundaries(self, tmp_path):
        # s16 extremes are encodable even if the targets are nonsense for
        # a *jump*; store offsets use the full range.
        stx = isa.CLS_STX | isa.SZ_DW | isa.MODE_MEM
        program = Program([
            Instruction(MOV_R0, dst=0, imm=0),
            Instruction(stx, dst=10, src=0, off=-(1 << 15)),
            Instruction(stx, dst=10, src=0, off=(1 << 15) - 1),
            Instruction(EXIT),
        ])
        corpus = Corpus()
        corpus.add_seed(program, seed=5, profile="memory")
        loaded = roundtrip(corpus, tmp_path)
        replayed = loaded.entries[0].program()
        assert replayed.to_bytes() == program.to_bytes()
        assert replayed.insns[1].off == -(1 << 15)
        assert replayed.insns[2].off == (1 << 15) - 1

    def test_bad_version_still_rejected(self):
        with pytest.raises(ValueError):
            Corpus.from_json('{"format_version": 2, "entries": []}')
