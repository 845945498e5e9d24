"""Canonical-form soundness and verdict-memo behavior.

The load-bearing property: a program and its canonical form are
*indistinguishable* to every consumer — verifier verdict (including
error index/message), telemetry stream, and concrete execution — so a
verdict cached under the canonical hash can be served to any structural
twin.  The sweeps below exercise that equivalence per opcode family and
over generated programs from every fuzz profile; the cache tests pin
that a hit is byte-identical to the miss that populated it.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.bpf import assemble, isa
from repro.bpf.canon import (
    CANON_VERSION,
    STORE_FORMAT_VERSION,
    CachedVerdict,
    VerdictCache,
    canonical_hash,
    canonicalize,
    canonical_records,
)
from repro.bpf.insn import Instruction
from repro.bpf.interpreter import ExecutionError, Machine
from repro.bpf.program import Program, ProgramError
from repro.bpf.verifier import Verifier
from repro.fuzz import generate_program, program_seed
from repro.fuzz.generator import PROFILES

U64 = (1 << 64) - 1

ALU_OPS = (
    isa.ALU_ADD, isa.ALU_SUB, isa.ALU_MUL, isa.ALU_DIV, isa.ALU_OR,
    isa.ALU_AND, isa.ALU_LSH, isa.ALU_RSH, isa.ALU_MOD, isa.ALU_XOR,
    isa.ALU_MOV, isa.ALU_ARSH,
)
COND_JUMP_OPS = (
    isa.JMP_JEQ, isa.JMP_JGT, isa.JMP_JGE, isa.JMP_JSET, isa.JMP_JNE,
    isa.JMP_JSGT, isa.JMP_JSGE, isa.JMP_JLT, isa.JMP_JLE, isa.JMP_JSLT,
    isa.JMP_JSLE,
)
IMMEDIATES = (0, 1, 5, 31, 63, 65, -1, -5, 0x7FFF_FFFF, -0x8000_0000,
              0xFFFF_FFFF)


# -- equivalence fingerprints --------------------------------------------------


def record_walk(program, ctx_size=64):
    """One walk's result and its ``on_transfer`` stream."""
    events = []
    verifier = Verifier(
        ctx_size=ctx_size,
        on_transfer=lambda idx, label, scalar: events.append(
            (idx, label, scalar)
        ),
    )
    return verifier.verify(program), events


def fingerprint(result, events):
    return (
        result.ok,
        result.insns_processed,
        result.error_messages(),
        [e.structural for e in result.errors],
        list(events),
    )


def verdict_fingerprint(program, ctx_size=64):
    """Everything a verifier consumer can observe, as comparable data."""
    return fingerprint(*record_walk(program, ctx_size))


def cached_fingerprint(program, cache, ctx_size=64):
    """:func:`verdict_fingerprint` through ``cache``, as the service
    does it: a miss walks and puts ``CachedVerdict.from_result`` of the
    walk, a hit rebuilds the fingerprint from the stored entry.  The
    transfer stream shows as the precision runs an entry keeps."""
    key = (program.canonical_hash(), ctx_size)
    entry = cache.get(key)
    if entry is not None:
        return fingerprint(entry.result(), entry.precision)
    result, events = record_walk(program, ctx_size)
    entry = CachedVerdict.from_result(result, events)
    cache.put(key, entry)
    return fingerprint(result, entry.precision)


def run_fingerprint(program, ctx):
    """Concrete observation stream: per-step (index, registers) + outcome."""
    steps = []
    machine = Machine(ctx=ctx, step_limit=10_000)
    try:
        result = machine.run(
            program, on_step=lambda idx, regs: steps.append((idx, tuple(regs)))
        )
        return ("ok", result.return_value, result.steps, steps)
    except ExecutionError as exc:
        return ("crash", str(exc), None, steps)
    except ProgramError as exc:
        return ("fellout", str(exc), None, steps)


def assert_equivalent(program):
    canon = canonicalize(program)
    assert verdict_fingerprint(canon) == verdict_fingerprint(program)
    for seed in (0, 1):
        ctx = random.Random(seed).randbytes(64)
        assert run_fingerprint(canon, ctx) == run_fingerprint(program, ctx)
    # Same hash (twins), and materialization is idempotent.
    assert canonical_hash(canon) == canonical_hash(program)
    assert canonicalize(canon).insns == canon.insns


# -- hash semantics ------------------------------------------------------------


class TestCanonicalHash:
    def test_ignores_labels(self):
        insns = assemble("mov r0, 1\nexit").insns
        assert canonical_hash(Program(list(insns))) == canonical_hash(
            Program(list(insns), labels={"entry": 0})
        )

    def test_ignores_dead_fields_on_imm_alu(self):
        # src and off are dead for a SRC_K ALU op; junk there must not
        # change the hash (the verifier and interpreter never read them).
        op = isa.CLS_ALU64 | isa.ALU_ADD | isa.SRC_K
        clean = Program([Instruction(op, 0, 0, 0, 7), _exit()])
        junk = Program([Instruction(op, 0, 3, 11, 7), _exit()])
        assert canonical_hash(junk) == canonical_hash(clean)
        assert_equivalent(junk)

    def test_imm_spelling_collapses_for_32bit_ops(self):
        op = isa.CLS_ALU | isa.ALU_ADD | isa.SRC_K
        a = Program([_mov(0, 1), Instruction(op, 0, 0, 0, -1), _exit()])
        b = Program(
            [_mov(0, 1), Instruction(op, 0, 0, 0, 0xFFFF_FFFF), _exit()]
        )
        assert canonical_hash(a) == canonical_hash(b)
        assert verdict_fingerprint(a) == verdict_fingerprint(b)

    def test_imm_spelling_distinct_for_64bit_ops(self):
        # -1 means 2^64-1 under a 64-bit op; 0xFFFFFFFF does not.
        op = isa.CLS_ALU64 | isa.ALU_ADD | isa.SRC_K
        a = Program([_mov(0, 1), Instruction(op, 0, 0, 0, -1), _exit()])
        b = Program(
            [_mov(0, 1), Instruction(op, 0, 0, 0, 0xFFFF_FFFF), _exit()]
        )
        assert canonical_hash(a) != canonical_hash(b)

    def test_shift_count_masked_to_width(self):
        op = isa.CLS_ALU64 | isa.ALU_LSH | isa.SRC_K
        a = Program([_mov(0, 1), Instruction(op, 0, 0, 0, 65), _exit()])
        b = Program([_mov(0, 1), Instruction(op, 0, 0, 0, 1), _exit()])
        assert canonical_hash(a) == canonical_hash(b)
        assert verdict_fingerprint(a) == verdict_fingerprint(b)

    def test_distinguishes_semantics(self):
        base = Program([_mov(0, 1), _exit()])
        assert canonical_hash(Program([_mov(0, 2), _exit()])) != (
            canonical_hash(base)
        )
        assert canonical_hash(Program([_mov(1, 1), _exit()])) != (
            canonical_hash(base)
        )

    def test_jump_targets_hash_in_index_space(self):
        # Both jumps skip one instruction, but over different bodies —
        # same target *index* arithmetic, different programs, and the
        # records store the index, not the raw offset.
        prog = assemble("""
            mov r0, 0
            jeq r0, 0, +1
            mov r0, 9
            exit
        """)
        records = canonical_records(prog)
        assert records[1][3] == 3    # target = instruction index of exit
        assert_equivalent(prog)

    def test_call_keeps_helper_id(self):
        op = isa.CLS_JMP | isa.JMP_CALL
        a = Program([Instruction(op, 0, 0, 0, 1), _mov(0, 0), _exit()])
        b = Program([Instruction(op, 0, 0, 0, 2), _mov(0, 0), _exit()])
        assert canonical_hash(a) != canonical_hash(b)
        # The interpreter's unknown-helper message quotes the raw imm —
        # it must survive the canonical round-trip exactly.
        neg = Program([Instruction(op, 0, 0, 0, -7), _mov(0, 0), _exit()])
        assert_equivalent(neg)


def _mov(dst, imm):
    return Instruction(isa.CLS_ALU64 | isa.ALU_MOV | isa.SRC_K, dst, 0, 0, imm)


def _mov_reg(dst, src):
    return Instruction(isa.CLS_ALU64 | isa.ALU_MOV | isa.SRC_X, dst, src, 0, 0)


def _exit():
    return Instruction(isa.CLS_JMP | isa.JMP_EXIT, 0, 0, 0, 0)


# -- semantics preservation sweeps ---------------------------------------------


class TestCanonicalizationPreservesSemantics:
    @pytest.mark.parametrize("cls", (isa.CLS_ALU, isa.CLS_ALU64))
    @pytest.mark.parametrize("op", ALU_OPS)
    def test_alu_imm_sweep(self, cls, op):
        for imm in IMMEDIATES:
            assert_equivalent(Program([
                _mov(0, 13),
                Instruction(cls | op | isa.SRC_K, 0, 0, 0, imm),
                _mov(0, 0),
                _exit(),
            ]))

    @pytest.mark.parametrize("cls", (isa.CLS_ALU, isa.CLS_ALU64))
    @pytest.mark.parametrize("op", ALU_OPS)
    def test_alu_reg_sweep(self, cls, op):
        assert_equivalent(Program([
            _mov(0, 13),
            _mov(2, 5),
            Instruction(cls | op | isa.SRC_X, 0, 2, 0, 0),
            _mov(0, 0),
            _exit(),
        ]))

    @pytest.mark.parametrize("cls", (isa.CLS_ALU, isa.CLS_ALU64))
    def test_neg_ignores_src_and_imm(self, cls):
        clean = Program([
            _mov(0, 13),
            Instruction(cls | isa.ALU_NEG, 0, 0, 0, 0),
            _mov(0, 0), _exit(),
        ])
        junk = Program([
            _mov(0, 13),
            Instruction(cls | isa.ALU_NEG, 0, 4, 0, 99),
            _mov(0, 0), _exit(),
        ])
        assert canonical_hash(junk) == canonical_hash(clean)
        assert_equivalent(junk)

    @pytest.mark.parametrize("cls", (isa.CLS_JMP, isa.CLS_JMP32))
    @pytest.mark.parametrize("op", COND_JUMP_OPS)
    def test_cond_jump_sweep(self, cls, op):
        for imm in (0, 1, -1, 0x7FFF_FFFF):
            assert_equivalent(Program([
                _mov(1, 5),
                Instruction(cls | op | isa.SRC_K, 1, 0, 1, imm),
                _mov(0, 7),
                _exit(),
            ]))
        assert_equivalent(Program([
            _mov(1, 5),
            _mov(2, 3),
            Instruction(cls | op | isa.SRC_X, 1, 2, 1, 0),
            _mov(0, 7),
            _exit(),
        ]))

    def test_memory_ops(self):
        assert_equivalent(assemble("""
            mov r0, 7
            stxdw [r10-8], r0
            ldxdw r3, [r10-8]
            stb [r10-16], 300
            ldxb r4, [r10-16]
            ldxw r5, [r1+0]
            mov r0, 0
            exit
        """))

    def test_st_imm_masked_to_stored_width(self):
        # A 1-byte store keeps only the low byte; spellings that agree
        # on it are structurally identical.
        op = isa.CLS_ST | isa.SZ_B | isa.MODE_MEM
        a = Program([
            Instruction(op, 10, 0, -8, 0x101), _mov(0, 0), _exit(),
        ])
        b = Program([
            Instruction(op, 10, 0, -8, 1), _mov(0, 0), _exit(),
        ])
        assert canonical_hash(a) == canonical_hash(b)
        assert verdict_fingerprint(a) == verdict_fingerprint(b)
        assert_equivalent(a)

    def test_lddw(self):
        assert_equivalent(assemble("""
            lddw r0, 0xFFFFFFFFFFFFFFFF
            lddw r2, -1
            mov r0, 0
            exit
        """))

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_generated_programs(self, profile):
        for i in range(60):
            program = generate_program(
                program_seed(1234, i), profile
            ).program
            assert_equivalent(program)


# -- the verdict memo ----------------------------------------------------------


class TestVerdictCache:
    def _twin(self, text):
        """Two structurally identical Program objects (separate caches)."""
        insns = assemble(text).insns
        return Program(list(insns)), Program(list(insns))

    def test_hit_is_byte_identical_to_miss(self):
        cache = VerdictCache()
        a, b = self._twin("mov r0, 1\nadd r0, 2\nexit")
        miss = cached_fingerprint(a, cache)
        assert cache.misses == 1 and cache.hits == 0
        hit = cached_fingerprint(b, cache)
        assert cache.hits == 1
        assert hit == miss

    def test_rejecting_verdicts_cached_with_error_detail(self):
        cache = VerdictCache()
        a, b = self._twin("mov r0, r3\nexit")   # r3 uninitialized
        miss = cached_fingerprint(a, cache)
        hit = cached_fingerprint(b, cache)
        assert cache.hits == 1
        assert hit == miss
        assert not hit[0] and hit[2]            # rejected, message kept

    def test_keyed_on_ctx_size(self):
        cache = VerdictCache()
        program = assemble("ldxw r0, [r1+60]\nexit")
        ok = cached_fingerprint(program, cache, ctx_size=64)
        small = cached_fingerprint(program, cache, ctx_size=8)
        assert ok[0] and not small[0]
        assert cache.hits == 0 and cache.misses == 2

    def test_lru_eviction_and_refresh(self):
        cache = VerdictCache(max_entries=2)
        entry = CachedVerdict(True, 0, "", False, 1, ())
        cache.put(("a", 64), entry)
        cache.put(("b", 64), entry)
        assert cache.get(("a", 64)) is entry    # refresh "a"
        cache.put(("c", 64), entry)             # evicts "b", the LRU
        assert cache.evictions == 1
        assert ("b", 64) not in cache
        assert ("a", 64) in cache and ("c", 64) in cache

    def test_full_cache_memory_stays_flat(self):
        # Past max_entries a put evicts as much as it adds: no evicted
        # key may stay reachable from the cache.
        import tracemalloc

        cache = VerdictCache(max_entries=8)
        entry = CachedVerdict(True, 0, "", False, 1, ())
        for i in range(8):
            cache.put((f"{i:064x}", 64), entry)
        puts = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(8, 8 + puts):
                cache.put((f"{i:064x}", 64), entry)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == 8 and cache.evictions == puts
        assert grown / puts < 16

    def test_persistence_round_trip(self, tmp_path):
        cache = VerdictCache()
        # Two transfers of 8 γ-bits each, so the store has precision
        # runs to lose.
        accepted, _ = self._twin(
            "ldxw r0, [r1+0]\nand r0, 255\nadd r0, 1\nexit"
        )
        rejected, _ = self._twin("mov r0, r3\nexit")
        cached_fingerprint(accepted, cache)
        cached_fingerprint(rejected, cache)
        store = tmp_path / "verdicts.json"
        cache.save(store)
        loaded = VerdictCache.load(store)
        assert loaded.to_payload() == cache.to_payload()
        # A loaded entry serves hits with identical observable output,
        # precision included: the same as a fresh walk gives.
        reloaded = cached_fingerprint(Program(list(accepted.insns)), loaded)
        assert reloaded == cached_fingerprint(accepted, VerdictCache())
        assert reloaded[-1] == ["and64", 1, 8, 8, "add64", 1, 8, 8]
        assert loaded.hits == 1

    def test_load_missing_store_is_fresh(self, tmp_path):
        cache = VerdictCache.load(tmp_path / "absent.json")
        assert len(cache) == 0

    def test_load_truncated_store_is_a_clear_error(self, tmp_path):
        # A crash mid-save leaves a partially written JSON file; loading
        # it must name the file and the problem, not dump a traceback
        # from deep inside the decoder.
        cache = VerdictCache()
        cached_fingerprint(assemble("mov r0, 1\nexit"), cache)
        store = tmp_path / "verdicts.json"
        cache.save(store)
        text = store.read_text()
        store.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError) as exc:
            VerdictCache.load(store)
        message = str(exc.value)
        assert "corrupt or truncated" in message
        assert str(store) in message
        assert "delete it" in message

    def test_load_malformed_store_is_a_clear_error(self, tmp_path):
        # Valid JSON, wrong shape: entries records missing fields.
        store = tmp_path / "verdicts.json"
        payload = VerdictCache().to_payload()
        payload["entries"] = [["deadbeef", 64]]   # no verdict record
        store.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as exc:
            VerdictCache.load(store)
        message = str(exc.value)
        assert str(store) in message
        assert "malformed" in message

    @pytest.mark.parametrize("precision", [
        ["add64", 1, 8],           # not whole label, count, sum, max runs
        ["add64", "1", 8, 8],      # a count that is not an integer
    ], ids=["wrong-length", "non-integer-count"])
    def test_load_malformed_precision_is_a_clear_error(
        self, tmp_path, precision
    ):
        # Caught at load, not as a 500 when a hit renders the entry.
        cache = VerdictCache()
        cached_fingerprint(assemble("mov r0, 1\nadd r0, 2\nexit"), cache)
        payload = cache.to_payload()
        payload["entries"][0][2]["precision"] = precision
        store = tmp_path / "verdicts.json"
        store.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as exc:
            VerdictCache.load(store)
        message = str(exc.value)
        assert str(store) in message and "precision" in message
        assert "\n" not in message

    def test_load_non_dict_store_is_a_clear_error(self, tmp_path):
        store = tmp_path / "verdicts.json"
        store.write_text(json.dumps(["not", "a", "store"]))
        with pytest.raises(ValueError) as exc:
            VerdictCache.load(store)
        assert str(store) in str(exc.value)

    def test_version_mismatch_raises(self, tmp_path):
        store = tmp_path / "verdicts.json"
        payload = VerdictCache().to_payload()
        for field, bogus in (
            ("format_version", STORE_FORMAT_VERSION + 1),
            ("canon_version", CANON_VERSION + 1),
            ("engine", "0" * 64),
        ):
            store.write_text(json.dumps(dict(payload, **{field: bogus})))
            with pytest.raises(ValueError):
                VerdictCache.load(store)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            VerdictCache(max_entries=0)

    @pytest.mark.parametrize("size", [0, -1])
    def test_load_rejects_nonpositive_capacity(self, tmp_path, size):
        # The constructor's check guards a saved store too: -1 must not
        # reach the trimming loop, nor 0 load a cache that keeps nothing.
        cache = VerdictCache()
        cached_fingerprint(assemble("mov r0, 1\nexit"), cache)
        store = tmp_path / "verdicts.json"
        cache.save(store)
        with pytest.raises(ValueError, match="max_entries must be >= 1"):
            VerdictCache.load(store, max_entries=size)
