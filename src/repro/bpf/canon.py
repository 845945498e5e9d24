"""Canonical program forms and verdict memoization.

A verification service sees repeat and near-repeat submissions: the
same program assembled with different labels, scratch fields left over
from mutation, an immediate spelled ``-1`` in one copy and
``0xFFFFFFFF`` in another.  The verifier's verdict depends on none of
that, so ``repro serve`` verifies each *structure* once.

Two layers live here:

**Canonical form** — :func:`canonical_records` maps a
:class:`~repro.bpf.program.Program` to one fixed-width record per
instruction ``(opcode, dst, src, field3, imm)`` with every field the
verifier and interpreter ignore zeroed and every immediate pre-masked to
the width the engines actually consume (32-bit ops read ``imm & U32``,
shifts mask their count, partial stores their stored bytes, ...).  Jump
targets are re-encoded in *index space* (``field3`` = target instruction
index), so the form is independent of the slot layout bookkeeping;
:func:`canonicalize` materializes the records back into a real
``Program`` (offsets recomputed from the index targets, dense slot
layout), and :func:`canonical_hash` is the sha256 over the packed
records.  The canonicalization is *sound by construction*, never
complete: every rewrite above is justified by a field the engines
provably do not read (the property test in ``tests/bpf/test_canon.py``
holds verdicts, telemetry streams, and concrete executions equal
between a program and its canonical form), and any instruction class we
cannot prove anything about keeps its raw fields.

**Verdict memo** — :class:`VerdictCache` maps ``(canonical_hash,
ctx_size)`` to a :class:`CachedVerdict`: the full
:class:`~repro.bpf.verifier.errors.VerificationResult` (accept/reject,
error index/reason/structural flag, instructions processed) and the
walk's ``on_transfer`` stream folded into per-operator precision runs,
from which the service renders its precision summary.  The scalars
themselves are not kept.  :class:`~repro.api.service.VerificationService`
(``repro serve``) is its one user.  Entries are LRU-evicted past
``max_entries`` and serialize to the JSON store ``repro serve
--verdict-cache`` loads at startup and saves at shutdown; the store is
stamped with the engine that wrote it (see :func:`_engine_hash`).
Format details are in ``docs/caching.md``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
import sys
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import faults as _faults
from repro import obs as _obs

from . import isa
from .insn import _LDDW_OPCODE, Instruction
from .program import Program
from .verifier.errors import VerificationResult, VerifierError

__all__ = [
    "CANON_VERSION",
    "STORE_FORMAT_VERSION",
    "canonical_records",
    "canonical_hash",
    "canonicalize",
    "CachedVerdict",
    "VerdictCache",
]

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1

#: Bumped whenever the canonical form (record layout, masking rules, or
#: the hash seed) changes — persisted stores carry it, so a stale store
#: can never serve verdicts computed under different equivalence rules.
CANON_VERSION = 1
#: Version of the JSON store layout itself.
STORE_FORMAT_VERSION = 2
#: Packages (under ``repro``) whose code decides a verdict.
_ENGINE_PACKAGES = ("core", "domains", "bpf")

_HASH_SEED = b"repro-canon-v1"
#: opcode, dst, src, pad, field3 (s32: jump-target index or offset),
#: imm (u64, pre-masked).  Fixed-width records: two distinct record
#: sequences always produce distinct hash input streams.
_RECORD = struct.Struct("<BBBxiQ")

_SHIFT_OPS = frozenset((isa.ALU_LSH, isa.ALU_RSH, isa.ALU_ARSH))

#: Stored-byte mask per load/store size field, for ``st`` immediates.
_ST_IMM_MASK = {
    size: (1 << (8 * nbytes)) - 1 for size, nbytes in isa.SIZE_BYTES.items()
}


def canonical_records(
    program: Program,
) -> List[Tuple[int, int, int, int, int]]:
    """One ``(opcode, dst, src, field3, imm)`` record per instruction.

    Opcodes are never rewritten; only operand fields are.  The rules,
    each justified by what the two engines read (see the module
    docstring for the soundness argument):

    * **lddw** — ``imm & U64`` (sign-canonical); ``src``/``off`` zeroed.
    * **ALU** — ``off`` zeroed always.  ``neg`` keeps only ``dst``.
      Immediate forms zero ``src`` and mask ``imm`` to the operand
      width (``U64``/``U32``); shift counts further mask to
      ``width - 1``, exactly as both engines do.  Register forms zero
      ``imm``.  Unknown ALU ops follow the same field split — their
      error paths read registers (uninitialized-read precedence) but
      never the immediate's value.
    * **loads/stores** — ``imm`` zeroed for ``ldx``/``stx``; ``st``
      zeroes ``src`` and masks ``imm`` to the stored byte width.
    * **jumps** — ``exit`` zeroes everything; ``call`` keeps only
      ``imm`` (the helper id, reproduced verbatim in the interpreter's
      unknown-helper message); ``ja`` keeps only the target; conditional
      jumps keep ``dst`` plus either the masked immediate or ``src``.
      ``field3`` holds the target *instruction index* (slot-layout
      independent); everything else stores its offset there.
    * anything unrecognized keeps its raw fields (sound, not complete).

    Hot path: the fuzz stack hashes every submitted program, so the
    field tests are inlined bit-ops on locals (``insn.cls()`` and
    friends describe the same decode; see :mod:`repro.bpf.insn`) and the
    slot maps are indexed directly — jump targets were validated by the
    ``Program`` constructor, so every lookup lands on a boundary.
    """
    records: List[Tuple[int, int, int, int, int]] = []
    append = records.append
    slot_arr = program._slot_of_index
    index_arr = program._index_of_slot
    cls_alu, cls_alu64 = isa.CLS_ALU, isa.CLS_ALU64
    cls_ldx, cls_stx, cls_st = isa.CLS_LDX, isa.CLS_STX, isa.CLS_ST
    cls_jmp, cls_jmp32 = isa.CLS_JMP, isa.CLS_JMP32
    alu_neg, jmp_exit, jmp_call, jmp_ja = (
        isa.ALU_NEG, isa.JMP_EXIT, isa.JMP_CALL, isa.JMP_JA,
    )
    shift_ops, st_imm_mask, lddw = _SHIFT_OPS, _ST_IMM_MASK, _LDDW_OPCODE
    u64, u32 = U64, U32
    for idx, insn in enumerate(program.insns):
        opcode = insn.opcode
        cls = opcode & 0x07
        if cls == cls_alu64 or cls == cls_alu:
            op = opcode & 0xF0
            if op == alu_neg:
                append((opcode, insn.dst, 0, 0, 0))
            elif not opcode & 0x08:             # SRC_K
                is64 = cls == cls_alu64
                imm = insn.imm & (u64 if is64 else u32)
                if op in shift_ops:
                    imm &= 63 if is64 else 31
                append((opcode, insn.dst, 0, 0, imm))
            else:                               # SRC_X
                append((opcode, insn.dst, insn.src, 0, 0))
        elif cls == cls_jmp or cls == cls_jmp32:
            op = opcode & 0xF0
            if op == jmp_exit:
                append((opcode, 0, 0, 0, 0))
            elif op == jmp_call:
                append((opcode, 0, 0, 0, insn.imm & u64))
            else:
                target = index_arr[slot_arr[idx] + 1 + insn.off]
                if op == jmp_ja:
                    append((opcode, 0, 0, target, 0))
                elif not opcode & 0x08:         # SRC_K
                    imm = insn.imm & (u32 if cls == cls_jmp32 else u64)
                    append((opcode, insn.dst, 0, target, imm))
                else:                           # SRC_X
                    append((opcode, insn.dst, insn.src, target, 0))
        elif cls == cls_ldx or cls == cls_stx:
            append((opcode, insn.dst, insn.src, insn.off, 0))
        elif cls == cls_st:
            append((opcode, insn.dst, 0, insn.off,
                    insn.imm & st_imm_mask[opcode & 0x18]))
        elif opcode == lddw:
            append((opcode, insn.dst, 0, 0, insn.imm & u64))
        else:
            append((opcode, insn.dst, insn.src, insn.off, insn.imm & u64))
    return records


def canonical_hash(program: Program) -> str:
    """sha256 hex digest of the packed canonical records."""
    pack = _RECORD.pack
    return hashlib.sha256(
        _HASH_SEED
        + b"".join([pack(*record) for record in canonical_records(program)])
    ).hexdigest()


def canonicalize(program: Program) -> Program:
    """Materialize the canonical form as a real :class:`Program`.

    Jump offsets are recomputed from the index-space targets over the
    canonical slot layout (identical opcode sequence, hence identical
    layout); immediates re-sign values at or above ``2^63`` so every
    record round-trips through the :class:`Instruction` constructor's
    s32 range.  Idempotent: ``canonicalize(canonicalize(p))`` yields the
    same instruction list, and the canonical program hashes to the same
    digest as ``p``.
    """
    records = canonical_records(program)
    slot_of: List[int] = []
    slots = 0
    for record in records:
        slot_of.append(slots)
        slots += 2 if record[0] == _LDDW_OPCODE else 1
    insns: List[Instruction] = []
    for idx, (opcode, dst, src, field3, imm) in enumerate(records):
        cls = opcode & 0x07
        if cls in (isa.CLS_JMP, isa.CLS_JMP32) and (
            opcode & 0xF0 not in (isa.JMP_EXIT, isa.JMP_CALL)
        ):
            off = slot_of[field3] - (slot_of[idx] + 1)
        else:
            off = field3
        if opcode != _LDDW_OPCODE and imm >= (1 << 63):
            imm -= 1 << 64
        insns.append(Instruction(opcode, dst, src, off, imm))
    return Program(insns)


# -- cached verdicts -----------------------------------------------------------


def _fold_transfers(events: Iterable[Tuple[int, str, Any]]) -> Tuple:
    """One flat ``label, count, gamma_bits_sum, gamma_bits_max`` run per
    operator, in first-transfer order: all a precision summary reads."""
    runs: Dict[str, List[int]] = {}
    for _idx, label, scalar in events:
        bits = scalar.gamma_bits()
        run = runs.get(label)
        if run is None:
            runs[label] = [1, bits, bits]
        else:
            run[0] += 1
            run[1] += bits
            if bits > run[2]:
                run[2] = bits
    flat: List = []
    for label, run in runs.items():
        flat.append(label)
        flat.extend(run)
    return tuple(flat)


def _check_precision(record: Any) -> Tuple:
    """A stored ``precision`` record as a tuple, labels interned."""
    if not isinstance(record, list) or len(record) % 4 or not all(
        isinstance(f, str) if i % 4 == 0 else type(f) is int and f >= 0
        for i, f in enumerate(record)
    ):
        raise ValueError(
            "precision record is not label, count, sum, max runs (a "
            "string and three non-negative integers each)"
        )
    return tuple(sys.intern(f) if isinstance(f, str) else f for f in record)


class CachedVerdict:
    """Everything a verdict consumer can observe, minus the walk.

    ``precision`` is the walk's ``on_transfer`` stream folded once, when
    the walk ends (see :func:`_fold_transfers`): a flat tuple of
    ``label, count, gamma_bits_sum, gamma_bits_max`` per operator, in
    first-transfer order, from which
    :func:`repro.api.models.precision_summary` renders the summary the
    walk would give.  Flat, because nested per-operator tuples cost
    about 0.3 KB more per entry.
    """

    __slots__ = (
        "ok", "error_index", "error_reason", "error_structural",
        "insns_processed", "precision",
    )

    def __init__(
        self,
        ok: bool,
        error_index: int,
        error_reason: str,
        error_structural: bool,
        insns_processed: int,
        precision: Tuple,
    ) -> None:
        self.ok = ok
        self.error_index = error_index
        self.error_reason = error_reason
        self.error_structural = error_structural
        self.insns_processed = insns_processed
        self.precision = precision

    @classmethod
    def from_result(
        cls,
        result: VerificationResult,
        events: Iterable[Tuple[int, str, Any]],
    ) -> "CachedVerdict":
        error = result.errors[0] if result.errors else None
        return cls(
            ok=result.ok,
            error_index=error.insn_index if error is not None else 0,
            error_reason=error.reason if error is not None else "",
            error_structural=bool(error is not None and error.structural),
            insns_processed=result.insns_processed,
            precision=_fold_transfers(events),
        )

    def result(self) -> VerificationResult:
        """Reconstruct the verification result, byte-equal to a miss."""
        if self.ok:
            return VerificationResult(True, [], self.insns_processed)
        error = VerifierError(
            self.error_index, self.error_reason, self.error_structural
        )
        return VerificationResult(False, [error], self.insns_processed)

    # -- (de)serialization -------------------------------------------------

    def to_payload(self) -> Dict:
        payload: Dict = {
            "ok": self.ok,
            "insns_processed": self.insns_processed,
            "precision": list(self.precision),
        }
        if not self.ok:
            payload["error"] = [
                self.error_index, self.error_reason, self.error_structural,
            ]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict) -> "CachedVerdict":
        error = payload.get("error")
        return cls(
            ok=bool(payload["ok"]),
            error_index=int(error[0]) if error else 0,
            error_reason=str(error[1]) if error else "",
            error_structural=bool(error[2]) if error else False,
            insns_processed=int(payload["insns_processed"]),
            precision=_check_precision(payload["precision"]),
        )


# -- the memo layer ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _engine_hash() -> str:
    """sha256 over the verifier's source, stamped into every store.

    Covers the relative path and bytes of every ``.py`` file under
    ``repro/core``, ``repro/domains`` and ``repro/bpf``, so a store
    written before a transfer-function change or a soundness fix no
    longer loads.  Computed once, on first use.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for package in _ENGINE_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


CacheKey = Tuple[str, int]   # (canonical_hash, ctx_size)

_DEFAULT_MAX_ENTRIES = 65536


class VerdictCache:
    """Bounded LRU memo of verdicts keyed on ``(canonical_hash, ctx_size)``.

    Lookup order is the recency order: :meth:`get` refreshes an entry,
    :meth:`put` inserts at the newest position and evicts the least
    recently used entry past ``max_entries``.  ``hits`` / ``misses`` /
    ``evictions`` count this instance's traffic, and are the only copy:
    the service serves them on ``/stats``, ``/metrics`` and its shutdown
    line.  With observability on, :meth:`get` also times each lookup
    into the obs registry's ``cache``/``lookup`` timer.

    The JSON payload (:meth:`to_payload` / :meth:`from_payload`) is the
    persistent store, written by :meth:`save` and read by :meth:`load`.
    """

    def __init__(self, max_entries: int = _DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, CachedVerdict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    # -- core ---------------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[CachedVerdict]:
        """The entry for ``key``, or ``None`` (counted as a miss)."""
        entries = self._entries
        if _obs.enabled():
            t0 = time.perf_counter_ns()
            entry = entries.get(key)
            _obs.record_op_time("cache", "lookup", time.perf_counter_ns() - t0)
        else:
            entry = entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: CacheKey, entry: CachedVerdict) -> None:
        entries = self._entries
        entries[key] = entry
        entries.move_to_end(key)
        if len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1

    # -- persistence --------------------------------------------------------

    def to_payload(self) -> Dict:
        return {
            "format_version": STORE_FORMAT_VERSION,
            "canon_version": CANON_VERSION,
            "engine": _engine_hash(),
            "max_entries": self.max_entries,
            "entries": [
                [key[0], key[1], entry.to_payload()]
                for key, entry in self._entries.items()   # LRU → MRU order
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "VerdictCache":
        if not isinstance(payload, dict):
            raise ValueError(
                f"verdict-cache payload must be a JSON object, "
                f"not {type(payload).__name__}"
            )
        version = payload.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported verdict-cache format {version!r} "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        canon = payload.get("canon_version")
        if canon != CANON_VERSION:
            raise ValueError(
                f"verdict cache built for canonical form {canon!r}; "
                f"this build uses {CANON_VERSION} — discard the store"
            )
        if payload.get("engine") != _engine_hash():
            raise ValueError(
                "verdict cache written by another verifier build (its "
                "engine stamp differs) — discard the store"
            )
        cache = cls(max_entries=int(payload.get("max_entries",
                                                _DEFAULT_MAX_ENTRIES)))
        for chash, ctx_size, entry_payload in payload.get("entries", []):
            cache._entries[(str(chash), int(ctx_size))] = (
                CachedVerdict.from_payload(entry_payload)
            )
        while len(cache._entries) > cache.max_entries:
            cache._entries.popitem(last=False)
        return cache

    def save(self, path: "str | Path") -> None:
        """Atomically persist the store: write a temp file, then rename.

        A reader (or the next run's :meth:`load`) never observes a torn
        store — ``os.replace`` is atomic on POSIX, so a crash at any
        point leaves either the old complete file or the new complete
        file.  The ``cache.save.torn``/``cache.save.slow`` fault sites
        exercise exactly this window: a saver killed mid-write must not
        cost the previous store.
        """
        target = Path(path)
        text = json.dumps(self.to_payload(), sort_keys=True) + "\n"
        tmp = target.with_name(target.name + f".tmp.{os.getpid()}")
        half = len(text) // 2
        with open(tmp, "w") as fh:
            fh.write(text[:half])
            if _faults.enabled():
                if _faults.fire("cache.save.torn"):
                    fh.flush()
                    return   # die mid-write: temp left behind, no rename
                if _faults.fire("cache.save.slow"):
                    fh.flush()
                    time.sleep(_faults.arg("cache.save.slow"))
            fh.write(text[half:])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    @classmethod
    def load(
        cls, path: "str | Path", max_entries: int = _DEFAULT_MAX_ENTRIES
    ) -> "VerdictCache":
        """Load a persistent store; a missing file yields a fresh cache.

        Malformed or version-mismatched stores raise ``ValueError`` —
        silently dropping a store the caller asked for would hide the
        misconfiguration behind a 0% hit rate.  Every failure mode (a
        partially written file from a crashed run, hand-edited JSON, a
        store from a different format version or verifier build)
        surfaces as one clear message naming the file, never a traceback
        from the decoder.
        """
        fresh = cls(max_entries=max_entries)   # the constructor's size check
        store = Path(path)
        if not store.exists():
            return fresh
        try:
            text = store.read_text()
        except OSError as exc:
            raise ValueError(
                f"verdict-cache store {store} is unreadable: {exc}"
            ) from exc
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ValueError(
                f"verdict-cache store {store} is corrupt or truncated "
                f"(not valid JSON: {exc}) — delete it to start fresh"
            ) from exc
        try:
            cache = cls.from_payload(payload)
        except ValueError as exc:
            raise ValueError(f"verdict-cache store {store}: {exc}") from exc
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(
                f"verdict-cache store {store} is malformed "
                f"({type(exc).__name__}: {exc}) — delete it to start fresh"
            ) from exc
        cache.max_entries = max_entries
        while len(cache._entries) > max_entries:
            cache._entries.popitem(last=False)
        return cache

    def summary_line(self, path: Optional[str] = None) -> str:
        """One-line stats render for CLI output (and CI greps)."""
        line = (
            f"verdict cache: hits={self.hits} misses={self.misses} "
            f"({100.0 * self.hit_rate:.1f}% hit rate) "
            f"entries={len(self)} evictions={self.evictions}"
        )
        if path:
            line += f" -> {path}"
        return line
