"""The fixed program universe the serve workloads send, and its verdicts.

Programs come from ``generate_program`` over the four opcode profiles,
taken round-robin (``seed k`` of every profile, then ``k + 1``), with
structural duplicates -- programs that share a ``canonical_hash`` --
dropped, until there are :data:`SIZE` of them.  A run's ``--seed`` only
chooses and orders programs from this universe; the service receives
nothing but their wire bytes.

``data/expected_verdicts.json`` freezes the universe: which generator
draws were dropped as duplicates, a digest of every program's wire
bytes (a run whose generator no longer reproduces them stops instead of
measuring different inputs), and the expected verdict of each program.
It was built once with::

    PYTHONPATH=src python3 perfbench/universe.py --freeze

which verifies every program in process and cross-checks each accepted
one by running it concretely with ``Machine.run`` on several context
inputs; a crash aborts the freeze.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DATA = Path(__file__).resolve().parent / "data" / "expected_verdicts.json"
PROFILES = ("mixed", "alu", "memory", "branchy")
SIZE = 4096
CTX_SIZE = 64
CROSSCHECK_INPUTS = 4
_FORMAT = 1

#: ``(accepted, index of the first rejected instruction or None)``
Expected = Tuple[bool, Optional[int]]


def _draws():
    k = 0
    while True:
        for profile in PROFILES:
            yield profile, k
        k += 1


def _digest(wire: List[bytes]) -> str:
    h = hashlib.sha256()
    for data in wire:
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return h.hexdigest()


def load() -> Tuple[List[bytes], List[Expected]]:
    """Regenerate the frozen universe: wire bytes and expected verdicts."""
    from repro.fuzz.generator import generate_program

    frozen = json.loads(DATA.read_text())
    if frozen.get("format") != _FORMAT or frozen.get("size") != SIZE:
        raise ValueError(f"{DATA} does not describe this universe")
    skipped = {(p, k) for p, k in frozen["skipped"]}
    wire: List[bytes] = []
    for profile, k in _draws():
        if len(wire) == SIZE:
            break
        if (profile, k) not in skipped:
            wire.append(generate_program(k, profile, ctx_size=CTX_SIZE).program.to_bytes())
    if _digest(wire) != frozen["wire_sha256"]:
        raise ValueError(
            "generate_program no longer reproduces the frozen program "
            "universe; rebuild it with `perfbench/universe.py --freeze`"
        )
    rejects: Dict[str, int] = frozen["rejects"]
    expected = [
        (str(i) not in rejects, rejects.get(str(i))) for i in range(SIZE)
    ]
    return wire, expected


def matches(payload: Dict, want: Expected) -> bool:
    """Does a ``/verify`` response carry the expected verdict?"""
    ok, error_index = want
    if payload.get("verdict") != ("accept" if ok else "reject"):
        return False
    return ok or (payload.get("error") or {}).get("index") == error_index


def freeze() -> Dict:
    from repro.bpf.interpreter import ExecutionError, Machine
    from repro.bpf.program import ProgramError
    from repro.bpf.verifier import Verifier
    from repro.fuzz.generator import generate_program

    seen = set()
    skipped = []
    programs = []
    for profile, k in _draws():
        if len(programs) == SIZE:
            break
        program = generate_program(k, profile, ctx_size=CTX_SIZE).program
        chash = program.canonical_hash()
        if chash in seen:
            skipped.append([profile, k])
            continue
        seen.add(chash)
        programs.append(program)

    rejects: Dict[str, Optional[int]] = {}
    runs = 0
    for i, program in enumerate(programs):
        result = Verifier(ctx_size=CTX_SIZE).verify(program)
        if not result.ok:
            rejects[str(i)] = result.errors[0].insn_index if result.errors else None
            continue
        for j in range(CROSSCHECK_INPUTS):
            ctx = random.Random(i * CROSSCHECK_INPUTS + j).randbytes(CTX_SIZE)
            try:
                Machine(ctx=ctx).run(program)
            except (ExecutionError, ProgramError) as exc:
                raise SystemExit(
                    f"accepted universe program {i} crashed concretely: {exc}"
                )
            runs += 1
    return {
        "format": _FORMAT,
        "size": SIZE,
        "profiles": list(PROFILES),
        "ctx_size": CTX_SIZE,
        "skipped": skipped,
        "wire_sha256": _digest([p.to_bytes() for p in programs]),
        "rejects": rejects,
        "crosscheck": {
            "accepted": SIZE - len(rejects),
            "concrete_runs_without_crash": runs,
            "inputs_per_program": CROSSCHECK_INPUTS,
        },
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Freeze the serve workloads' program universe.")
    parser.add_argument("--freeze", action="store_true", required=True)
    parser.parse_args()
    frozen = freeze()
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}: {frozen['crosscheck']}", file=sys.stderr)
