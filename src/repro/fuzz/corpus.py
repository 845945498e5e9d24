"""JSON corpus persistence for fuzzing campaigns.

A corpus stores *replayable* artifacts: failing programs (with their
shrunk witnesses and violation details) and mutation seeds — shrunk
near-miss and rejected-but-clean programs a precision campaign feeds
back into the generator.  Programs are stored as the hex of their
kernel wire-format bytecode, so entries round-trip exactly, can be
replayed by any later build or external BPF tooling — and can be POSTed
verbatim to the service's ``/verify`` endpoint (which accepts the
corpus-entry ``bytecode_hex`` spelling).  Entries decode through the
shared ingestion layer (:mod:`repro.api.ingest`), which raises a
structured ``IngestError`` on bad hex; it is imported only when an
entry is decoded, because importing it loads the ``repro.api`` service
and its HTTP code, which a campaign that only writes entries never
needs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.bpf.program import Program

__all__ = ["CorpusEntry", "Corpus"]

_FORMAT_VERSION = 1


@dataclass
class CorpusEntry:
    """One persisted program plus the recipe that produced it."""

    kind: str                       # "violation" | "seed"
    seed: int                       # generator seed
    profile: str
    bytecode_hex: str
    shrunk_hex: Optional[str] = None
    violation: Optional[Dict] = None   # Violation fields, JSON-friendly
    note: str = ""

    def program(self) -> Program:
        from repro.api.ingest import program_from_hex

        return program_from_hex(self.bytecode_hex)

    def shrunk_program(self) -> Optional[Program]:
        if self.shrunk_hex is None:
            return None
        from repro.api.ingest import program_from_hex

        return program_from_hex(self.shrunk_hex)


@dataclass
class Corpus:
    """An append-only set of corpus entries with JSON round-tripping."""

    entries: List[CorpusEntry] = field(default_factory=list)

    def add_violation(
        self,
        program: Program,
        seed: int,
        profile: str,
        violation: Dict,
        shrunk: Optional[Program] = None,
        note: str = "",
    ) -> CorpusEntry:
        entry = CorpusEntry(
            kind="violation",
            seed=seed,
            profile=profile,
            bytecode_hex=program.to_bytes().hex(),
            shrunk_hex=shrunk.to_bytes().hex() if shrunk else None,
            violation=violation,
            note=note,
        )
        self.entries.append(entry)
        return entry

    def add_seed(
        self, program: Program, seed: int, profile: str, note: str = ""
    ) -> CorpusEntry:
        """Record a mutation seed (near-miss / rejected-but-clean program)."""
        entry = CorpusEntry(
            kind="seed",
            seed=seed,
            profile=profile,
            bytecode_hex=program.to_bytes().hex(),
            note=note,
        )
        self.entries.append(entry)
        return entry

    def violations(self) -> List[CorpusEntry]:
        return [e for e in self.entries if e.kind == "violation"]

    def seeds(self) -> List[CorpusEntry]:
        return [e for e in self.entries if e.kind == "seed"]

    def __len__(self) -> int:
        return len(self.entries)

    # -- persistence --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "format_version": _FORMAT_VERSION,
                "entries": [asdict(e) for e in self.entries],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Corpus":
        payload = json.loads(text)
        version = payload.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported corpus format {version!r}")
        return cls([CorpusEntry(**e) for e in payload["entries"]])

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: "str | Path") -> "Corpus":
        return cls.from_json(Path(path).read_text())
