"""Golden test: what ``repro fuzz`` computes, frozen.

``repro fuzz`` is plain differential fuzzing: budget-many freshly
generated programs, each checked by the oracle, violations shrunk into
the corpus.  It runs as a precision campaign of one round with mutation
feedback off (:func:`repro.fuzz.fuzz_spec`).  The digests were frozen
while a separate plain driver still existed, from runs in which that
driver and the campaign agreed on every counter and on every violation
and shrunk witness.

Each case renders its counters and corpus entries (everything but the
free-text ``note``, which names the program's origin in a campaign) and
compares one sha256 with ``golden/fuzz_digests.json``.  The cases cover
each generator profile at two seeds, plus a campaign against an
injected ``tnum_add`` bug, so violation shrinking is pinned too.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.tnum import Tnum
from repro.fuzz import PROFILES, fuzz_spec, run_precision_campaign

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "fuzz_digests.json").read_text()
)

COUNTERS = (
    "executed", "accepted", "rejected", "rejected_clean",
    "containment_checks", "violations",
)

SEEDS = (1, 42)


def render(result) -> dict:
    return {
        "counters": {name: getattr(result.stats, name) for name in COUNTERS},
        "entries": [
            {key: value for key, value in asdict(entry).items()
             if key != "note"}
            for entry in result.corpus.entries
        ],
    }


def digest(rendered: dict) -> str:
    return hashlib.sha256(
        json.dumps(rendered, sort_keys=True).encode()
    ).hexdigest()


def _check(case: str, fields: dict) -> None:
    rendered = render(run_precision_campaign(fuzz_spec(**fields)))
    assert digest(rendered) == GOLDEN[case], (
        f"{case}: repro fuzz's counters or corpus diverged from the golden"
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_fuzz_outputs_frozen(profile, seed):
    _check(f"{profile}-{seed}", dict(budget=60, seed=seed, profile=profile))


def test_injected_bug_violations_and_witnesses_frozen(monkeypatch):
    import repro.domains.product as product

    real_add = product.tnum_add

    def buggy_add(p: Tnum, q: Tnum) -> Tnum:
        t = real_add(p, q)
        if t.is_bottom():
            return t
        return Tnum(t.value & ~1, t.mask & ~1, t.width)

    monkeypatch.setattr(product, "tnum_add", buggy_add)
    _check("tnum_add-low-bit", dict(budget=40, seed=0, profile="alu"))
