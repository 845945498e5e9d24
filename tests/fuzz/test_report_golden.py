"""Golden test: the decode-once pipeline must not move campaign results.

The committed golden was produced by the pre-compiled-pipeline oracle
(step-decoding interpreter, per-replay ``Machine`` construction,
``ScalarValue.contains`` containment checks, frozen-dataclass domains).
A fixed-seed campaign re-run through the current pipeline must serialize
a byte-identical :class:`PrecisionReport` — the determinism guarantee
campaigns have carried since PR 2, now doubling as a regression harness
for the performance work: any semantic drift in the interpreter, the
oracle's replay batching, or the domain interning shows up here as a
diff, not as a silently different campaign.

The report leaves out what shrinking and pool admission produce, so
three default-size campaigns also pin their final pool, corpus and
containment-check count (``golden/campaign_digests.json``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.fuzz import CampaignSpec, run_precision_campaign

GOLDEN = Path(__file__).parent / "golden" / "precision-seed42-b40.json"


def test_fixed_seed_campaign_report_byte_identical():
    # Mutation feedback deliberately left on (the default): the round-2
    # program stream then depends on round-1 verdicts, shrinking, and
    # pool admission order, so this exercises the whole loop — not just
    # the generator.
    result = run_precision_campaign(CampaignSpec(budget=40, rounds=2, seed=42))
    assert result.stats.violations == 0
    assert result.report.to_json() + "\n" == GOLDEN.read_text(), (
        "fixed-seed campaign report diverged from the pre-refactor golden; "
        "the execution pipeline changed observable semantics"
    )


#: Three default campaigns (400 programs, two rounds, mutation feedback,
#: seed shrinking): their report, final pool, corpus and containment
#: check count, frozen as sha256 digests before the oracle learned to
#: skip the replays of near-miss shrink candidates its walk already
#: decides, and to check constant registers in one comparison.
CAMPAIGN_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "campaign_digests.json").read_text()
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_digests(seed: int) -> dict:
    result = run_precision_campaign(CampaignSpec(seed=seed))
    return {
        "report": _sha(result.report.to_json()),
        "pool": _sha(json.dumps(result.pool)),
        "corpus": _sha(result.corpus.to_json()),
        "containment_checks": result.stats.containment_checks,
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_default_campaign_outputs_frozen(seed):
    assert campaign_digests(seed) == CAMPAIGN_GOLDEN[str(seed)], (
        f"default campaign seed {seed} diverged from the frozen golden: "
        "shrinking, pool admission or containment counting changed"
    )
