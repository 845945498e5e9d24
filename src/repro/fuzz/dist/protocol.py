"""Wire-level contract between the dist coordinator and its workers.

Everything here is pure data — hashable identifiers and JSON shapes —
shared by :mod:`repro.fuzz.dist.coordinator`,
:mod:`repro.fuzz.dist.worker`, and the HTTP layer
(:mod:`repro.api.dist`), so the three cannot drift.

Two identifiers carry the protocol's safety story:

* the **campaign id** hashes the :class:`~repro.fuzz.campaign.
  CampaignSpec` (minus the outcome-neutral ``workers`` field), so a
  worker pointed at the wrong coordinator — or a coordinator restarted
  with a different spec — is rejected structurally instead of merging
  foreign results;
* the **batch fingerprint** hashes ``(campaign_id, round, batch_id,
  indices)`` and deliberately *excludes* the attempt number: a
  re-issued batch computes the same fingerprint as the original grant,
  which is exactly what makes result ingestion idempotent — whichever
  worker reports first wins, every later report for the same
  fingerprint is a counted duplicate, and the merge order (campaign
  index order) never depends on who won.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, List, Sequence

from repro.fuzz.campaign import CampaignSpec

__all__ = [
    "DIST_SCHEMA_VERSION",
    "campaign_id",
    "POLL_INTERVAL_S",
    "batch_fingerprint",
    "validate_batch_results",
]

#: Version of the coordinator/worker JSON protocol; both sides send it
#: and refuse mismatches, so a mixed-version fleet fails loudly.
DIST_SCHEMA_VERSION = 1

#: Seconds a worker waits before asking again when no batch is
#: grantable: the coordinator's ``{"wait": ...}`` answer.
POLL_INTERVAL_S = 0.25


def campaign_id(spec: CampaignSpec) -> str:
    """Stable identifier of everything that determines the outcome.

    ``workers`` is excluded — reports are byte-identical for any worker
    count, so a coordinator may resume with a different fleet size.
    """
    payload = asdict(spec)
    payload.pop("workers", None)
    digest = hashlib.blake2b(
        json.dumps(payload, sort_keys=True).encode(), digest_size=12
    )
    return digest.hexdigest()


def batch_fingerprint(
    cid: str, rnd: int, batch_id: int, indices: Sequence[int]
) -> str:
    """The idempotency key one leased batch reports under.

    A pure function of *what* is computed, never of who computes it or
    on which attempt — see the module docstring.
    """
    digest = hashlib.blake2b(
        f"{cid}|{rnd}|{batch_id}|{tuple(indices)!r}".encode(),
        digest_size=12,
    )
    return digest.hexdigest()


def validate_batch_results(
    indices: Sequence[int], results: object
) -> List[Dict]:
    """Check a reported result set covers its batch exactly once.

    Raises ``ValueError`` on any shape the merge cannot trust — the
    coordinator records that as a failed attempt (the batch re-runs)
    rather than letting a truncated or duplicated POST skew the report.
    """
    if not isinstance(results, list):
        raise ValueError("results must be a list")
    seen = []
    for res in results:
        if not isinstance(res, dict) or "index" not in res:
            raise ValueError("each result must be a dict with an index")
        seen.append(res["index"])
    if sorted(seen) != sorted(indices):
        raise ValueError(
            f"results cover indices {sorted(seen)}, lease covers "
            f"{sorted(indices)}"
        )
    return results
