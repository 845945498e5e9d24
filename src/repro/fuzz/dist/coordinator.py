"""The coordinator: authoritative owner of one distributed campaign.

Exactly one coordinator owns the round schedule and, through its
:class:`~repro.fuzz.campaign.CampaignRun`, the corpus and the merged
:class:`~repro.eval.precision.PrecisionReport`.  Workers are
stateless and expendable: they lease batches (:meth:`Coordinator.
lease`), fuzz them locally, and report results (:meth:`Coordinator.
ingest`).  Three invariants carry the design — see
``docs/distributed.md`` for the full failure matrix:

* **Leases expire, work never leaks.**  Each round's batches live in a
  :class:`~repro.fuzz.resilience.LeaseLedger`, the one retry/quarantine
  ledger the single-machine runner uses too, driven here with epoch
  seconds (``time.time``, so deadlines survive a coordinator restart).
  A batch whose deadline (``RetryPolicy.lease_timeout_s``) passes — or
  whose worker's heartbeat goes stale — is re-issued to the next worker
  that asks, with the failed attempt charged against the batch; a batch
  that keeps failing quarantines to the same poison-corpus format.

* **Ingest is idempotent.**  Results are keyed on the batch
  fingerprint (:func:`~repro.fuzz.dist.protocol.batch_fingerprint`),
  which excludes the attempt number: when a re-issued batch and its
  presumed-dead original worker both report, the first report wins and
  every later one is a counted duplicate.  A settled round closes
  through :meth:`~repro.fuzz.campaign.CampaignRun.end_round`, the
  exact code path the single-machine campaign runs: it merges in
  campaign index order, so the merged report and corpus are
  byte-identical for any worker count or kill schedule.

* **Checkpoints are crash-proof.**  The coordinator writes its
  in-round ledger (``round.json``) atomically after every lease grant
  and every result merge; its :class:`~repro.fuzz.campaign.CampaignRun`
  writes the cross-round campaign state (``state.json``/
  ``corpus.json``) after every merged round — all via the campaign's
  temp+rename writer.  A SIGKILLed coordinator resumes
  from those files without double-granting a live lease (deadlines are
  epoch time) and without losing a completed batch (done results live
  in the ledger).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional

from repro.fuzz.campaign import (
    CampaignRun,
    CampaignSpec,
    PrecisionCampaignResult,
    _atomic_write,
)
from repro.fuzz.corpus import Corpus
from repro.fuzz.resilience import (
    Batch,
    LeaseLedger,
    RetryPolicy,
    slice_batches,
)

from .protocol import (
    DIST_SCHEMA_VERSION,
    POLL_INTERVAL_S,
    batch_fingerprint,
    campaign_id,
    validate_batch_results,
)

__all__ = ["CoordinatorConfig", "Coordinator"]

_ROUND_FILE = "round.json"
_ROUND_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CoordinatorConfig:
    """Runtime knobs of one coordinator — deliberately *outside* the
    :class:`~repro.fuzz.campaign.CampaignSpec`: none of these change
    the report, so a campaign may resume under a different config.

    ``retry`` is the ledger's :class:`RetryPolicy`: the attempt budget,
    the backoff-with-jitter schedule, the fault-free final attempt that
    bounds injected chaos, and ``lease_timeout_s``, the wall-clock
    seconds a worker gets per batch (30 by default here).
    """

    batch_size: int = 8
    #: a worker silent this long has its leases treated as failed even
    #: before they expire — a stale heartbeat is a cheaper signal than
    #: a full lease timeout when batches are long.
    heartbeat_timeout_s: float = 60.0
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(lease_timeout_s=30.0)
    )

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")


class Coordinator:
    """Lease scheduler + idempotent ingest + crash-proof checkpoints.

    The campaign itself — stats, report, pool, corpus, quarantined
    payloads and ``state.json`` — is :attr:`run`, a
    :class:`~repro.fuzz.campaign.CampaignRun`; the coordinator keeps
    the round's leases, its ingest and its ``round.json``.

    Thread-safe: every public method takes the coordinator lock, so the
    HTTP layer (:class:`repro.api.dist.CoordinatorApi`) can call in
    from many handler threads.  ``clock`` is injectable (epoch seconds)
    so tests drive lease expiry and heartbeat staleness without
    sleeping; the default is ``time.time`` precisely because epoch
    deadlines survive a coordinator restart where monotonic ones
    would not.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        state_dir: "str | Path",
        config: Optional[CoordinatorConfig] = None,
        corpus: Optional[Corpus] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.config = config or CoordinatorConfig()
        self.clock = clock
        self.cid = campaign_id(spec)
        self.run = CampaignRun(spec, state_dir, corpus)
        self._lock = threading.RLock()
        self._workers: Dict[str, float] = {}
        self._counters: Dict[str, int] = {}

        self._set_ledger([])
        if not self.finished and not self._load_round():
            self._new_round()

    # -- round lifecycle ---------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.run.finished

    def _new_round(self) -> None:
        rnd = self.run.round
        self._set_ledger(
            Batch(
                batch_id=bid,
                indices=batch,
                fingerprint=batch_fingerprint(self.cid, rnd, bid, batch),
            )
            for bid, batch in enumerate(
                slice_batches(self.run.indices(), self.config.batch_size)
            )
        )
        self._checkpoint_round()

    def _set_ledger(self, rows: Iterable[Batch]) -> None:
        self.ledger = LeaseLedger(rows, self.config.retry)
        self._by_fp: Dict[str, Batch] = {
            b.fingerprint: b for b in self.ledger.rows
        }

    def _load_round(self) -> bool:
        """Restore the in-round ledger; False means rebuild from scratch.

        The ledger is *derived* state: discarding a corrupt or stale one
        only re-runs work (deterministically — same indices, same
        streams), it can never change the report.  A loaded ledger keeps
        its own batch layout even if ``batch_size`` changed since: the
        fingerprints already granted must keep matching.
        """
        path = self.run.state_path / _ROUND_FILE
        if not path.exists():
            return False
        rnd = self.run.round
        try:
            payload = json.loads(path.read_text())
            if payload.get("format_version") != _ROUND_FORMAT_VERSION:
                return False
            if payload.get("campaign_id") != self.cid:
                return False
            if payload.get("round") != rnd:
                return False
            batches = [Batch.from_payload(b) for b in payload["batches"]]
        except (ValueError, KeyError, TypeError):
            return False
        covered = sorted(i for b in batches for i in b.indices)
        if covered != list(self.run.indices()):
            return False
        for b in batches:
            if b.fingerprint != batch_fingerprint(
                self.cid, rnd, b.batch_id, b.indices
            ):
                return False
        self._set_ledger(batches)
        now = self.clock()
        for b in batches:
            if b.status == "leased" and b.worker is not None:
                # Start the absent worker's heartbeat clock at resume:
                # if it is alive it will poll and refresh; if it died
                # with the coordinator, staleness (or the persisted
                # epoch deadline) reclaims the lease.
                self._workers.setdefault(b.worker, now)
        # Re-count in-round quarantines lost with the in-memory stats
        # (state.json only reflects merged rounds).  The poison artifact
        # was already written pre-crash, so the payload regenerates
        # without a file — no duplicate, no suffix bump.
        self.run.quarantine(
            [b for b in batches if b.status == "quarantined"], write=False
        )
        return True

    def _checkpoint_round(self) -> None:
        payload = {
            "format_version": _ROUND_FORMAT_VERSION,
            "campaign_id": self.cid,
            "round": self.run.round,
            "batches": [b.to_payload() for b in self.ledger.rows],
        }
        _atomic_write(
            self.run.state_path / _ROUND_FILE,
            json.dumps(payload, sort_keys=True) + "\n",
        )
        self._count("checkpoints")

    def _maybe_finish_round(self) -> None:
        """Merge a fully-settled round; idempotent across crashes.

        If the coordinator dies between marking the last batch done and
        writing ``state.json``, the resume reloads the done ledger and
        re-merges — same results in the same index order, so the same
        bytes."""
        if self.finished or not self.ledger.rows or not self.ledger.settled:
            return
        self.run.end_round(
            self.ledger.results, "dist-coordinator",
            workers=len(self._workers),
        )
        self._count("rounds_merged")
        if self.finished:
            # The stale round.json self-invalidates on load (its round
            # number is behind rounds_completed), so nothing to delete.
            self._set_ledger([])
        else:
            self._new_round()

    # -- the lease side ----------------------------------------------------

    def lease(self, worker: str) -> Dict:
        """Grant the next batch to ``worker`` (its heartbeat refreshes).

        Expired and heartbeat-stale leases are reclaimed here, lazily —
        the coordinator needs no timer thread because nothing can
        progress without some worker asking for work anyway (the CLI
        loop also calls :meth:`tick` as a belt-and-braces sweep).
        """
        with self._lock:
            now = self.clock()
            self._workers[worker] = now
            base = {
                "schema_version": DIST_SCHEMA_VERSION,
                "campaign_id": self.cid,
            }
            while True:
                self._maybe_finish_round()
                if self.finished:
                    return {**base, "done": True}
                batch = self.ledger.grant(worker, now)
                if batch is not None:
                    self._count("leases_granted")
                    self._checkpoint_round()
                    return {
                        **base,
                        "round": self.run.round,
                        "batch": {
                            "batch_id": batch.batch_id,
                            "indices": list(batch.indices),
                            "attempt": batch.attempt,
                            "fingerprint": batch.fingerprint,
                            "inject": self.ledger.inject(batch),
                        },
                    }
                if not self._reclaim_one(now):
                    return {**base, "wait": POLL_INTERVAL_S}

    def _reclaim_one(self, now: float) -> bool:
        """Fail one expired or heartbeat-stale lease; True if any was."""
        for b in self.ledger.expired(now):
            self._count("leases_expired")
            self._fail(
                b, "timeout",
                f"lease exceeded {self.config.retry.lease_timeout_s}s", now,
            )
            return True
        for b in self.ledger.rows:
            if b.status != "leased":
                continue
            last_seen = self._workers.get(b.worker or "", now)
            if now - last_seen > self.config.heartbeat_timeout_s:
                self._count("heartbeats_stale")
                self._fail(
                    b, "stale",
                    f"worker {b.worker} silent for "
                    f"{now - last_seen:.1f}s", now,
                )
                return True
        return False

    def _fail(
        self, batch: Batch, kind: str, detail: object, now: float
    ) -> None:
        """Charge a failed attempt to ``batch`` and checkpoint; record
        the poison artifact if the ledger quarantined it."""
        if self.ledger.fail(batch, kind, detail, now):
            self.run.quarantine([batch])
            self._count("batches_quarantined")
        else:
            self.run.stats.retries += 1
            self._count("leases_retried")
        self._checkpoint_round()

    # -- the ingest side ---------------------------------------------------

    def ingest(self, payload: Dict) -> Dict:
        """Idempotently absorb one worker report; returns a status dict.

        Statuses: ``accepted`` (first valid report for the
        fingerprint), ``duplicate`` (the batch is already done —
        the re-issue/late-report race, resolved first-wins),
        ``stale`` (unknown fingerprint, quarantined batch, or a
        failure report for a superseded attempt — counted and
        ignored), ``retrying``/``quarantined`` (a failure or invalid
        result set, charged against the batch's attempts).
        """
        with self._lock:
            now = self.clock()
            worker = payload.get("worker")
            if isinstance(worker, str) and worker:
                self._workers[worker] = now
            base = {
                "schema_version": DIST_SCHEMA_VERSION,
                "campaign_id": self.cid,
            }
            batch = self._by_fp.get(payload.get("fingerprint"))
            if batch is None or batch.status == "quarantined":
                self._count("results_stale")
                return {**base, "status": "stale"}
            if batch.status == "done":
                self._count("results_duplicate")
                return {**base, "status": "duplicate"}
            if not payload.get("ok", False):
                # A failure report only counts against the *current*
                # lease: a late error from a superseded attempt is
                # stale (its expiry was already charged), and failing
                # the batch now would clobber the live re-issue.
                if (
                    batch.status == "leased"
                    and payload.get("attempt") == batch.attempt
                ):
                    self._count("results_failed")
                    self._fail(batch, "error", payload.get("error"), now)
                    return {**base, "status": (
                        "quarantined" if batch.status == "quarantined"
                        else "retrying"
                    )}
                self._count("results_stale")
                return {**base, "status": "stale"}
            try:
                results = validate_batch_results(
                    batch.indices, payload.get("results")
                )
            except ValueError as exc:
                self._count("results_rejected")
                self._fail(batch, "error", f"rejected result set: {exc}", now)
                return {**base, "status": (
                    "quarantined" if batch.status == "quarantined"
                    else "retrying"
                )}
            # First valid report wins — even from a worker whose lease
            # expired (its work is correct; the attempt bookkeeping is
            # not report-bearing), even while a re-issue is in flight
            # (the re-issued worker's report will be the duplicate).
            self.ledger.complete(batch, results)
            self._count("results_merged")
            self._checkpoint_round()
            self._maybe_finish_round()
            return {**base, "status": "accepted"}

    # -- observation and driving -------------------------------------------

    def tick(self) -> None:
        """Reclaim expired/stale leases and merge a settled round.

        The CLI loop calls this periodically so a fully dead fleet
        still gets its leases reclaimed (and its quarantines recorded)
        without any worker polling."""
        with self._lock:
            now = self.clock()
            while self._reclaim_one(now):
                pass
            self._maybe_finish_round()

    def round_info(self) -> Dict:
        """What a worker needs to execute this round's leases: the spec
        and the round's mutation-seed pool (refetched per round)."""
        with self._lock:
            return {
                "schema_version": DIST_SCHEMA_VERSION,
                "campaign_id": self.cid,
                "finished": self.finished,
                "round": self.run.round,
                "rounds": self.run.spec.rounds,
                "spec": asdict(self.run.spec),
                "pool": list(self.run.pool),
            }

    def stats_payload(self) -> Dict:
        with self._lock:
            now = self.clock()
            stats = self.run.stats
            by_status: Dict[str, int] = {
                "pending": 0, "leased": 0, "done": 0, "quarantined": 0,
            }
            for b in self.ledger.rows:
                by_status[b.status] = by_status.get(b.status, 0) + 1
            return {
                "schema_version": DIST_SCHEMA_VERSION,
                "campaign_id": self.cid,
                "finished": self.finished,
                "round": self.run.round,
                "rounds": self.run.spec.rounds,
                "budget": self.run.spec.budget,
                "batches": by_status,
                "workers": {
                    name: round(now - seen, 3)
                    for name, seen in sorted(self._workers.items())
                },
                "counters": dict(sorted(self._counters.items())),
                "stats": {
                    "executed": stats.executed,
                    "violations": stats.violations,
                    "retries": stats.retries,
                    "quarantined": stats.quarantined,
                    "rounds_completed": stats.rounds_completed,
                },
            }

    def result(self) -> PrecisionCampaignResult:
        with self._lock:
            return self.run.result()

    def _count(self, name: str) -> None:
        self._counters[name] = self._counters.get(name, 0) + 1
