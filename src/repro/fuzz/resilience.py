"""Per-batch leases with bounded retry: the campaigns' crash-recovery core.

One :class:`LeaseLedger` holds the rules every leased campaign follows,
on one machine or many:

* the work is split into **batches** of campaign indices
  (:func:`slice_batches`); each batch is one ledger row, leased to
  exactly one worker at a time, so a lost batch is always attributable;
* grants go in batch order, preferring a batch the asking worker has
  not just failed, and carry an ``inject`` flag that is false on the
  fault-free final attempt;
* a failed attempt (crash, lease timeout, soft error, stale worker)
  costs one retry after a jittered exponential backoff; a batch that
  fails ``max_attempts`` times is **quarantined** — the round completes
  without it and the caller records the poison batch instead of dying;
* a lease expires strictly after its deadline (:func:`lease_expired`).

The ledger never reads a clock: every method takes ``now``.  Two loops
feed it.  :func:`run_leased_batches` — used by ``repro fuzz`` and
``repro campaign`` — owns local worker processes, their pipes and
sentinels, and drives the ledger with ``time.monotonic``.  The
distributed :class:`~repro.fuzz.dist.Coordinator` owns rounds,
heartbeats, idempotent ingest and checkpoints, and drives the ledger
with epoch seconds so its deadlines survive a restart.

Results are byte-identical to a fault-free run whenever no batch is
actually lost: item results are keyed on their campaign index, and a
retried batch re-executes the same index-derived streams.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults as _faults

__all__ = [
    "RetryPolicy",
    "Batch",
    "LeaseLedger",
    "run_leased_batches",
    "slice_batches",
    "local_batch_size",
    "lease_expired",
]

#: ``task(indices, attempt, inject_ok) -> [result, ...]`` — must be a
#: module-level function (it crosses the process boundary by name).
BatchTask = Callable[[Sequence[int], int, bool], List[Dict]]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a ledger tries before quarantining a batch.

    ``max_attempts`` counts the first execution: the default 3 means one
    run plus two retries.  With ``fault_free_final_attempt`` (the
    default) the last attempt runs with crash *injection* suppressed —
    injected chaos is bounded so a chaos campaign deterministically
    converges to the fault-free report; real faults still exhaust the
    attempts and quarantine.

    ``lease_timeout_s`` is how long a worker may hold one batch; None
    means no limit.

    ``jitter`` desynchronizes retry storms: a crash that takes out many
    workers at once would otherwise have every batch retry on the exact
    same ``base * 2^(attempt-1)`` schedule.  Each delay is scaled into
    ``[delay * (1 - jitter), delay]`` by a hash of ``(seed, key,
    attempt)`` — never wall clock, never a shared RNG — so chaos runs
    stay exactly reproducible (``seed`` is threaded from the campaign
    seed by the CLI).
    """

    max_attempts: int = 3
    lease_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    fault_free_final_attempt: bool = True
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.lease_timeout_s is not None and self.lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def backoff_s(self, attempt: int, key: Iterable[object] = ()) -> float:
        """Delay before attempt ``attempt`` (0 for the first run).

        ``key`` scopes the jitter (batch id, worker name, ...): distinct
        keys back off at distinct points inside the jitter window.
        """
        if attempt <= 0:
            return 0.0
        delay = min(
            self.backoff_base_s * (2.0 ** (attempt - 1)), self.backoff_max_s
        )
        if self.jitter <= 0.0:
            return delay
        digest = hashlib.blake2b(
            f"{self.seed}|backoff|{tuple(key)!r}|{attempt}".encode(),
            digest_size=8,
        ).digest()
        fraction = int.from_bytes(digest, "big") / float(1 << 64)
        return delay * (1.0 - self.jitter * fraction)


def lease_expired(deadline: Optional[float], now: float) -> bool:
    """Has a lease with ``deadline`` expired at ``now``?

    The boundary is deliberately *exclusive*: a result arriving exactly
    at the deadline is still inside the lease.
    """
    return deadline is not None and now > deadline


def slice_batches(
    indices: Sequence[int], batch_size: int
) -> List[List[int]]:
    """Slice a round's campaign indices into lease-sized batches.

    The layout is fixed when the round starts, so workers can come and
    go under it (the coordinator's batch fingerprints depend on it).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    seq = list(indices)
    return [seq[i:i + batch_size] for i in range(0, len(seq), batch_size)]


def local_batch_size(count: int, workers: int) -> int:
    """Batch size of a single-machine leased round of ``count`` items.

    ``count // (workers * 8)``, the sizing the ``multiprocessing.Pool``
    era used for its chunks: small enough that a lost batch retries
    cheaply, large enough that lease bookkeeping stays off the hot path.
    """
    return max(1, count // (max(1, workers) * 8))


# -- the ledger -------------------------------------------------------------


@dataclass
class Batch:
    """One ledger row: a batch and everything its lease history did."""

    batch_id: int
    indices: List[int]
    #: the distributed idempotency key
    #: (:func:`repro.fuzz.dist.protocol.batch_fingerprint`); local
    #: rounds leave it empty.
    fingerprint: str = ""
    status: str = "pending"   # pending | leased | done | quarantined
    #: attempts charged so far; a quarantined row holds the total.
    attempt: int = 0
    worker: Optional[str] = None
    #: on the caller's clock — epoch seconds in the coordinator, so a
    #: checkpointed deadline survives a restart.
    deadline: Optional[float] = None
    not_before: float = 0.0
    #: per-attempt failure fingerprints, oldest first — each is
    #: ``{"kind": ..., "detail": ..., "worker": ...}``.
    failures: List[Dict] = field(default_factory=list)
    results: Optional[List[Dict]] = None

    def to_payload(self) -> Dict:
        return {
            "batch_id": self.batch_id,
            "indices": list(self.indices),
            "fingerprint": self.fingerprint,
            "status": self.status,
            "attempt": self.attempt,
            "worker": self.worker,
            "deadline": self.deadline,
            "not_before": self.not_before,
            "failures": list(self.failures),
            "results": self.results,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "Batch":
        return cls(
            batch_id=int(payload["batch_id"]),
            indices=[int(i) for i in payload["indices"]],
            fingerprint=str(payload["fingerprint"]),
            status=str(payload["status"]),
            attempt=int(payload["attempt"]),
            worker=payload.get("worker"),
            deadline=payload.get("deadline"),
            not_before=float(payload.get("not_before", 0.0)),
            failures=list(payload.get("failures", [])),
            results=payload.get("results"),
        )


class LeaseLedger:
    """The batches of one round and the rules that lease them.

    Not thread-safe: the coordinator calls it under its own lock, the
    local runner from its one parent loop.
    """

    def __init__(self, rows: Iterable[Batch], policy: RetryPolicy) -> None:
        self.rows = list(rows)
        self.policy = policy

    @property
    def settled(self) -> bool:
        """Is every row done or quarantined?"""
        return all(
            row.status in ("done", "quarantined") for row in self.rows
        )

    @property
    def results(self) -> List[Dict]:
        """Every done row's results, in batch order."""
        return [
            res
            for row in self.rows if row.status == "done"
            for res in row.results or ()
        ]

    @property
    def quarantined(self) -> List[Batch]:
        return [row for row in self.rows if row.status == "quarantined"]

    @property
    def retries(self) -> int:
        """Failed attempts that earned another attempt."""
        failed = sum(len(row.failures) for row in self.rows)
        return failed - len(self.quarantined)

    def count(self, kind: str) -> int:
        """Failed attempts of ``kind`` ("crash", "timeout", ...)."""
        return sum(
            failure["kind"] == kind
            for row in self.rows for failure in row.failures
        )

    def grant(self, worker: str, now: float) -> Optional[Batch]:
        """Lease the first ready row to ``worker``; None if none is.

        A row is ready once it is pending and its retry window has
        opened.  A row ``worker`` failed last goes to it only when no
        other row is ready: repeated failures should cross distinct
        workers before a batch quarantines, when the fleet allows it.
        """
        ready = [
            row for row in self.rows
            if row.status == "pending" and row.not_before <= now
        ]
        if not ready:
            return None
        row = next(
            (
                r for r in ready
                if not r.failures or r.failures[-1].get("worker") != worker
            ),
            ready[0],
        )
        timeout = self.policy.lease_timeout_s
        row.status = "leased"
        row.worker = worker
        row.deadline = now + timeout if timeout is not None else None
        return row

    def inject(self, row: Batch) -> bool:
        """May ``row``'s current attempt inject faults?

        False only on the final attempt, and only when the policy keeps
        that attempt fault-free.
        """
        return not (
            self.policy.fault_free_final_attempt
            and row.attempt == self.policy.max_attempts - 1
        )

    def complete(self, row: Batch, results: List[Dict]) -> None:
        """Settle ``row`` with its results.

        Also after its lease expired: the work is correct, and the
        attempt bookkeeping is not report-bearing.
        """
        row.status = "done"
        row.results = results
        row.worker = None
        row.deadline = None

    def fail(self, row: Batch, kind: str, detail: object, now: float) -> bool:
        """One attempt at ``row`` failed: retry after a backoff, or
        quarantine once ``max_attempts`` are spent.  True if quarantined.
        """
        row.failures.append(
            {"kind": kind, "detail": detail, "worker": row.worker}
        )
        row.worker = None
        row.deadline = None
        row.attempt += 1
        if row.attempt >= self.policy.max_attempts:
            row.status = "quarantined"
            return True
        row.status = "pending"
        row.not_before = now + self.policy.backoff_s(
            row.attempt, key=(row.batch_id,)
        )
        return False

    def expired(self, now: float) -> List[Batch]:
        """Leased rows whose deadline has passed at ``now``."""
        return [
            row for row in self.rows
            if row.status == "leased" and lease_expired(row.deadline, now)
        ]

    def wake_at(self, now: float) -> Optional[float]:
        """When the ledger next changes without a worker event.

        That is the earliest lease deadline, or the earliest retry
        window still ahead of ``now``.  A row that is ready already
        waits for a worker, not for time.
        """
        times = [
            row.deadline for row in self.rows
            if row.status == "leased" and row.deadline is not None
        ]
        times += [
            row.not_before for row in self.rows
            if row.status == "pending" and row.not_before > now
        ]
        return min(times, default=None)


# -- the worker side --------------------------------------------------------


def _lease_worker(
    conn,
    task: BatchTask,
    initializer: Optional[Callable],
    initargs: Tuple,
    faults_state: Optional[str],
) -> None:
    """Worker main loop: lease in, results (or a soft error) out.

    Hard crashes (``os._exit``, SIGKILL) need no handling here — the
    parent sees the process sentinel fire and recovers.  Exceptions are
    *soft* failures: reported over the pipe, the worker stays up.
    """
    _faults.init_worker(faults_state)
    if initializer is not None:
        initializer(*initargs)
    while True:
        message = conn.recv()
        if message[0] == "stop":
            conn.close()
            return
        _, batch_id, indices, attempt, inject = message
        try:
            results = task(indices, attempt, inject)
        except BaseException as exc:  # noqa: BLE001 - forwarded, not hidden
            conn.send(("error", batch_id, repr(exc)))
        else:
            conn.send(("done", batch_id, results))


class _Worker:
    """Parent-side handle: process + pipe + the row it currently holds."""

    __slots__ = ("name", "process", "conn", "lease")

    def __init__(self, name: str, process, conn) -> None:
        self.name = name
        self.process = process
        self.conn = conn
        self.lease: Optional[Batch] = None


def _spawn_worker(
    name: str,
    task: BatchTask,
    initializer: Optional[Callable],
    initargs: Tuple,
) -> _Worker:
    parent_conn, child_conn = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_lease_worker,
        args=(
            child_conn, task, initializer, initargs,
            _faults.worker_init_state(),
        ),
        daemon=True,
    )
    process.start()
    child_conn.close()
    return _Worker(name, process, parent_conn)


# -- the local runner -------------------------------------------------------


def run_leased_batches(
    batches: Sequence[Sequence[int]],
    task: BatchTask,
    workers: int,
    initializer: Optional[Callable] = None,
    initargs: Tuple = (),
    policy: Optional[RetryPolicy] = None,
) -> LeaseLedger:
    """Run every batch through ``task`` on a pool of leased processes.

    Returns the settled ledger — every row done or quarantined; never
    raises on worker failure.  ``ledger.results`` come in batch order;
    callers sort on their item index, exactly as they did with
    ``Pool.map``.
    """
    policy = policy or RetryPolicy()
    ledger = LeaseLedger(
        (Batch(batch_id, list(b)) for batch_id, b in enumerate(batches)),
        policy,
    )
    pool: List[_Worker] = []
    spawned = 0

    def retire(worker: _Worker, kind: str, detail: object) -> None:
        """A worker died (or was killed): fail its lease, drop the handle."""
        if worker.lease is not None:
            ledger.fail(worker.lease, kind, detail, time.monotonic())
            worker.lease = None
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5)
        pool.remove(worker)

    try:
        while not ledger.settled:
            now = time.monotonic()
            # Lease ready rows to idle workers, spawning replacements up
            # to the pool size when crashes have thinned the pool.
            idle = [w for w in pool if w.lease is None]
            while idle or len(pool) < workers:
                name = idle[-1].name if idle else f"local-{spawned}"
                row = ledger.grant(name, now)
                if row is None:
                    break
                if idle:
                    worker = idle.pop()
                else:
                    worker = _spawn_worker(name, task, initializer, initargs)
                    pool.append(worker)
                    spawned += 1
                worker.lease = row
                try:
                    worker.conn.send((
                        "batch", row.batch_id, row.indices, row.attempt,
                        ledger.inject(row),
                    ))
                except (BrokenPipeError, OSError):
                    # Worker died before taking the lease; the batch
                    # never ran, so this is a crash attempt like any
                    # other (bounded — a worker that dies at init every
                    # time must not retry forever).
                    retire(worker, "crash", "worker died before lease")

            # Wake on: a result/pipe event, a worker death (sentinel), a
            # lease deadline, or a retry window opening.
            wake_at = ledger.wake_at(now)
            timeout = 0.5
            if wake_at is not None:
                timeout = min(timeout, max(0.0, wake_at - time.monotonic()))
            watch = {w.conn: w for w in pool if w.lease is not None}
            sentinels = {w.process.sentinel: w for w in pool}
            fired = _conn_wait(
                list(watch) + list(sentinels), timeout=timeout
            )

            handled = set()
            for obj in fired:
                worker = watch.get(obj) or sentinels.get(obj)
                if worker is None or id(worker) in handled:
                    continue
                handled.add(id(worker))
                if obj in sentinels and obj not in watch:
                    # Death notification; drain any final message first —
                    # a worker can send its result and *then* crash.
                    if worker.lease is None or not worker.conn.poll():
                        retire(
                            worker, "crash",
                            f"exit code {worker.process.exitcode}",
                        )
                        continue
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    retire(
                        worker, "crash",
                        f"exit code {worker.process.exitcode}",
                    )
                    continue
                kind, batch_id, payload = message
                row, worker.lease = worker.lease, None
                if row is None or row.batch_id != batch_id:
                    continue   # stale message from a superseded lease
                if kind == "done":
                    ledger.complete(row, payload)
                else:   # soft error inside the task
                    ledger.fail(row, "error", payload, time.monotonic())

            # Expired leases: the worker is wedged (hung item, injected
            # hang) — kill it and retry the batch elsewhere.
            for row in ledger.expired(time.monotonic()):
                worker = next(w for w in pool if w.lease is row)
                worker.process.kill()
                retire(
                    worker, "timeout",
                    f"lease exceeded {policy.lease_timeout_s}s",
                )
    finally:
        for worker in list(pool):
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in pool:
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
    return ledger
