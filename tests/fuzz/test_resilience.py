"""Leased batches, crash recovery, and chaos-parity of campaign reports.

The batch tasks here are module-level on purpose: they cross the process
boundary by name (fork or spawn), exactly like the campaign's own
``_fuzz_batch``.
"""

import json
import os
import time

import pytest

from repro import faults
from repro.fuzz import CampaignSpec, fuzz_spec
from repro.fuzz.campaign import run_precision_campaign
from repro.fuzz import resilience
from repro.fuzz.resilience import (
    Batch,
    LeaseLedger,
    RetryPolicy,
    lease_expired,
    local_batch_size,
    run_leased_batches,
    slice_batches,
)


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


def _echo_task(indices, attempt, inject):
    return [{"index": i, "attempt": attempt} for i in indices]


def _crash_first_attempt_task(indices, attempt, inject):
    if attempt == 0:
        os._exit(faults.WORKER_CRASH_EXIT_CODE)
    return [{"index": i, "attempt": attempt} for i in indices]


def _always_crash_task(indices, attempt, inject):
    os._exit(faults.WORKER_CRASH_EXIT_CODE)


def _soft_error_task(indices, attempt, inject):
    if attempt == 0:
        raise ValueError("flaky once")
    return [{"index": i} for i in indices]


def _hang_task(indices, attempt, inject):
    if attempt == 0:
        time.sleep(60)
    return [{"index": i} for i in indices]


def _busy_task(indices, attempt, inject):
    time.sleep(0.02)
    return [{"index": i} for i in indices]


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_max_s=0.35, jitter=0.0
        )
        assert policy.backoff_s(0) == 0.0
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.35)   # capped

    def test_jitter_stays_inside_the_window_and_desynchronizes(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_max_s=10.0,
                             jitter=0.5, seed=42)
        delays = [policy.backoff_s(2, key=(b,)) for b in range(32)]
        # Every delay lands in [delay * (1 - jitter), delay] ...
        assert all(0.1 <= d <= 0.2 for d in delays)
        # ... and distinct batches land at distinct points (no storm).
        assert len(set(delays)) > 16

    def test_jitter_is_deterministic_per_seed_and_key(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        c = RetryPolicy(seed=8)
        assert a.backoff_s(3, key=(5,)) == b.backoff_s(3, key=(5,))
        assert a.backoff_s(3, key=(5,)) != c.backoff_s(3, key=(5,))
        assert a.backoff_s(3, key=(5,)) != a.backoff_s(3, key=(6,))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(lease_timeout_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestBatchIndices:
    def test_covers_every_index_once(self):
        batches = slice_batches(range(100), local_batch_size(100, workers=4))
        flat = [i for batch in batches for i in batch]
        assert flat == list(range(100))

    def test_small_rounds_still_batch(self):
        assert slice_batches(
            range(3), local_batch_size(3, workers=8)
        ) == [[0], [1], [2]]


class TestLeaseRunner:
    def test_happy_path(self):
        batches = slice_batches(range(20), local_batch_size(20, workers=2))
        out = run_leased_batches(batches, _echo_task, workers=2)
        assert sorted(r["index"] for r in out.results) == list(range(20))
        assert not out.quarantined and out.retries == 0

    def test_crash_retries_and_recovers(self):
        out = run_leased_batches(
            [[0, 1], [2, 3]], _crash_first_attempt_task, workers=2,
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert sorted(r["index"] for r in out.results) == [0, 1, 2, 3]
        assert out.count("crash") >= 2 and out.retries >= 2
        assert not out.quarantined

    def test_unrecoverable_batch_quarantines(self):
        out = run_leased_batches(
            [[0, 1]], _always_crash_task, workers=1,
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
        )
        assert out.results == []
        assert len(out.quarantined) == 1
        batch = out.quarantined[0]
        assert batch.indices == [0, 1] and batch.attempt == 2
        assert all(fp["kind"] == "crash" for fp in batch.failures)
        payload = batch.to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_soft_error_retries(self):
        out = run_leased_batches(
            [[0], [1]], _soft_error_task, workers=2,
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert sorted(r["index"] for r in out.results) == [0, 1]
        assert out.count("error") == 2 and not out.quarantined

    def test_lease_timeout_kills_and_retries(self):
        out = run_leased_batches(
            [[0]], _hang_task, workers=1,
            policy=RetryPolicy(
                max_attempts=2, lease_timeout_s=0.5, backoff_base_s=0.01,
            ),
        )
        assert [r["index"] for r in out.results] == [0]
        assert out.count("timeout") == 1 and out.retries == 1

    def test_empty_batches(self):
        out = run_leased_batches([], _echo_task, workers=2)
        assert out.results == [] and not out.quarantined

    def test_parent_sleeps_while_every_worker_is_busy(self, monkeypatch):
        """Batches that wait for a worker wake the parent only on worker
        events, so it waits about once per batch instead of spinning on
        zero-timeout polls."""
        timeouts = []
        real_wait = resilience._conn_wait

        def counting_wait(objects, timeout=None):
            timeouts.append(timeout)
            return real_wait(objects, timeout=timeout)

        monkeypatch.setattr(resilience, "_conn_wait", counting_wait)
        batches = slice_batches(range(32), 1)
        out = run_leased_batches(batches, _busy_task, workers=2)
        assert sorted(r["index"] for r in out.results) == list(range(32))
        assert len(timeouts) <= 3 * len(batches), len(timeouts)


def _ledger(batches, **policy):
    return LeaseLedger(
        (Batch(batch_id, [batch_id]) for batch_id in range(batches)),
        RetryPolicy(**policy),
    )


class TestLeaseLedger:
    """The ledger's rules, driven with an explicit ``now``: no
    processes, no sleeps."""

    def test_grants_in_batch_order_until_none_is_ready(self):
        ledger = _ledger(3, lease_timeout_s=5.0)
        rows = [ledger.grant("w", 10.0) for _ in range(3)]
        assert [row.batch_id for row in rows] == [0, 1, 2]
        assert all(row.status == "leased" for row in rows)
        assert all(row.worker == "w" and row.deadline == 15.0 for row in rows)
        assert ledger.grant("w", 10.0) is None

    def test_prefers_a_batch_the_worker_has_not_failed(self):
        ledger = _ledger(2, backoff_base_s=0.0)
        ledger.fail(ledger.grant("w1", 0.0), "error", "boom", 0.0)
        # Batch 0 failed on w1 last: w1 gets batch 1, w2 gets batch 0.
        assert ledger.grant("w1", 0.0).batch_id == 1
        assert ledger.grant("w2", 0.0).batch_id == 0

    def test_a_failed_batch_returns_to_its_worker_when_nothing_else_is_ready(
        self
    ):
        ledger = _ledger(1, backoff_base_s=0.0)
        ledger.fail(ledger.grant("w1", 0.0), "error", "boom", 0.0)
        row = ledger.grant("w1", 0.0)
        assert row.batch_id == 0 and row.attempt == 1

    @pytest.mark.parametrize("fault_free", [True, False])
    def test_inject_is_false_only_on_a_fault_free_final_attempt(
        self, fault_free
    ):
        ledger = _ledger(
            1, max_attempts=3, backoff_base_s=0.0,
            fault_free_final_attempt=fault_free,
        )
        flags = []
        for _ in range(3):
            row = ledger.grant("w", 0.0)
            flags.append(ledger.inject(row))
            ledger.fail(row, "crash", "exit code 86", 0.0)
        assert flags == [True, True, not fault_free]

    def test_a_retry_is_not_granted_before_its_window_opens(self):
        ledger = _ledger(1, backoff_base_s=1.0, jitter=0.0)
        ledger.fail(ledger.grant("w", 10.0), "crash", "exit code 86", 10.0)
        row = ledger.rows[0]
        assert row.status == "pending" and row.not_before == 11.0
        assert ledger.grant("w", 10.999) is None
        assert ledger.grant("w", 11.0) is row

    def test_quarantine_at_max_attempts_keeps_every_failure(self):
        ledger = _ledger(1, max_attempts=2, backoff_base_s=0.0)
        assert not ledger.fail(
            ledger.grant("w1", 0.0), "crash", "exit code 86", 0.0
        )
        assert ledger.fail(
            ledger.grant("w2", 0.0), "timeout", "lease exceeded 5.0s", 0.0
        )
        row = ledger.rows[0]
        assert row.status == "quarantined" and row.attempt == 2
        assert row.failures == [
            {"kind": "crash", "detail": "exit code 86", "worker": "w1"},
            {"kind": "timeout", "detail": "lease exceeded 5.0s",
             "worker": "w2"},
        ]
        assert ledger.settled and ledger.quarantined == [row]
        assert ledger.retries == 1 and ledger.count("crash") == 1
        assert ledger.grant("w3", 0.0) is None

    def test_expiry_is_strictly_after_the_deadline(self):
        ledger = _ledger(1, lease_timeout_s=5.0)
        row = ledger.grant("w", 100.0)
        assert ledger.expired(105.0) == []
        assert ledger.expired(105.001) == [row]

    def test_no_lease_timeout_never_expires(self):
        ledger = _ledger(1)
        assert ledger.grant("w", 0.0).deadline is None
        assert ledger.expired(1e12) == []

    def test_a_completion_after_expiry_is_still_accepted(self):
        ledger = _ledger(1, lease_timeout_s=5.0, backoff_base_s=0.0)
        row = ledger.grant("w1", 0.0)
        for late in ledger.expired(5.5):
            ledger.fail(late, "timeout", "lease exceeded 5.0s", 5.5)
        assert row.status == "pending" and row.attempt == 1
        ledger.complete(row, [{"index": 0}])
        assert row.status == "done" and ledger.settled
        assert ledger.results == [{"index": 0}] and ledger.retries == 1

    def test_wake_at_counts_deadlines_and_future_retry_windows_only(self):
        ledger = _ledger(3, lease_timeout_s=5.0, backoff_base_s=1.0,
                         jitter=0.0)
        assert ledger.wake_at(0.0) is None   # ready rows wait for workers
        ledger.grant("w1", 0.0)
        assert ledger.wake_at(0.0) == 5.0
        ledger.fail(ledger.grant("w2", 0.0), "crash", "exit code 86", 0.5)
        assert ledger.wake_at(1.0) == 1.5
        assert ledger.wake_at(2.0) == 5.0    # that retry is ready by now


def _report_bytes(result):
    return json.dumps(result.report.to_dict(), sort_keys=True)


class TestChaosParity:
    """Injected worker crashes must not change the campaign's output."""

    SPEC = dict(budget=24, rounds=2, seed=42, max_insns=12,
                inputs_per_program=4, shrink=False)

    @pytest.fixture(scope="class")
    def baseline(self):
        return _report_bytes(
            run_precision_campaign(CampaignSpec(workers=1, **self.SPEC))
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_report_byte_identical_under_crashes(self, workers, baseline):
        faults.arm("seed=7,campaign.worker.crash=0.5")
        result = run_precision_campaign(
            CampaignSpec(workers=workers, **self.SPEC),
            retry_policy=RetryPolicy(backoff_base_s=0.01),
        )
        assert result.stats.retries > 0          # chaos actually happened
        assert result.stats.quarantined == 0     # ...and was fully absorbed
        assert _report_bytes(result) == baseline

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_resume_mid_campaign_under_crashes(
        self, workers, baseline, tmp_path
    ):
        """Kill-and-resume: one round, stop, resume under injected crashes."""
        faults.arm("seed=7,campaign.worker.crash=0.4")
        state = tmp_path / f"state-{workers}"
        spec = CampaignSpec(workers=workers, **self.SPEC)
        policy = RetryPolicy(backoff_base_s=0.01)
        first = run_precision_campaign(
            spec, state_dir=state, stop_after_rounds=1, retry_policy=policy,
        )
        assert first.stats.rounds_completed == 1
        resumed = run_precision_campaign(
            spec, state_dir=state, retry_policy=policy,
        )
        assert resumed.stats.rounds_completed == spec.rounds
        assert _report_bytes(resumed) == baseline


class TestQuarantineArtifacts:
    def test_poison_batches_written_and_reported(self, tmp_path):
        faults.arm("seed=7,campaign.worker.crash=1")
        spec = CampaignSpec(
            budget=8, rounds=1, seed=1, workers=2, max_insns=8,
            inputs_per_program=2, shrink=False,
        )
        # No fault-free last attempt: every batch crashes to exhaustion.
        result = run_precision_campaign(
            spec, state_dir=tmp_path / "state",
            retry_policy=RetryPolicy(
                max_attempts=2, backoff_base_s=0.01,
                fault_free_final_attempt=False,
            ),
        )
        assert result.stats.quarantined == len(result.quarantined) > 0
        assert not result.ok
        poison = sorted((tmp_path / "state" / "poison").glob("*.json"))
        assert len(poison) == len(result.quarantined)
        payload = json.loads(poison[0].read_text())
        assert payload["attempts"] == 2
        assert payload["fingerprints"][0]["kind"] == "crash"
        assert payload["programs"], "poison batch must name its programs"
        for program in payload["programs"]:
            assert set(program) >= {"index", "seed", "origin", "bytecode_hex"}


class TestDriverChaos:
    """``repro fuzz`` (the one-round, feedback-free campaign) under
    worker kills."""

    def test_fuzz_driver_recovers_and_matches(self):
        config = dict(budget=30, seed=3, max_insns=10, shrink=False)
        base = run_precision_campaign(fuzz_spec(workers=1, **config))
        faults.arm("seed=5,campaign.worker.crash=0.5")
        chaos = run_precision_campaign(
            fuzz_spec(workers=2, **config),
            retry_policy=RetryPolicy(backoff_base_s=0.01),
        )
        assert chaos.stats.retries > 0
        assert chaos.stats.quarantined == 0
        for field in ("executed", "accepted", "rejected", "rejected_clean",
                      "violations", "containment_checks"):
            assert getattr(chaos.stats, field) == getattr(base.stats, field)

    def test_quarantined_batches_fail_the_run(self):
        faults.arm("seed=5,campaign.worker.crash=1")
        # No fault-free last attempt: every batch crashes to exhaustion.
        result = run_precision_campaign(
            fuzz_spec(budget=12, seed=3, max_insns=10, shrink=False,
                      workers=2),
            retry_policy=RetryPolicy(
                max_attempts=2, backoff_base_s=0.01,
                fault_free_final_attempt=False,
            ),
        )
        assert result.stats.executed == 0
        assert result.stats.quarantined > 0
        assert not result.ok


class TestLeaseExpiry:
    """The boundary both lease schedulers share: expiry is strictly
    *after* the deadline (a result landing exactly at the deadline is
    still inside the lease).  The distributed coordinator pins the same
    semantics end to end in tests/fuzz/test_dist.py."""

    def test_no_deadline_never_expires(self):
        assert not lease_expired(None, 1e12)

    def test_before_the_deadline(self):
        assert not lease_expired(100.0, 99.999)

    def test_exactly_at_the_deadline_is_not_expired(self):
        assert not lease_expired(100.0, 100.0)

    def test_just_after_the_deadline_is_expired(self):
        assert lease_expired(100.0, 100.001)
