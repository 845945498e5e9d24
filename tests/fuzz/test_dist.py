"""Distributed campaigns: protocol, coordinator semantics, HTTP parity.

The contract under test is the acceptance bar: the merged distributed
``PrecisionReport`` is byte-identical to a single-machine fault-free
campaign — under any worker count, duplicated result submissions, lease
expiry and re-issue, and a coordinator killed and resumed mid-round.
Coordinator unit tests drive an injectable clock so expiry and
staleness never sleep.
"""

import json
import shutil
import threading
import urllib.error
import urllib.request

import pytest

from repro import faults, obs
from repro.fuzz.campaign import (
    CampaignRun,
    CampaignSpec,
    _fuzz_batch,
    _set_worker_state,
    run_precision_campaign,
)
from repro.fuzz.dist import (
    Coordinator,
    CoordinatorConfig,
    batch_fingerprint,
    campaign_id,
    run_worker,
    validate_batch_results,
)
from repro.fuzz.resilience import Batch, RetryPolicy, slice_batches
from repro.api.dist import CoordinatorApi


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


SPEC = dict(budget=24, rounds=2, seed=42, max_insns=12,
            inputs_per_program=4, shrink=False)
#: Lighter spec for lease-mechanics tests that never compare reports.
SMALL = dict(budget=8, rounds=1, seed=7, max_insns=8,
             inputs_per_program=2, shrink=False)


def _report_bytes(result):
    return json.dumps(result.report.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def baseline():
    return _report_bytes(
        run_precision_campaign(CampaignSpec(workers=1, **SPEC))
    )


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _execute(coordinator, grant, worker="w"):
    """Compute one granted batch exactly as a remote worker would."""
    info = coordinator.round_info()
    _set_worker_state(CampaignSpec(**info["spec"]), tuple(info["pool"]))
    batch = grant["batch"]
    payload = {
        "schema_version": 1,
        "campaign_id": grant["campaign_id"],
        "worker": worker,
        "round": grant["round"],
        "batch_id": batch["batch_id"],
        "fingerprint": batch["fingerprint"],
        "attempt": batch["attempt"],
        "ok": True,
        "results": _fuzz_batch(
            batch["indices"], batch["attempt"], batch["inject"]
        ),
    }
    return json.loads(json.dumps(payload))   # faithful to the wire


def _drive(coordinator, clock, worker="w"):
    """Single in-process worker loop until the campaign finishes."""
    while not coordinator.finished:
        grant = coordinator.lease(worker)
        if grant.get("done"):
            break
        if "batch" not in grant:
            clock.advance(grant["wait"] + 0.01)   # retry backoff windows
            continue
        coordinator.ingest(_execute(coordinator, grant, worker))


class TestProtocol:
    def test_campaign_id_excludes_worker_count(self):
        a = CampaignSpec(workers=1, **SPEC)
        b = CampaignSpec(workers=8, **SPEC)
        assert campaign_id(a) == campaign_id(b)
        assert campaign_id(a) != campaign_id(
            CampaignSpec(workers=1, **{**SPEC, "seed": 43})
        )

    def test_fingerprint_excludes_attempt_but_scopes_everything_else(self):
        fp = batch_fingerprint("cid", 0, 1, [4, 5, 6])
        assert fp == batch_fingerprint("cid", 0, 1, [4, 5, 6])
        assert fp != batch_fingerprint("cid", 1, 1, [4, 5, 6])
        assert fp != batch_fingerprint("cid", 0, 2, [4, 5, 6])
        assert fp != batch_fingerprint("cid", 0, 1, [4, 5])
        assert fp != batch_fingerprint("other", 0, 1, [4, 5, 6])

    def test_slice_batches(self):
        assert slice_batches(range(7), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert slice_batches([], 3) == []
        with pytest.raises(ValueError):
            slice_batches(range(4), 0)

    def test_validate_batch_results(self):
        good = [{"index": 2, "x": 1}, {"index": 1, "x": 2}]
        assert validate_batch_results([1, 2], good) is good
        with pytest.raises(ValueError):
            validate_batch_results([1, 2], [{"index": 1}])       # missing
        with pytest.raises(ValueError):
            validate_batch_results([1], [{"index": 1}, {"index": 1}])
        with pytest.raises(ValueError):
            validate_batch_results([1], [{"no_index": True}])
        with pytest.raises(ValueError):
            validate_batch_results([1], {"index": 1})            # not a list


class TestCoordinatorParity:
    def test_report_byte_identical_to_single_machine(
        self, baseline, tmp_path
    ):
        clock = FakeClock()
        coordinator = Coordinator(
            CampaignSpec(workers=1, **SPEC), tmp_path / "state",
            config=CoordinatorConfig(batch_size=5), clock=clock,
        )
        _drive(coordinator, clock)
        assert coordinator.finished
        assert _report_bytes(coordinator.result()) == baseline

    def test_duplicate_ingest_is_counted_and_changes_nothing(
        self, baseline, tmp_path
    ):
        clock = FakeClock()
        coordinator = Coordinator(
            CampaignSpec(workers=1, **SPEC), tmp_path / "state",
            config=CoordinatorConfig(batch_size=4), clock=clock,
        )
        while not coordinator.finished:
            grant = coordinator.lease("w")
            if grant.get("done"):
                break
            if "batch" not in grant:
                clock.advance(grant["wait"] + 0.01)
                continue
            payload = _execute(coordinator, grant)
            assert coordinator.ingest(payload)["status"] == "accepted"
            # Every result reported twice: the second must dedupe (or,
            # when the first one settled the round, go stale against
            # the next round's ledger — either way it merges nothing).
            assert coordinator.ingest(payload)["status"] in (
                "duplicate", "stale",
            )
        stats = coordinator.stats_payload()
        assert stats["counters"]["results_duplicate"] > 0
        assert _report_bytes(coordinator.result()) == baseline

    def test_expired_lease_reissues_and_first_report_wins(
        self, baseline, tmp_path
    ):
        """The re-issue race: the 'dead' worker's late result lands
        first and wins; the re-issued worker's report is the duplicate.
        Report bytes stay identical throughout."""
        clock = FakeClock()
        coordinator = Coordinator(
            CampaignSpec(workers=1, **SPEC), tmp_path / "state",
            config=CoordinatorConfig(
                batch_size=4,
                retry=RetryPolicy(lease_timeout_s=10.0, backoff_base_s=0.01),
            ),
            clock=clock,
        )
        raced = 0
        while not coordinator.finished:
            grant = coordinator.lease("w1")
            if grant.get("done"):
                break
            if "batch" not in grant:
                clock.advance(grant["wait"] + 0.01)
                continue
            late = _execute(coordinator, grant, worker="w1")
            clock.advance(10.01)   # w1 'dies'; its lease expires
            coordinator.tick()     # expiry noticed, attempt charged
            clock.advance(1.0)     # past the retry backoff window
            regrant = coordinator.lease("w2")
            assert regrant["batch"]["fingerprint"] == \
                grant["batch"]["fingerprint"]
            assert regrant["batch"]["attempt"] == \
                grant["batch"]["attempt"] + 1
            duplicate = _execute(coordinator, regrant, worker="w2")
            # The original worker's late report arrives first and wins;
            # the re-issued worker's is the counted duplicate.
            assert coordinator.ingest(late)["status"] == "accepted"
            assert coordinator.ingest(duplicate)["status"] in (
                "duplicate", "stale",
            )
            raced += 1
        assert raced > 0
        counters = coordinator.stats_payload()["counters"]
        assert counters["leases_expired"] == raced
        assert coordinator.result().stats.retries == raced
        assert _report_bytes(coordinator.result()) == baseline

    def test_kill_and_resume_mid_round_matches(self, baseline, tmp_path):
        """SIGKILL-shaped resume: drop coordinator A mid-round (no
        cleanup), bring up B on the same state dir, finish, compare."""
        clock = FakeClock()
        spec = CampaignSpec(workers=1, **SPEC)
        config = CoordinatorConfig(
            batch_size=4, retry=RetryPolicy(lease_timeout_s=30.0)
        )
        a = Coordinator(spec, tmp_path / "state", config=config, clock=clock)
        # Complete two batches, leave a third leased-but-unreported,
        # then "crash" (drop every in-memory structure on the floor).
        for _ in range(2):
            grant = a.lease("w1")
            a.ingest(_execute(a, grant, worker="w1"))
        dangling = a.lease("w1")
        assert "batch" in dangling
        del a

        b = Coordinator(spec, tmp_path / "state", config=config, clock=clock)
        # The dangling lease survived the restart: it is NOT re-granted
        # before its (epoch) deadline passes...
        early = b.lease("w2")
        if "batch" in early:   # a different, still-pending batch is fine
            assert early["batch"]["fingerprint"] != \
                dangling["batch"]["fingerprint"]
            b.ingest(_execute(b, early, worker="w2"))
        clock.advance(30.01)
        # ...and is re-issued after it.
        _drive(b, clock, worker="w2")
        assert b.finished
        assert _report_bytes(b.result()) == baseline
        # Done batches were preserved, not re-executed: only the
        # dangling lease was ever reclaimed.
        assert b.stats_payload()["counters"]["leases_expired"] == 1

    def test_resume_is_deterministic_from_a_state_snapshot(
        self, baseline, tmp_path
    ):
        clock = FakeClock()
        spec = CampaignSpec(workers=1, **SPEC)
        config = CoordinatorConfig(batch_size=6)
        a = Coordinator(spec, tmp_path / "a", config=config, clock=clock)
        grant = a.lease("w")
        a.ingest(_execute(a, grant))
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        _drive(a, clock)
        clock_b = FakeClock(clock.t)
        b = Coordinator(spec, tmp_path / "b", config=config, clock=clock_b)
        _drive(b, clock_b, worker="other")
        assert _report_bytes(a.result()) == baseline
        assert _report_bytes(b.result()) == baseline


class TestCheckpointParity:
    def test_state_and_corpus_match_single_machine(self, tmp_path):
        """Both drivers close rounds through one ``CampaignRun``, so they
        leave the same checkpoint — seed admission, pool and corpus
        order included, not only the report."""
        spec = CampaignSpec(
            workers=1, budget=40, rounds=3, seed=42, max_insns=12,
            inputs_per_program=4,
        )
        assert spec.shrink
        local = tmp_path / "local"
        pooled = [0]
        for _ in range(spec.rounds):   # one round per call, resumed
            run_precision_campaign(spec, state_dir=local, stop_after_rounds=1)
            payload = json.loads((local / "state.json").read_text())
            pooled.append(payload["stats"]["seeds_pooled"])
        assert sum(b > a for a, b in zip(pooled, pooled[1:])) >= 2, \
            "want at least two rounds that admit mutation seeds"

        clock = FakeClock()
        coordinator = Coordinator(
            spec, tmp_path / "dist",
            config=CoordinatorConfig(batch_size=7), clock=clock,
        )
        _drive(coordinator, clock)
        assert coordinator.finished

        def state(name):
            payload = json.loads((tmp_path / name / "state.json").read_text())
            del payload["elapsed_s"], payload["programs_per_s"]
            del payload["stats"]["elapsed_seconds"]
            return payload

        assert state("dist") == state("local")
        assert (tmp_path / "dist" / "corpus.json").read_bytes() == \
            (local / "corpus.json").read_bytes()

    def test_coordinator_heartbeat_carries_the_campaign_fields(
        self, tmp_path
    ):
        spec = CampaignSpec(workers=1, **SMALL)
        clock = FakeClock()
        try:
            with obs.configure(obs_dir=tmp_path / "local"):
                run_precision_campaign(spec)
                local = obs.read_heartbeat(
                    tmp_path / "local" / "heartbeat.json"
                )
            with obs.configure(obs_dir=tmp_path / "dist"):
                coordinator = Coordinator(
                    spec, tmp_path / "state", clock=clock
                )
                _drive(coordinator, clock)
                dist = obs.read_heartbeat(tmp_path / "dist" / "heartbeat.json")
        finally:
            obs.reset()
        assert local["phase"] == "campaign"
        assert dist["phase"] == "dist-coordinator"
        assert set(dist) == set(local) | {"workers"}
        assert dist["workers"] == 1
        for key in ("round", "executed", "accepted", "rejected_clean",
                    "violations", "corpus_size", "pool_size"):
            assert dist[key] == local[key], key


class TestLeaseBoundary:
    """Expiry is strictly *after* the deadline — shared with the
    resilience runner via ``lease_expired`` (see test_resilience)."""

    def _one_batch(self, tmp_path, clock, **overrides):
        options = dict(
            batch_size=SMALL["budget"],   # the whole round, one lease
            retry=RetryPolicy(lease_timeout_s=10.0),
        )
        options.update(overrides)
        return Coordinator(
            CampaignSpec(workers=1, **SMALL), tmp_path / "state",
            config=CoordinatorConfig(**options), clock=clock,
        )

    def test_result_exactly_at_deadline_is_inside_the_lease(self, tmp_path):
        clock = FakeClock()
        coordinator = self._one_batch(tmp_path, clock)
        grant = coordinator.lease("w1")
        payload = _execute(coordinator, grant, worker="w1")
        clock.advance(10.0)   # now == deadline, to the tick
        assert coordinator.ingest(payload)["status"] == "accepted"
        assert coordinator.result().stats.retries == 0

    def test_lease_not_reissued_exactly_at_deadline(self, tmp_path):
        clock = FakeClock()
        coordinator = self._one_batch(
            tmp_path, clock,
            retry=RetryPolicy(lease_timeout_s=10.0, backoff_base_s=0.0),
        )
        granted = coordinator.lease("w1")
        clock.advance(10.0)
        # Exactly at the deadline the lease still stands: w2 waits.
        assert "batch" not in coordinator.lease("w2")
        clock.advance(0.01)
        regrant = coordinator.lease("w2")
        assert regrant["batch"]["fingerprint"] == \
            granted["batch"]["fingerprint"]
        assert regrant["batch"]["attempt"] == 1

    def test_result_just_after_expiry_still_accepted(self, tmp_path):
        """Late-but-valid work is never thrown away: after expiry (and
        after the failed attempt was recorded) the first report wins."""
        clock = FakeClock()
        coordinator = self._one_batch(
            tmp_path, clock,
            retry=RetryPolicy(lease_timeout_s=10.0, backoff_base_s=5.0),
        )
        grant = coordinator.lease("w1")
        payload = _execute(coordinator, grant, worker="w1")
        clock.advance(10.02)
        coordinator.tick()   # expiry noticed, batch back to pending
        assert coordinator.stats_payload()["counters"]["leases_expired"] == 1
        assert coordinator.ingest(payload)["status"] == "accepted"
        assert coordinator.finished

    def test_retry_policy_lease_timeout_governs_expiry(self, tmp_path):
        """One timeout setting: the ledger policy's ``lease_timeout_s``
        sets the deadline; 30 s is only the default policy's value."""
        assert CoordinatorConfig().retry.lease_timeout_s == 30.0
        clock = FakeClock()
        coordinator = self._one_batch(
            tmp_path, clock,
            retry=RetryPolicy(lease_timeout_s=5.0, backoff_base_s=0.0),
        )
        granted = coordinator.lease("w1")
        clock.advance(6.0)
        regrant = coordinator.lease("w2")
        assert regrant["batch"]["fingerprint"] == \
            granted["batch"]["fingerprint"]
        assert regrant["batch"]["attempt"] == 1
        failure = coordinator.ledger.rows[0].failures[0]
        assert failure == {
            "kind": "timeout", "detail": "lease exceeded 5.0s",
            "worker": "w1",
        }

    def test_stale_heartbeat_reissues_before_lease_expiry(self, tmp_path):
        clock = FakeClock()
        coordinator = self._one_batch(
            tmp_path, clock,
            heartbeat_timeout_s=5.0,
            retry=RetryPolicy(lease_timeout_s=1000.0, backoff_base_s=0.0),
        )
        coordinator.lease("w1")
        clock.advance(6.0)    # way inside the lease, way past heartbeats
        regrant = coordinator.lease("w2")
        assert regrant["batch"]["attempt"] == 1
        counters = coordinator.stats_payload()["counters"]
        assert counters["heartbeats_stale"] == 1
        assert counters.get("leases_expired", 0) == 0

    def test_failure_report_for_superseded_attempt_is_stale(self, tmp_path):
        clock = FakeClock()
        coordinator = self._one_batch(
            tmp_path, clock,
            retry=RetryPolicy(lease_timeout_s=10.0, backoff_base_s=0.0),
        )
        grant = coordinator.lease("w1")
        clock.advance(10.01)
        regrant = coordinator.lease("w2")   # reclaim + re-grant
        assert regrant["batch"]["attempt"] == 1
        late_error = {
            "worker": "w1",
            "fingerprint": grant["batch"]["fingerprint"],
            "attempt": grant["batch"]["attempt"],
            "ok": False, "error": "ValueError('flaky')",
        }
        # w1's late failure refers to attempt 0 — it must not clobber
        # w2's live lease.
        assert coordinator.ingest(late_error)["status"] == "stale"
        assert coordinator.stats_payload()["batches"]["leased"] == 1


class TestCoordinatorFailureHandling:
    def test_invalid_result_set_charges_an_attempt(self, tmp_path):
        clock = FakeClock()
        spec = CampaignSpec(workers=1, **SMALL)
        coordinator = Coordinator(
            spec, tmp_path / "state",
            config=CoordinatorConfig(
                batch_size=SMALL["budget"],
                retry=RetryPolicy(backoff_base_s=0.01),
            ),
            clock=clock,
        )
        grant = coordinator.lease("w1")
        bad = _execute(coordinator, grant, worker="w1")
        bad["results"] = bad["results"][:-1]   # truncated POST
        assert coordinator.ingest(bad)["status"] == "retrying"
        assert coordinator.stats_payload()["counters"]["results_rejected"] == 1
        clock.advance(1.0)
        regrant = coordinator.lease("w2")
        assert regrant["batch"]["attempt"] == 1
        coordinator.ingest(_execute(coordinator, regrant, worker="w2"))
        assert coordinator.finished
        assert coordinator.result().stats.quarantined == 0

    def test_repeated_failure_quarantines_with_attempt_suffix(
        self, tmp_path
    ):
        clock = FakeClock()
        spec = CampaignSpec(workers=1, **SMALL)
        coordinator = Coordinator(
            spec, tmp_path / "state",
            config=CoordinatorConfig(
                batch_size=SMALL["budget"],
                retry=RetryPolicy(
                    max_attempts=2, lease_timeout_s=10.0, backoff_base_s=0.01,
                ),
            ),
            clock=clock,
        )
        for _ in range(2):        # two grants, two expiries -> quarantine
            clock.advance(1.0)    # past any retry backoff
            grant = coordinator.lease("w1")
            assert "batch" in grant
            clock.advance(10.01)  # the lease expires
            coordinator.tick()
        assert coordinator.finished   # round completed *without* the batch
        result = coordinator.result()
        assert result.stats.quarantined == 1
        assert not result.ok
        assert result.quarantined[0]["fingerprints"][0]["kind"] == "timeout"
        poison = sorted((tmp_path / "state" / "poison").glob("*.json"))
        assert [p.name for p in poison] == ["round-000-batch-000-a02.json"]
        payload = json.loads(poison[0].read_text())
        assert payload["attempts"] == 2
        assert payload["programs"]

        # A resumed coordinator sees the quarantine in its saved stats
        # and leaves the artifact alone.
        resumed = Coordinator(
            spec, tmp_path / "state", clock=FakeClock(clock.t)
        )
        assert resumed.finished
        assert resumed.result().stats.quarantined == 1
        assert sorted(
            (tmp_path / "state" / "poison").glob("*.json")
        ) == poison

    def test_resume_recounts_open_quarantine_without_new_artifacts(
        self, tmp_path
    ):
        """Crash while the quarantining round is still open: the resume
        re-counts the quarantine from the ledger without re-writing (or
        suffix-bumping) the poison artifact."""
        clock = FakeClock()
        spec = CampaignSpec(workers=1, **SMALL)
        config = CoordinatorConfig(
            batch_size=4,
            retry=RetryPolicy(
                max_attempts=1, lease_timeout_s=10.0, backoff_base_s=0.0,
            ),
        )
        a = Coordinator(spec, tmp_path / "state", config=config, clock=clock)
        a.lease("w1")
        clock.advance(10.01)
        a.tick()   # single allowed attempt -> straight to quarantine
        assert a.result().stats.quarantined == 1
        assert not a.finished
        del a
        poison = sorted((tmp_path / "state" / "poison").glob("*.json"))
        assert [p.name for p in poison] == ["round-000-batch-000-a01.json"]

        b = Coordinator(spec, tmp_path / "state", config=config, clock=clock)
        assert b.result().stats.quarantined == 1
        assert len(b.result().quarantined) == 1
        assert sorted(
            (tmp_path / "state" / "poison").glob("*.json")
        ) == poison
        _drive(b, clock, worker="w2")   # the surviving batch completes
        assert b.finished
        assert not b.result().ok

    def test_requarantine_never_overwrites_poison_artifacts(self, tmp_path):
        """The attempt-count suffix plus collision bump: one file per
        quarantine event, even for the same batch at the same attempt."""
        spec = CampaignSpec(workers=1, **SMALL)
        batch = Batch(
            batch_id=0, indices=[0, 1], attempt=2,
            failures=[{"kind": "crash", "detail": "x"}] * 2,
        )
        run = CampaignRun(spec, tmp_path)
        for _ in range(3):
            run.quarantine([batch])
        assert run.stats.quarantined == 3
        names = sorted(p.name for p in tmp_path.glob("poison/*.json"))
        assert names == [
            "round-000-batch-000-a02.2.json",
            "round-000-batch-000-a02.3.json",
            "round-000-batch-000-a02.json",
        ]

    def test_stale_round_results_are_ignored(self, tmp_path):
        clock = FakeClock()
        spec = CampaignSpec(workers=1, **SPEC)
        coordinator = Coordinator(
            spec, tmp_path / "state",
            config=CoordinatorConfig(batch_size=SPEC["budget"]),
            clock=clock,
        )
        grant = coordinator.lease("w1")
        payload = _execute(coordinator, grant, worker="w1")
        assert coordinator.ingest(payload)["status"] == "accepted"
        # Round 0 merged; round 1 is live.  The same fingerprint again:
        assert coordinator.ingest(payload)["status"] == "stale"
        assert coordinator.stats_payload()["counters"]["results_stale"] == 1

    def test_corrupt_round_ledger_is_rebuilt(self, tmp_path):
        clock = FakeClock()
        spec = CampaignSpec(workers=1, **SMALL)
        a = Coordinator(spec, tmp_path / "state", clock=clock)
        a.lease("w1")
        (tmp_path / "state" / "round.json").write_text("{torn")
        b = Coordinator(spec, tmp_path / "state", clock=clock)
        # Rebuilt from scratch: the old lease is forgotten (deterministic
        # work re-runs; reports cannot change), and a fresh ledger is
        # immediately grantable.
        assert "batch" in b.lease("w2")


class TestCoordinatorHttp:
    def _serve(self, tmp_path, spec=None, **config):
        coordinator = Coordinator(
            spec or CampaignSpec(workers=1, **SPEC),
            tmp_path / "state",
            config=CoordinatorConfig(**config),
        )
        api = CoordinatorApi(coordinator).start()
        return coordinator, api

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.loads(response.read().decode())

    def _post(self, url, payload):
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read().decode())

    def test_workers_over_http_match_baseline_under_duplicates(
        self, baseline, tmp_path
    ):
        # Every result POST is sent twice: idempotent ingest must hold
        # end to end, over real sockets.
        faults.arm("seed=7,dist.result.duplicate=1")
        coordinator, api = self._serve(tmp_path, batch_size=4)
        try:
            stop = threading.Event()
            threads = [
                threading.Thread(
                    target=run_worker, args=(api.url,),
                    kwargs=dict(name=f"w{i}", stop=stop),
                )
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            stop.set()
            assert not any(t.is_alive() for t in threads)
        finally:
            api.stop()
        assert coordinator.finished
        counters = coordinator.stats_payload()["counters"]
        assert counters["results_duplicate"] > 0
        assert _report_bytes(coordinator.result()) == baseline

    def test_healthz_and_stats_echo_the_fault_plan(self, tmp_path):
        faults.arm("seed=9,dist.result.duplicate=0.5")
        coordinator, api = self._serve(
            tmp_path, spec=CampaignSpec(workers=1, **SMALL)
        )
        try:
            health = self._get(api.url + "/healthz")
            assert health["status"] == "ok"
            assert health["campaign_id"] == coordinator.cid
            assert health["faults"] == {
                "spec": "seed=9,dist.result.duplicate=0.5", "seed": 9,
            }
            stats = self._get(api.url + "/stats")
            assert stats["faults"]["seed"] == 9
            assert stats["batches"]["pending"] > 0
            faults.disarm()
            assert "faults" not in self._get(api.url + "/healthz")
        finally:
            api.stop()

    def test_wrong_campaign_is_a_structured_409(self, tmp_path):
        coordinator, api = self._serve(
            tmp_path, spec=CampaignSpec(workers=1, **SMALL)
        )
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._post(api.url + "/lease", {
                    "worker": "w1", "campaign_id": "someone-else",
                })
            assert err.value.code == 409
            body = json.loads(err.value.read().decode())
            assert body["error"]["code"] == "wrong-campaign"
            # The coordinator never saw it as a protocol event.
            assert "leases_granted" not in \
                coordinator.stats_payload()["counters"]
        finally:
            api.stop()

    def test_worker_rides_out_dropped_posts(self, baseline, tmp_path):
        # POSTs "drop" until the bounded retry loop forces them through
        # — the campaign still completes and still matches.
        faults.arm("seed=3,dist.result.drop=0.7")
        coordinator, api = self._serve(tmp_path, batch_size=6)
        try:
            out = run_worker(
                api.url, name="w1",
                policy=RetryPolicy(backoff_base_s=0.01),
            )
        finally:
            api.stop()
        assert out["batches"] > 0
        assert coordinator.finished
        assert _report_bytes(coordinator.result()) == baseline
