"""The service core: caching, single-flight dedup, persistence."""

import json
import threading

import pytest

from repro.api import MAX_CTX_SIZE, VerificationService, VerifyRequest
from repro.bpf import assemble
from repro.fuzz import generate_program, program_seed
from repro.fuzz.generator import PROFILES

ACCEPTED = "mov r0, 7\nadd r0, 3\nexit"
REJECTED = "ldxdw r0, [r10-8]\nexit"


def request_for(text, **payload_extra):
    program = assemble(text)
    payload = {"program_hex": program.to_bytes().hex()}
    payload.update(payload_extra)
    return VerifyRequest.from_json_payload(payload)


@pytest.fixture
def service():
    svc = VerificationService(workers=4)
    yield svc
    svc.close()


class TestVerify:
    def test_accept(self, service):
        verdict = service.verify(request_for(ACCEPTED))
        assert verdict.ok and verdict.verdict == "accept"
        assert not verdict.cached
        assert service.stats()["verifications"] == 1

    def test_reject_with_error_detail(self, service):
        verdict = service.verify(request_for(REJECTED))
        assert not verdict.ok
        assert verdict.error is not None
        assert "uninitialized" in verdict.error.reason

    def test_repeat_submission_is_a_cache_hit(self, service):
        cold = service.verify(request_for(ACCEPTED))
        warm = service.verify(request_for(ACCEPTED))
        assert not cold.cached and warm.cached
        assert cold.canonical_hash == warm.canonical_hash
        assert cold.ok == warm.ok
        assert cold.insns_processed == warm.insns_processed
        stats = service.stats()
        assert stats["verifications"] == 1
        assert stats["cache"]["hits"] == 1

    def test_structurally_identical_spellings_share_a_verdict(self, service):
        # -1 and 0xFFFFFFFFFFFFFFFF are the same canonical immediate.
        a = service.verify(request_for("mov r0, -1\nexit"))
        b = request_for("mov r0, -1\nexit")
        assert service.verify(b).cached
        assert a.canonical_hash == b.program.canonical_hash()

    def test_distinct_ctx_sizes_verify_separately(self, service):
        service.verify(request_for(ACCEPTED))
        other = request_for(ACCEPTED, ctx_size=32)
        assert not service.verify(other).cached
        assert service.stats()["verifications"] == 2

    @pytest.mark.parametrize("ctx_size", [-1, MAX_CTX_SIZE + 1])
    def test_bad_default_ctx_size_rejected(self, ctx_size):
        # The range POST /verify enforces on a request's ctx_size.
        with pytest.raises(ValueError, match="out of range"):
            VerificationService(default_ctx_size=ctx_size)

    def test_rejects_are_cached_too(self, service):
        service.verify(request_for(REJECTED))
        warm = service.verify(request_for(REJECTED))
        assert warm.cached and not warm.ok
        assert warm.error is not None and warm.error.reason

    def test_precision_summary_on_hit_and_miss(self, service):
        cold = service.verify(request_for(ACCEPTED, precision=True))
        warm = service.verify(request_for(ACCEPTED, precision=True))
        assert cold.precision == warm.precision
        assert cold.precision["transfers"] > 0

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_hit_renders_what_the_miss_did(self, profile, tmp_path):
        # Precision on: the summary a hit renders from the stored event
        # stream must be the one the walk produced, in memory and after
        # a restart from the saved store.
        programs = [
            generate_program(program_seed(7, i), profile).program
            for i in range(100)
        ] + [assemble(REJECTED)]
        requests = [
            VerifyRequest.from_json_payload({
                "program_hex": program.to_bytes().hex(),
                "precision": True,
            })
            for program in programs
        ]
        path = str(tmp_path / "verdicts.json")
        with VerificationService(cache_path=path) as svc:
            misses = [svc.verify(r).to_payload() for r in requests]
            hits = [svc.verify(r).to_payload() for r in requests]
        with VerificationService(cache_path=path) as restarted:
            reloaded = [restarted.verify(r).to_payload() for r in requests]
            assert restarted.stats()["verifications"] == 0
        assert not misses[-1]["ok"]
        for miss, hit, again in zip(misses, hits, reloaded):
            assert hit["cached"] and again["cached"]
            assert dict(hit, cached=miss["cached"]) == miss
            assert dict(again, cached=miss["cached"]) == miss

    def test_states_bypass_the_cache(self, service):
        service.verify(request_for(ACCEPTED))
        with_states = service.verify(request_for(ACCEPTED, states=True))
        assert not with_states.cached
        assert with_states.states    # reached indices rendered
        assert all(isinstance(v, str) for v in with_states.states.values())
        assert service.stats()["verifications"] == 2

    def test_lookup(self, service):
        verdict = service.verify(request_for(ACCEPTED))
        found = service.lookup(verdict.canonical_hash, verdict.ctx_size)
        assert found is not None and found.cached and found.ok
        assert service.lookup("0" * 64, 64) is None


class TestSingleFlight:
    def test_concurrent_identical_posts_verify_once(self):
        svc = VerificationService(workers=4)
        n = 8
        arrived = threading.Event()
        release = threading.Event()
        inner = svc._verify_miss

        def slow_miss(key, request):
            # Leader announces the in-flight walk, then blocks so the
            # followers pile up on the flight before it resolves.
            arrived.set()
            release.wait(timeout=10)
            return inner(key, request)

        svc._verify_miss = slow_miss
        verdicts = [None] * n
        errors = []

        def worker(i):
            try:
                verdicts[i] = svc.verify(request_for(ACCEPTED))
            except Exception as exc:   # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        assert arrived.wait(timeout=10)   # leader is inside the walk
        # Followers never call _verify_miss — whether they join the
        # flight or land after the store, the walk count stays 1.
        release.set()
        for t in threads:
            t.join(timeout=30)
        svc.close()

        assert not errors
        assert all(v is not None and v.ok for v in verdicts)
        stats = svc.stats()
        assert stats["verifications"] == 1
        assert sum(1 for v in verdicts if not v.cached) == 1
        assert sum(1 for v in verdicts if v.cached) == n - 1
        assert stats["cache"]["hits"] >= n - 1

    def test_single_flight_counts_followers_as_hits(self):
        svc = VerificationService(workers=2)
        n = 6
        started = threading.Barrier(n)
        inner = svc._verify_miss
        entered = threading.Event()
        block = threading.Event()

        def slow_miss(key, request):
            entered.set()
            block.wait(timeout=10)
            return inner(key, request)

        svc._verify_miss = slow_miss

        def worker():
            started.wait(timeout=10)
            svc.verify(request_for(ACCEPTED))

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        entered.wait(timeout=10)
        block.set()
        for t in threads:
            t.join(timeout=30)
        svc.close()
        stats = svc.stats()
        assert stats["verifications"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hits"] == n - 1


class TestPersistence:
    def test_store_round_trip(self, tmp_path):
        path = str(tmp_path / "verdicts.json")
        with VerificationService(cache_path=path) as svc:
            svc.verify(request_for(ACCEPTED))
        # close() saved; a new service answers from the store.
        with VerificationService(cache_path=path) as warm:
            verdict = warm.verify(request_for(ACCEPTED))
            assert verdict.cached
            assert warm.stats()["verifications"] == 0

    def test_corrupt_store_is_a_clear_error(self, tmp_path):
        path = tmp_path / "verdicts.json"
        with VerificationService(cache_path=str(path)) as svc:
            svc.verify(request_for(ACCEPTED))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])   # partially written file
        with pytest.raises(ValueError) as exc:
            VerificationService(cache_path=str(path))
        message = str(exc.value)
        assert "corrupt or truncated" in message
        assert str(path) in message

    def test_cache_size_bounds_entries(self):
        svc = VerificationService(cache_size=1, workers=1)
        svc.verify(request_for(ACCEPTED))
        svc.verify(request_for(REJECTED))
        stats = svc.stats()
        assert stats["cache"]["entries"] == 1
        assert stats["cache"]["evictions"] == 1
        svc.close()


class TestStatsShape:
    def test_stats_payload_keys(self, service):
        service.verify(request_for(ACCEPTED))
        stats = service.stats()
        for key in ("requests", "verifications", "rejections", "inflight",
                    "workers", "uptime_s", "cache"):
            assert key in stats
        for key in ("hits", "misses", "evictions", "entries",
                    "max_entries", "hit_rate"):
            assert key in stats["cache"]
        json.dumps(stats)   # must be JSON-serializable as-is

    def test_healthz(self, service):
        payload = service.healthz()
        assert payload["status"] == "ok"
        json.dumps(payload)
