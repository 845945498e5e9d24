"""Service degradation: load shedding (503), deadlines (504), liveness.

Injected hangs come from the ``service.verify.hang`` fault site, so
every scenario here is deterministic — no reliance on real slow
programs.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.api import ApiServer, VerificationService, VerifyRequest
from repro.api.service import DeadlineExceeded, ServiceOverloaded
from repro.bpf import assemble


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


def request_for(text, **extra):
    payload = {"program_hex": assemble(text).to_bytes().hex()}
    payload.update(extra)
    return VerifyRequest.from_json_payload(payload)


def distinct_program(i):
    return f"mov r0, {i}\nadd r0, 1\nexit"


class TestServiceDeadline:
    def test_hung_verification_raises_deadline(self):
        faults.arm("seed=1,service.verify.hang=1:2")
        with VerificationService(workers=1, request_timeout_s=0.2) as svc:
            with pytest.raises(DeadlineExceeded):
                svc.verify(request_for(distinct_program(0)))
            stats = svc.stats()
            assert stats["timeouts"] >= 1
            # Nothing was cached for the timed-out request.
            assert stats["cache"]["entries"] == 0

    def test_followers_inherit_the_leader_timeout(self):
        faults.arm("seed=1,service.verify.hang=1:2")
        with VerificationService(workers=2, request_timeout_s=0.3) as svc:
            request = request_for(distinct_program(1))
            outcomes = []

            def submit():
                try:
                    svc.verify(request)
                    outcomes.append("ok")
                except DeadlineExceeded:
                    outcomes.append("timeout")

            threads = [threading.Thread(target=submit) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert outcomes == ["timeout"] * 3

    def test_no_deadline_means_no_timeout(self):
        with VerificationService(workers=1) as svc:
            verdict = svc.verify(request_for(distinct_program(2)))
            assert verdict.ok
            assert svc.stats()["timeouts"] == 0

    def test_verifier_watchdog_bounds_the_walk(self):
        # The in-walk hang (not the service-level one) also surfaces as
        # a deadline: the walk's own watchdog stops it.
        faults.arm("seed=1,verify.hang=1:0.5")
        with VerificationService(workers=1, request_timeout_s=0.2) as svc:
            with pytest.raises(DeadlineExceeded):
                svc.verify(request_for(distinct_program(3)))

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            VerificationService(max_queue=0)
        with pytest.raises(ValueError):
            VerificationService(request_timeout_s=0)


class TestServiceShedding:
    def test_full_queue_sheds_with_retry_after(self):
        faults.arm("seed=1,service.verify.hang=1:1")
        with VerificationService(workers=1, max_queue=1) as svc:
            started = threading.Event()
            done = []

            def occupy():
                started.set()
                done.append(svc.verify(request_for(distinct_program(10))))

            thread = threading.Thread(target=occupy)
            thread.start()
            started.wait()
            # Let the first request reach the pool before probing.
            deadline = 50
            shed = None
            for _ in range(deadline):
                try:
                    if svc.stats()["queued"] >= 1:
                        svc.verify(request_for(distinct_program(11)))
                        break
                except ServiceOverloaded as exc:
                    shed = exc
                    break
                threading.Event().wait(0.05)
            thread.join(timeout=15)
            assert shed is not None
            assert shed.retry_after_s >= 1
            assert svc.stats()["shed"] == 1
            assert done and done[0].ok   # the occupying request finished

    def test_cache_hits_are_never_shed(self):
        with VerificationService(workers=1, max_queue=1) as svc:
            request = request_for(distinct_program(12))
            assert svc.verify(request).ok
            with svc._lock:
                svc._queued = 5   # simulate a saturated queue
            # A repeat submission answers from the cache, not the pool.
            assert svc.verify(request).cached


@pytest.fixture
def chaos_server():
    faults.arm("seed=1,service.verify.hang=1:1.5")
    service = VerificationService(
        workers=1, max_queue=1, request_timeout_s=0.4
    )
    api = ApiServer(service).start()
    yield api, service
    api.stop()
    service.close()
    faults.disarm()


def _post(url, payload, timeout=15):
    request = urllib.request.Request(
        url + "/verify",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def _get(url, path, timeout=5):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestHttpDegradation:
    def test_504_is_structured_and_healthz_stays_live(self, chaos_server):
        api, service = chaos_server
        payload = {"program_hex": assemble(distinct_program(20))
                   .to_bytes().hex()}
        status, _, body = _post(api.url, payload)
        assert status == 504
        assert body["error"]["code"] == "deadline-exceeded"
        assert "schema_version" in body
        # Liveness is isolated from the saturated verification pool.
        status, health = _get(api.url, "/healthz")
        assert status == 200 and health["status"] == "ok"

    def test_503_carries_retry_after(self, chaos_server):
        api, service = chaos_server
        statuses = {}
        lock = threading.Lock()

        def submit(i):
            payload = {"program_hex": assemble(distinct_program(30 + i))
                       .to_bytes().hex()}
            status, headers, body = _post(api.url, payload)
            with lock:
                statuses[i] = (status, headers, body)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        codes = sorted(s for s, _, _ in statuses.values())
        assert 503 in codes, codes
        for status, headers, body in statuses.values():
            if status == 503:
                assert body["error"]["code"] == "overloaded"
                assert int(headers["Retry-After"]) >= 1
            else:
                assert status == 504   # the rest ran into the deadline

    def test_metrics_expose_shed_and_timeouts(self, chaos_server):
        api, service = chaos_server
        payload = {"program_hex": assemble(distinct_program(40))
                   .to_bytes().hex()}
        _post(api.url, payload)   # one 504
        with urllib.request.urlopen(api.url + "/metrics", timeout=5) as r:
            body = r.read().decode()
        assert "repro_api_timeouts_total" in body
        assert "repro_api_shed_total" in body
        status, stats = _get(api.url, "/stats")
        assert status == 200
        assert stats["service"]["timeouts"] >= 1
        assert stats["service"]["max_queue"] == 1
