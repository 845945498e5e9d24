"""VerdictCache.save atomicity and the verifier's wall-clock watchdog."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.api import VerificationService, VerifyRequest
from repro.api.service import DeadlineExceeded
from repro.bpf import assemble
from repro.bpf.canon import CachedVerdict, VerdictCache
from repro.bpf.verifier import Verifier

ACCEPTED = "mov r0, 7\nadd r0, 3\nexit"

#: This checkout's sources, for child interpreters.
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


def _put_walk(cache, text):
    """Walk ``text`` once and put the recorded verdict into ``cache``."""
    program = assemble(text)
    events = []
    result = Verifier(
        on_transfer=lambda idx, label, scalar: events.append(
            (idx, label, scalar)
        ),
    ).verify(program)
    cache.put(
        (program.canonical_hash(), 64),
        CachedVerdict.from_result(result, events),
    )
    return result


def _store_with_entry(path):
    cache = VerdictCache()
    result = _put_walk(cache, ACCEPTED)
    assert result.ok and len(cache) == 1
    cache.save(path)
    return path.read_text()


class TestAtomicSave:
    def test_save_round_trips(self, tmp_path):
        store = tmp_path / "verdicts.json"
        _store_with_entry(store)
        assert len(VerdictCache.load(store)) == 1
        # No temp litter after a clean save.
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_sigkill_mid_save_keeps_the_old_store(self, tmp_path):
        """A saver killed mid-write must not cost the previous store."""
        store = tmp_path / "verdicts.json"
        original = _store_with_entry(store)

        # The child re-saves the store; the armed cache.save.slow fault
        # makes it sleep 30s between the two write halves, so the parent
        # can SIGKILL it squarely inside the write window.
        code = (
            "import sys\n"
            "from repro.bpf.canon import VerdictCache\n"
            "cache = VerdictCache.load(sys.argv[1])\n"
            "print('ready', flush=True)\n"
            "cache.save(sys.argv[1])\n"
            "print('saved', flush=True)\n"
        )
        child = subprocess.Popen(
            [sys.executable, "-c", code, str(store)],
            env=dict(
                os.environ,
                REPRO_FAULTS="seed=1,cache.save.slow=1:30",
                PYTHONPATH=str(SRC),
            ),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "ready"
            time.sleep(0.3)   # well inside the 30s mid-write sleep
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
        finally:
            if child.poll() is None:
                child.kill()
        assert child.returncode == -signal.SIGKILL
        # The target was never touched: the write happened on a temp
        # file and the rename never ran.
        assert store.read_text() == original
        assert len(VerdictCache.load(store)) == 1
        # The partial temp file is the only debris.
        leftovers = list(tmp_path.glob("verdicts.json.tmp.*"))
        assert len(leftovers) == 1

    def test_torn_save_fault_preserves_existing_store(self, tmp_path):
        store = tmp_path / "verdicts.json"
        original = _store_with_entry(store)
        cache = VerdictCache.load(store)
        _put_walk(cache, "mov r0, 1\nexit")
        faults.arm("seed=1,cache.save.torn=1")
        cache.save(store)   # dies after the half-write, before the rename
        faults.disarm()
        assert store.read_text() == original
        assert len(VerdictCache.load(store)) == 1


class TestVerifierWatchdog:
    def test_no_deadline_by_default(self):
        result = Verifier().verify(assemble(ACCEPTED))
        assert result.ok and not result.timed_out

    def test_generous_deadline_is_invisible(self):
        result = Verifier(deadline_s=60.0).verify(assemble(ACCEPTED))
        assert result.ok and not result.timed_out

    def test_deadline_surfaces_as_structured_timeout(self):
        faults.arm("seed=1,verify.hang=1:0.05")
        result = Verifier(deadline_s=0.01).verify(assemble(ACCEPTED))
        assert not result.ok
        assert result.timed_out
        error = result.errors[0]
        assert error.timeout and "deadline" in error.reason

    def test_timeouts_are_never_cached(self, tmp_path):
        # The service holds the only verdict cache; a walk its watchdog
        # stopped must not land there, nor in the store it saves.
        store = str(tmp_path / "verdicts.json")
        request = VerifyRequest(program=assemble(ACCEPTED))
        faults.arm("seed=1,verify.hang=1:0.05")
        with VerificationService(
            cache_path=store, workers=1, request_timeout_s=0.01
        ) as svc:
            with pytest.raises(DeadlineExceeded):
                svc.verify(request)
        # close() waited for the abandoned walk, then saved.
        assert len(svc.cache) == 0
        faults.disarm()
        # The next submission pays a full walk and gets the real verdict.
        with VerificationService(cache_path=store, workers=1) as fresh:
            verdict = fresh.verify(request)
            assert verdict.ok and not verdict.cached
        assert len(fresh.cache) == 1
