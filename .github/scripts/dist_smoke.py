#!/usr/bin/env python3
"""CI smoke for distributed campaigns — stdlib only.

Drives the full fault matrix the coordinator/worker protocol promises
to absorb, then requires the merged report and corpus to be
*byte-identical* to a single-machine fault-free run's:

1. baseline: `repro campaign` (one process, no faults) -> baseline.json
   and baseline-corpus.json
2. distributed: `repro coordinate` + 2 `repro work` processes on
   loopback, with the workers running under injected crashes
   (`campaign.worker.crash`, real `os._exit` kills — dead workers are
   respawned) and duplicated result POSTs (`dist.result.duplicate=1`,
   every result submitted twice);
3. mid-round, the coordinator is SIGKILLed and restarted on the same
   state directory and port — workers ride the outage out on their RPC
   retry loop;
4. the restarted coordinator finishes and writes dist.json and
   dist-corpus.json, which must `cmp` equal baseline.json and
   baseline-corpus.json: the corpus pins seed admission and its order
   across drivers, not only the report.

Worker exit codes are deliberately NOT asserted: a worker that loses
its final poll race against coordinator shutdown exits nonzero by
design.  Only the coordinator's exit code and the report and corpus
bytes gate.

Usage: dist_smoke.py [WORKDIR]   (default: dist-smoke/)
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

PORT = 8351
SPEC = [
    "--budget", "60", "--rounds", "2", "--seed", "42",
    "--max-insns", "12", "--inputs", "4", "--no-shrink",
]
WORKER_FAULTS = "seed=5,campaign.worker.crash=0.15,dist.result.duplicate=1"


def log(message):
    print(f"dist-smoke: {message}", flush=True)


def fail(message):
    print(f"FAIL {message}", flush=True)
    sys.exit(1)


def repro(*args):
    return [sys.executable, "-m", "repro", *args]


def start_coordinator(workdir, logfile):
    command = repro(
        "coordinate", *SPEC,
        "--state", str(workdir / "state"),
        "--port", str(PORT),
        "--batch-size", "4",
        "--lease-timeout", "5", "--heartbeat-timeout", "10",
        "--report", str(workdir / "dist.json"),
        "--corpus", str(workdir / "dist-corpus.json"),
    )
    return subprocess.Popen(
        command, stdout=open(logfile, "a"), stderr=subprocess.STDOUT,
    )


def start_worker(name, workdir):
    command = repro(
        "work", f"http://127.0.0.1:{PORT}",
        "--name", name, "--faults", WORKER_FAULTS,
    )
    return subprocess.Popen(
        command,
        stdout=open(workdir / f"{name}.log", "a"),
        stderr=subprocess.STDOUT,
    )


def get_stats():
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{PORT}/stats", timeout=5
        ) as response:
            return json.loads(response.read())
    except (urllib.error.URLError, OSError, ValueError):
        return None


def main():
    workdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "dist-smoke")
    workdir.mkdir(parents=True, exist_ok=True)
    baseline = workdir / "baseline.json"
    baseline_corpus = workdir / "baseline-corpus.json"
    coordinator_log = workdir / "coordinator.log"

    log("building single-machine fault-free baseline")
    subprocess.run(
        repro(
            "campaign", *SPEC, "--report", str(baseline),
            "--corpus", str(baseline_corpus),
        ),
        check=True, stdout=subprocess.DEVNULL,
    )

    log(f"starting coordinator on :{PORT} + 2 chaos workers")
    coordinator = start_coordinator(workdir, coordinator_log)
    workers = {f"w{i}": start_worker(f"w{i}", workdir) for i in (1, 2)}
    respawns = 0
    observed = {}          # high-water marks of /stats counters
    killed_coordinator = False
    deadline = time.time() + 900

    try:
        while coordinator.poll() is None:
            if time.time() > deadline:
                fail("smoke did not converge within 900s")
            time.sleep(1.0)

            stats = get_stats()
            if stats:
                for name, value in stats.get("counters", {}).items():
                    observed[name] = max(observed.get(name, 0), value)

            # SIGKILL the coordinator once real progress is visible,
            # then resume it on the same state dir and port.
            if (
                not killed_coordinator
                and observed.get("results_merged", 0) >= 2
                and coordinator.poll() is None
            ):
                log("SIGKILL coordinator mid-round; restarting")
                coordinator.send_signal(signal.SIGKILL)
                coordinator.wait(timeout=30)
                killed_coordinator = True
                time.sleep(1.0)   # let the kernel release the port
                coordinator = start_coordinator(workdir, coordinator_log)

            # Respawn injected-crash worker casualties while the
            # campaign is still running.
            for name, process in list(workers.items()):
                if process.poll() is not None and coordinator.poll() is None:
                    respawns += 1
                    workers[name] = start_worker(name, workdir)
    finally:
        for process in workers.values():
            if process.poll() is None:
                process.terminate()
        for process in workers.values():
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
        if coordinator.poll() is None:
            coordinator.terminate()
            coordinator.wait(timeout=60)

    if coordinator.returncode != 0:
        fail(f"coordinator exited {coordinator.returncode} "
             f"(see {coordinator_log})")
    if not killed_coordinator:
        fail("campaign finished before the coordinator could be killed "
             "— raise --budget so the SIGKILL lands mid-round")
    if respawns < 1:
        fail("no worker was ever killed — injected crashes did not fire")
    if observed.get("results_duplicate", 0) < 1:
        fail(f"no duplicate result was ever ingested: {observed}")
    log(f"chaos happened: {respawns} worker respawn(s), counters {observed}")

    plain = baseline.read_bytes()
    dist = (workdir / "dist.json").read_bytes()
    if plain != dist:
        fail("distributed report differs from single-machine baseline")
    plain_corpus = baseline_corpus.read_bytes()
    if plain_corpus != (workdir / "dist-corpus.json").read_bytes():
        fail("distributed corpus differs from single-machine baseline")
    log(f"reports ({len(plain)} bytes) and corpora ({len(plain_corpus)} "
        "bytes) byte-identical under kills, duplicates, and coordinator "
        "SIGKILL+resume")


if __name__ == "__main__":
    main()
