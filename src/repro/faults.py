"""``repro.faults`` — deterministic, scope-keyed fault injection.

Chaos testing only proves something when the chaos is *reproducible*: a
campaign that survives "random worker kills" once tells you nothing a
rerun can confirm.  This module injects faults from a seeded
:class:`FaultPlan` at **named sites** threaded through the stack —
worker crashes, verification hangs, torn cache saves, slow/failed store
I/O — so the exact same faults fire at the exact same points on every
run with the same plan.

The arming contract mirrors :mod:`repro.obs`'s zero-overhead switch:

* injection is **off by default**, and the disabled path is a single
  module-attribute read (:func:`enabled`) — hot loops hoist even that
  (see the deadline/hang handling in
  :meth:`repro.bpf.verifier.absint.Verifier.verify`);
* a plan is armed explicitly (:func:`arm`), via the ``--faults`` CLI
  flag, or via the ``REPRO_FAULTS`` environment variable (read at
  import time, so subprocesses — campaign workers under ``spawn``,
  ``repro serve`` under a chaos harness — inherit the plan for free).

Determinism
-----------
:meth:`FaultPlan.fire` hashes ``(seed, site, key)`` — never wall clock,
never a shared RNG — so whether a fault fires at a site is a pure
function of the plan and the caller-supplied key.  Each site documents
its key contract (see ``docs/resilience.md``); recovery-sensitive sites
include the *attempt number* in the key, so a retried batch does not
deterministically re-crash forever.  Sites called without a key fall
back to a per-process invocation counter (deterministic within one
process's call sequence).

Spec grammar
------------
A plan is one comma-separated string::

    seed=42,campaign.worker.crash=0.5,verify.hang=1.0:0.05

Each entry is ``site=probability`` with an optional ``:arg`` carrying a
site-specific parameter (hang/slow sites: the delay in seconds; other
sites: unused).  Unknown sites are an error — a typo'd site silently
injecting nothing would be the worst possible chaos-test outcome.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, Iterable, Optional

from repro import obs as _obs

__all__ = [
    "SITES",
    "WORKER_CRASH_EXIT_CODE",
    "FaultRule",
    "FaultPlan",
    "enabled",
    "arm",
    "disarm",
    "active_plan",
    "fire",
    "arg",
    "sleep_if",
    "crash_point",
    "worker_init_state",
    "init_worker",
]

#: Exit code an injected worker crash dies with — distinguishable from
#: real crashes in logs and in quarantine fingerprints.
WORKER_CRASH_EXIT_CODE = 86

#: Every named injection site, with what firing there does.  The key
#: contract per site is documented in ``docs/resilience.md``.
SITES: Dict[str, str] = {
    "campaign.worker.crash":
        "a campaign lease worker dies with os._exit mid-batch",
    "campaign.checkpoint.torn":
        "a campaign --state checkpoint write dies after the temp write",
    "cache.save.torn":
        "VerdictCache.save dies mid-write (partial temp file, no rename)",
    "cache.save.slow":
        "VerdictCache.save sleeps between write chunks (arg: seconds)",
    "verify.hang":
        "the abstract walk sleeps per basic block (arg: seconds/block)",
    "service.verify.hang":
        "a service verification sleeps before walking (arg: seconds)",
    "dist.rpc.slow":
        "a dist worker RPC sleeps before being sent (arg: seconds)",
    "dist.result.drop":
        "a dist worker result POST is dropped before the send; the "
        "worker retries with backoff",
    "dist.result.duplicate":
        "a dist worker result POST is sent twice; the coordinator "
        "must deduplicate on the batch fingerprint",
    "dist.heartbeat.stale":
        "a dist worker sleeps before its next lease poll, so the "
        "coordinator sees its heartbeat go stale (arg: seconds)",
}

_DEFAULT_ARGS: Dict[str, float] = {
    "cache.save.slow": 0.05,
    "verify.hang": 0.05,
    "service.verify.hang": 0.25,
    "dist.rpc.slow": 0.05,
    "dist.heartbeat.stale": 1.0,
}


class FaultRule:
    """One armed site: firing probability plus a site-specific argument."""

    __slots__ = ("p", "arg")

    def __init__(self, p: float, arg: Optional[float] = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {p}")
        self.p = p
        self.arg = arg

    def to_spec(self) -> str:
        if self.arg is None:
            return f"{self.p:g}"
        return f"{self.p:g}:{self.arg:g}"


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s over the known sites.

    The plan is pure data: picklable, round-trippable through
    :meth:`to_spec`/:meth:`parse` (which is how it travels to worker
    processes and subprocesses), and deterministic — :meth:`fire` is a
    hash of ``(seed, site, key)``, nothing else.
    """

    def __init__(
        self, seed: int = 0, rules: Optional[Dict[str, FaultRule]] = None
    ) -> None:
        self.seed = seed
        self.rules: Dict[str, FaultRule] = {}
        for site, rule in (rules or {}).items():
            if site not in SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; known sites: "
                    f"{', '.join(sorted(SITES))}"
                )
            self.rules[site] = rule
        self._counters: Dict[str, int] = {}

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``seed=N,site=p[:arg],...`` spec grammar."""
        seed = 0
        rules: Dict[str, FaultRule] = {}
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ValueError(
                    f"bad fault entry {entry!r}: expected site=probability"
                )
            site, _, value = entry.partition("=")
            site = site.strip()
            value = value.strip()
            if site == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise ValueError(
                        f"bad fault seed {value!r}: expected an integer"
                    ) from None
                continue
            prob_text, _, arg_text = value.partition(":")
            try:
                p = float(prob_text)
                arg = float(arg_text) if arg_text else None
            except ValueError:
                raise ValueError(
                    f"bad fault entry {entry!r}: expected "
                    f"site=probability[:arg]"
                ) from None
            rules[site] = FaultRule(p, arg)   # site validated by __init__
        return cls(seed=seed, rules=rules)

    def to_spec(self) -> str:
        parts = [f"seed={self.seed}"]
        parts.extend(
            f"{site}={rule.to_spec()}"
            for site, rule in sorted(self.rules.items())
        )
        return ",".join(parts)

    # -- the decision ------------------------------------------------------

    def fire(self, site: str, key: Iterable[object] = ()) -> bool:
        """Should the fault at ``site`` fire for ``key``?  Deterministic.

        ``key`` scopes the decision (batch id, attempt, item index, ...);
        an empty key uses a per-process invocation counter for the site,
        so repeated keyless calls still spread fires at the configured
        rate instead of all-or-nothing.
        """
        rule = self.rules.get(site)
        if rule is None or rule.p <= 0.0:
            return False
        if rule.p >= 1.0:
            return True
        key_tuple = tuple(key)
        if not key_tuple:
            n = self._counters.get(site, 0)
            self._counters[site] = n + 1
            key_tuple = (n,)
        digest = hashlib.blake2b(
            f"{self.seed}|{site}|{key_tuple!r}".encode(),
            digest_size=8,
        ).digest()
        fraction = int.from_bytes(digest, "big") / float(1 << 64)
        return fraction < rule.p

    def arg_for(self, site: str) -> float:
        rule = self.rules.get(site)
        if rule is not None and rule.arg is not None:
            return rule.arg
        return _DEFAULT_ARGS.get(site, 0.0)


# -- the armed plan ---------------------------------------------------------

_plan: Optional[FaultPlan] = None


def enabled() -> bool:
    """The single hot-path predicate: is a fault plan armed?"""
    return _plan is not None


def arm(plan: "FaultPlan | str") -> FaultPlan:
    """Arm a plan (or spec string) process-wide; returns the plan."""
    global _plan
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _plan = plan
    return plan


def disarm() -> None:
    global _plan
    _plan = None


def active_plan() -> Optional[FaultPlan]:
    return _plan


def fire(site: str, key: Iterable[object] = ()) -> bool:
    """Fire the armed plan at ``site``; counts injections in obs.

    Call sites should guard on :func:`enabled` first when they sit on a
    hot path — this function is the slow half of the check.
    """
    plan = _plan
    if plan is None:
        return False
    if not plan.fire(site, key):
        return False
    if _obs.enabled():
        registry = _obs.default_registry()
        registry.counter("faults.injected").inc()
        registry.counter(f"faults.injected.{site}").inc()
    return True


def arg(site: str) -> float:
    plan = _plan
    if plan is None:
        return _DEFAULT_ARGS.get(site, 0.0)
    return plan.arg_for(site)


def sleep_if(site: str, key: Iterable[object] = ()) -> bool:
    """Sleep ``arg(site)`` seconds when the site fires (hang/slow sites)."""
    if not fire(site, key):
        return False
    time.sleep(arg(site))
    return True


def crash_point(site: str, key: Iterable[object] = ()) -> None:
    """Die like a SIGKILLed process when the site fires.

    ``os._exit`` skips every ``finally``, ``atexit``, and buffered
    flush — exactly what a preempted or OOM-killed worker looks like to
    its parent.
    """
    if fire(site, key):
        os._exit(WORKER_CRASH_EXIT_CODE)


# -- worker propagation -----------------------------------------------------


def worker_init_state() -> Optional[str]:
    """Picklable plan state shipped to pool workers (None = disarmed)."""
    if _plan is None:
        return None
    return _plan.to_spec()


def init_worker(state: Optional[str]) -> None:
    """Install shipped plan state in a worker (inverse of
    :func:`worker_init_state`)."""
    global _plan
    if state is None:
        _plan = None
    else:
        _plan = FaultPlan.parse(state)


# -- environment arming -----------------------------------------------------

_ENV_VAR = "REPRO_FAULTS"

if os.environ.get(_ENV_VAR):
    # Import-time arming so subprocess trees (spawned workers, serve
    # under a chaos harness, the SIGKILL-mid-save regression test)
    # inherit the plan without plumbing.  A bad spec here must fail
    # loudly — silently running un-chaosed would defeat the test.
    arm(os.environ[_ENV_VAR])
