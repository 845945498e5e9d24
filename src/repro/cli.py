"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``verify FILE``
    Assemble a BPF text file and run the miniature verifier.
``run FILE``
    Assemble and execute concretely; prints r0.
``analyze FILE``
    Verify and dump the abstract register state at every instruction.
``asm FILE -o OUT`` / ``disasm FILE``
    Assemble to kernel-format bytecode / disassemble it back.
``check-op OP``
    Bounded verification of one tnum operator (SAT, exhaustive, or
    randomized).
``eval {fig4,fig5,table1}``
    Regenerate a paper artifact at a chosen scale.
``fuzz``
    Differential fuzzing campaign: random whole programs, verifier vs.
    concrete interpreter, with shrinking and corpus persistence.
``campaign``
    Precision campaign: multi-round fuzzing with per-operator
    imprecision telemetry, mutation feedback, resumable state, and
    JSON/markdown report output.
``campaign-diff BASELINE [CANDIDATE]``
    Compare two saved ``PrecisionReport`` JSONs — or a baseline against
    a fresh fixed-seed campaign — as a per-operator tightness /
    rejected-clean delta table, with a CI gate that fails on soundness
    violations or a tightness-mass regression.
``bench``
    Measure fuzz-pipeline throughput (programs/sec) across the driver
    profiles, the abstract verifier alone (``verify_<profile>`` stages,
    cold compiled-walk per program), and the precision campaign; emits a
    ``BENCH_*.json`` baseline and optionally diffs against a committed
    one (advisory by default — machines differ).  ``--json`` adds obs
    histogram summaries (p50/p90/p99 seconds per stage).
``serve``
    Verification-as-a-service: an HTTP front end (``POST /verify``,
    ``GET /verdict/<canonical_hash>``, ``/healthz``, ``/stats``,
    ``/metrics``) over a worker pool and the shared verdict cache, so
    repeat submissions are O(1) cache hits.  See ``docs/service.md``.
``stats OBS_DIR``
    Render the observability artifacts of an ``--obs-dir`` run: the
    latest heartbeat snapshot (with a staleness warning when the
    publisher looks dead), counters, per-operator verifier/interpreter
    time attribution, and the span table from ``trace.jsonl``.
    ``--validate`` schema-checks every trace line; ``--serve`` exposes
    ``/metrics`` and ``/stats`` over HTTP.

Subcommands that use randomness (``fuzz``, ``campaign``,
``check-op --method random``, ``eval fig5``) accept ``--seed`` so every
run is reproducible.

Observability (``repro.obs``) is off by default and free when off; the
``--obs-dir``/``--obs-serve``/``--obs-sample`` flags on ``fuzz``,
``campaign``, and ``bench`` opt a run in without changing its verdicts
or reports.
"""

from __future__ import annotations

import argparse
import sys
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

if TYPE_CHECKING:
    from repro.httpd import HttpServer

__all__ = ["main", "build_parser"]


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--obs-*`` opt-in flags (fuzz, campaign, bench)."""
    group = parser.add_argument_group("observability")
    group.add_argument("--obs-dir", metavar="DIR",
                       help="write trace.jsonl, metrics.json, and "
                            "heartbeat.json under DIR (enables "
                            "observability for this run)")
    group.add_argument("--obs-serve", type=int, metavar="PORT",
                       help="serve /metrics and /stats on 127.0.0.1:PORT "
                            "for the duration of the run (0 = ephemeral)")
    group.add_argument("--obs-sample", type=float, default=0.01,
                       metavar="FRACTION",
                       help="fraction of per-program spans kept in the "
                            "trace (default 0.01; structural spans are "
                            "always kept)")


def _add_faults_flag(parser: argparse.ArgumentParser):
    """The shared ``--faults`` chaos switch; returns its group."""
    group = parser.add_argument_group("resilience")
    group.add_argument("--faults", metavar="SPEC",
                       help="arm deterministic fault injection for this "
                            "run, e.g. "
                            "'seed=42,campaign.worker.crash=0.5' "
                            "(sites and key contracts: docs/resilience.md; "
                            "also honored via the REPRO_FAULTS env var)")
    return group


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Crash-recovery knobs for multi-worker runs (fuzz, campaign)."""
    group = _add_faults_flag(parser)
    group.add_argument("--lease-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="kill and retry a worker batch that runs "
                            "longer than this (default: no limit)")
    group.add_argument("--batch-retries", type=int, default=3,
                       metavar="N",
                       help="attempts per worker batch before it is "
                            "quarantined (default 3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tristate-number (tnum) abstract interpretation toolkit "
        "— CGO 2022 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="statically verify a BPF program")
    p_verify.add_argument("file", help="assembly text file ('-' for stdin)")
    p_verify.add_argument("--ctx-size", type=int, default=64,
                          help="context size in bytes (default 64)")
    p_verify.add_argument("--wire", action="store_true",
                          help="FILE is kernel wire-format bytecode, not "
                               "assembly text")
    p_verify.add_argument("--json", action="store_true",
                          help="print the verdict as JSON (the same shape "
                               "the service's POST /verify returns)")

    p_run = sub.add_parser("run", help="execute a BPF program concretely")
    p_run.add_argument("file")
    p_run.add_argument("--ctx", default="",
                       help="context bytes as hex (zero-padded to --ctx-size)")
    p_run.add_argument("--ctx-size", type=int, default=64)
    p_run.add_argument("--trace", action="store_true",
                       help="print the executed instruction indices")

    p_an = sub.add_parser("analyze",
                          help="dump abstract states at every instruction")
    p_an.add_argument("file")
    p_an.add_argument("--ctx-size", type=int, default=64)

    p_asm = sub.add_parser("asm", help="assemble to kernel-format bytecode")
    p_asm.add_argument("file")
    p_asm.add_argument("-o", "--output", required=True)

    p_dis = sub.add_parser("disasm", help="disassemble kernel-format bytecode")
    p_dis.add_argument("file")

    p_chk = sub.add_parser("check-op",
                           help="bounded verification of a tnum operator")
    p_chk.add_argument("op", help="add, sub, mul, kern_mul, bitwise_mul, "
                                  "and, or, xor, lsh, rsh, arsh, ...")
    p_chk.add_argument("--width", type=int, default=8)
    p_chk.add_argument("--method", choices=("sat", "exhaustive", "random"),
                       default="sat")
    p_chk.add_argument("--trials", type=int, default=10_000,
                       help="trials for --method random")
    p_chk.add_argument("--seed", type=int, default=0,
                       help="RNG seed for --method random (default 0)")

    p_eval = sub.add_parser("eval", help="regenerate a paper artifact")
    p_eval.add_argument("artifact", choices=("fig4", "fig5", "table1"))
    p_eval.add_argument("--width", type=int, default=5,
                        help="tnum width for fig4/table1 (default 5)")
    p_eval.add_argument("--pairs", type=int, default=2000,
                        help="input pairs for fig5 (default 2000)")
    p_eval.add_argument("--seed", type=int, default=0,
                        help="RNG seed for fig5 input pairs (default 0)")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: verifier vs. concrete interpreter",
    )
    p_fuzz.add_argument("--budget", type=int, default=1000,
                        help="number of programs to fuzz (default 1000)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed; results are deterministic "
                             "for a given seed (default 0)")
    p_fuzz.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1; results do "
                             "not depend on worker count)")
    p_fuzz.add_argument("--profile", default="mixed",
                        choices=("mixed", "alu", "memory", "branchy"),
                        help="opcode-mix profile (default mixed)")
    p_fuzz.add_argument("--max-insns", type=int, default=32,
                        help="max instructions per program (default 32)")
    p_fuzz.add_argument("--inputs", type=int, default=8,
                        help="concrete inputs per program (default 8)")
    p_fuzz.add_argument("--ctx-size", type=int, default=64)
    p_fuzz.add_argument("--corpus", metavar="PATH",
                        help="write failures/seeds to a JSON corpus file")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="skip counterexample minimization")
    _add_resilience_flags(p_fuzz)
    _add_obs_flags(p_fuzz)

    p_camp = sub.add_parser(
        "campaign",
        help="precision campaign with per-operator imprecision telemetry",
    )
    p_camp.add_argument("--budget", type=int, default=400,
                        help="programs across all rounds (default 400)")
    p_camp.add_argument("--rounds", type=int, default=2,
                        help="campaign rounds; mutation feedback kicks in "
                             "after round 1 (default 2)")
    p_camp.add_argument("--seed", type=int, default=0,
                        help="campaign seed; reports are byte-identical "
                             "for a given seed (default 0)")
    p_camp.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1; results do "
                             "not depend on worker count)")
    p_camp.add_argument("--profile", default="mixed",
                        choices=("mixed", "alu", "memory", "branchy"),
                        help="opcode-mix profile (default mixed)")
    p_camp.add_argument("--max-insns", type=int, default=32,
                        help="max instructions per program (default 32)")
    p_camp.add_argument("--inputs", type=int, default=8,
                        help="concrete inputs per program (default 8)")
    p_camp.add_argument("--ctx-size", type=int, default=64)
    p_camp.add_argument("--mutate-fraction", type=float, default=0.5,
                        help="fraction of post-round-1 programs mutated "
                             "from pool seeds (default 0.5)")
    p_camp.add_argument("--state", metavar="DIR",
                        help="checkpoint directory; rerunning with the "
                             "same spec resumes the campaign")
    p_camp.add_argument("--verdict-cache", metavar="PATH",
                        help="persistent verdict store: structurally "
                             "identical programs are verified once, "
                             "across runs too (reports are unaffected)")
    p_camp.add_argument("--verdict-cache-size", type=int, default=65536,
                        metavar="N",
                        help="max cached verdicts before LRU eviction "
                             "(default 65536)")
    p_camp.add_argument("--report", metavar="PATH",
                        help="write the PrecisionReport as JSON")
    p_camp.add_argument("--markdown", metavar="PATH",
                        help="write the PrecisionReport as markdown")
    p_camp.add_argument("--corpus", metavar="PATH",
                        help="write violations and mutation seeds to a "
                             "JSON corpus file")
    p_camp.add_argument("--top", type=int, default=10,
                        help="operators shown in the ranking (default 10)")
    p_camp.add_argument("--no-shrink", action="store_true",
                        help="skip counterexample minimization")
    _add_resilience_flags(p_camp)
    _add_obs_flags(p_camp)

    p_diff = sub.add_parser(
        "campaign-diff",
        help="diff two precision reports (or baseline vs. a fresh "
             "fixed-seed campaign) and gate on regressions",
    )
    p_diff.add_argument("baseline",
                        help="baseline PrecisionReport JSON file")
    p_diff.add_argument("candidate", nargs="?",
                        help="candidate PrecisionReport JSON; omitted, a "
                             "fixed-seed campaign is run instead")
    p_diff.add_argument("--budget", type=int, default=150,
                        help="campaign budget when running the candidate "
                             "(default 150, the CI smoke budget)")
    p_diff.add_argument("--rounds", type=int, default=2,
                        help="campaign rounds for the candidate run "
                             "(default 2)")
    p_diff.add_argument("--seed", type=int, default=42,
                        help="campaign seed for the candidate run "
                             "(default 42; must match the baseline's)")
    p_diff.add_argument("--workers", type=int, default=1,
                        help="worker processes for the candidate run "
                             "(reports do not depend on worker count)")
    p_diff.add_argument("--profile", default="mixed",
                        choices=("mixed", "alu", "memory", "branchy"))
    p_diff.add_argument("--max-insns", type=int, default=32)
    p_diff.add_argument("--inputs", type=int, default=8)
    p_diff.add_argument("--ctx-size", type=int, default=64)
    p_diff.add_argument("--mutate-fraction", type=float, default=0.0,
                        help="mutation feedback for the candidate run "
                             "(default 0: with mutation, the round-2+ "
                             "program stream depends on the verifier "
                             "under test, so cross-version diffs would "
                             "compare different streams)")
    p_diff.add_argument("--report", metavar="PATH",
                        help="save the candidate run's PrecisionReport "
                             "as JSON (e.g. to refresh the baseline)")
    p_diff.add_argument("--markdown", metavar="PATH",
                        help="write the delta table as markdown")
    p_diff.add_argument("--top", type=int, default=15,
                        help="operators shown in the delta table "
                             "(default 15)")
    p_diff.add_argument("--max-regression", type=float, default=0.05,
                        help="gate threshold: maximum tolerated "
                             "fractional tightness-mass increase "
                             "(default 0.05)")
    p_diff.add_argument("--no-gate", action="store_true",
                        help="report only; always exit 0")

    p_bench = sub.add_parser(
        "bench",
        help="measure fuzz-pipeline throughput (driver, verifier, "
             "campaign stages) and emit a BENCH baseline",
    )
    p_bench.add_argument("--budget", type=int, default=200,
                         help="programs per driver/verifier measurement "
                              "(default 200)")
    p_bench.add_argument("--campaign-budget", type=int, default=None,
                         help="programs per campaign measurement "
                              "(default: same as --budget)")
    p_bench.add_argument("--seed", type=int, default=42,
                         help="campaign seed (default 42)")
    p_bench.add_argument("--repeats", type=int, default=2,
                         help="repetitions per measurement, best kept "
                              "(default 2)")
    p_bench.add_argument("--out", metavar="PATH",
                         help="write the throughput report as JSON "
                              "(the BENCH baseline format)")
    p_bench.add_argument("--baseline", metavar="PATH",
                         help="diff against a saved throughput baseline")
    p_bench.add_argument("--markdown", metavar="PATH",
                         help="write the baseline diff as a markdown "
                              "table (requires --baseline; CI posts it "
                              "to the step summary)")
    p_bench.add_argument("--max-regression", type=float, default=0.15,
                         help="fractional slowdown that triggers a "
                              "warning (default 0.15)")
    p_bench.add_argument("--strict", action="store_true",
                         help="exit 1 on baseline regressions instead "
                              "of warning (off by default: throughput "
                              "is machine-dependent)")
    p_bench.add_argument("--json", action="store_true",
                         help="print the report as JSON (instead of the "
                              "text summary) with per-stage obs "
                              "histogram summaries — p50/p90/p99 "
                              "seconds per timed pass — next to the "
                              "best-of throughput metrics")
    _add_obs_flags(p_bench)

    p_serve = sub.add_parser(
        "serve",
        help="serve verification over HTTP with cached verdicts "
             "(POST /verify, GET /verdict/<hash>, /healthz, /stats)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8337,
                         help="port to serve on (default 8337; 0 picks "
                              "an ephemeral port)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="verifier worker threads; concurrent "
                              "identical submissions are single-flighted "
                              "and verify once (default 4)")
    p_serve.add_argument("--ctx-size", type=int, default=64,
                         help="default context size for requests that "
                              "omit ctx_size (default 64)")
    p_serve.add_argument("--verdict-cache", metavar="PATH",
                         help="persistent verdict store, loaded at "
                              "startup and saved on shutdown (same "
                              "format as repro campaign's)")
    p_serve.add_argument("--verdict-cache-size", type=int, default=65536,
                         metavar="N",
                         help="max cached verdicts before LRU eviction "
                              "(default 65536)")
    p_serve.add_argument("--request-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-request deadline: a verification that "
                              "outlives it answers a structured 504 "
                              "(default: no deadline)")
    p_serve.add_argument("--max-queue", type=int, default=None,
                         metavar="N",
                         help="bound the verification queue: requests "
                              "past N in flight are shed with a "
                              "structured 503 + Retry-After "
                              "(default: unbounded)")
    _add_faults_flag(p_serve)
    _add_obs_flags(p_serve)

    p_coord = sub.add_parser(
        "coordinate",
        help="run a distributed-campaign coordinator (POST /lease, "
             "POST /result, GET /round, /healthz, /stats)",
    )
    p_coord.add_argument("--budget", type=int, default=400,
                         help="programs across all rounds (default 400)")
    p_coord.add_argument("--rounds", type=int, default=2,
                         help="campaign rounds (default 2)")
    p_coord.add_argument("--seed", type=int, default=0,
                         help="campaign seed; the merged report is "
                              "byte-identical to a single-machine "
                              "`repro campaign` with the same spec "
                              "(default 0)")
    p_coord.add_argument("--profile", default="mixed",
                         choices=("mixed", "alu", "memory", "branchy"))
    p_coord.add_argument("--max-insns", type=int, default=32)
    p_coord.add_argument("--inputs", type=int, default=8)
    p_coord.add_argument("--ctx-size", type=int, default=64)
    p_coord.add_argument("--mutate-fraction", type=float, default=0.5)
    p_coord.add_argument("--no-shrink", action="store_true",
                         help="skip counterexample minimization")
    p_coord.add_argument("--state", metavar="DIR", required=True,
                         help="checkpoint directory (campaign state + "
                              "in-round lease ledger); restarting with "
                              "the same spec resumes — even after "
                              "SIGKILL mid-round")
    p_coord.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_coord.add_argument("--port", type=int, default=8347,
                         help="port to serve on (default 8347; 0 picks "
                              "an ephemeral port)")
    p_coord.add_argument("--batch-size", type=int, default=8,
                         help="campaign indices per lease (default 8)")
    p_coord.add_argument("--lease-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="re-issue a leased batch this long after "
                              "its grant (default 30)")
    p_coord.add_argument("--heartbeat-timeout", type=float, default=60.0,
                         metavar="SECONDS",
                         help="treat a worker silent this long as dead "
                              "and re-issue its leases (default 60)")
    p_coord.add_argument("--batch-retries", type=int, default=3,
                         metavar="N",
                         help="attempts per batch before it is "
                              "quarantined to the poison corpus "
                              "(default 3)")
    p_coord.add_argument("--report", metavar="PATH",
                         help="write the merged PrecisionReport as JSON")
    p_coord.add_argument("--markdown", metavar="PATH",
                         help="write the merged PrecisionReport as "
                              "markdown")
    p_coord.add_argument("--corpus", metavar="PATH",
                         help="write violations and mutation seeds to a "
                              "JSON corpus file")
    p_coord.add_argument("--top", type=int, default=10,
                         help="operators shown in the ranking "
                              "(default 10)")
    _add_faults_flag(p_coord)
    _add_obs_flags(p_coord)

    p_work = sub.add_parser(
        "work",
        help="run a stateless distributed-campaign worker against a "
             "coordinator",
    )
    p_work.add_argument("coordinator", metavar="URL",
                        help="coordinator base URL, e.g. "
                             "http://127.0.0.1:8347")
    p_work.add_argument("--name", default=None,
                        help="worker name for leases and heartbeats "
                             "(default: <hostname>-<pid>)")
    p_work.add_argument("--poll-interval", type=float, default=0.2,
                        metavar="SECONDS",
                        help="idle wait between lease polls when the "
                             "coordinator has no grantable batch "
                             "(default 0.2)")
    _add_faults_flag(p_work)
    _add_obs_flags(p_work)

    p_stats = sub.add_parser(
        "stats",
        help="render the observability artifacts of an --obs-dir run",
    )
    p_stats.add_argument("obs_dir", metavar="OBS_DIR",
                         help="directory a fuzz/campaign/bench run "
                              "wrote with --obs-dir")
    p_stats.add_argument("--top", type=int, default=10,
                         help="operators shown per timing table "
                              "(default 10)")
    p_stats.add_argument("--validate", action="store_true",
                         help="schema-check every trace.jsonl line; "
                              "exit 1 if any record is invalid")
    p_stats.add_argument("--json", action="store_true",
                         help="print the /stats JSON payload instead of "
                              "the tables")
    p_stats.add_argument("--serve", action="store_true",
                         help="serve /metrics and /stats for this "
                              "directory until interrupted")
    p_stats.add_argument("--port", type=int, default=0,
                         help="port for --serve (default 0: ephemeral)")

    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as handle:
        return handle.read()


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _cmd_verify(args) -> int:
    import json

    from repro.api import IngestError, Verdict, program_from_wire
    from repro.bpf.verifier import Verifier

    if args.wire:
        try:
            program = program_from_wire(_read_bytes(args.file))
        except IngestError as exc:
            print(f"error: {args.file}: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.bpf import assemble

        program = assemble(_read_text(args.file))
    result = Verifier(ctx_size=args.ctx_size).verify(program)
    # The one verdict shape repo-wide: the CLI renders the same model
    # the service serializes, so `repro verify --json` output is
    # byte-compatible with a POST /verify response body.
    verdict = Verdict.from_result(
        result, program.canonical_hash(), args.ctx_size
    )
    if args.json:
        print(json.dumps(verdict.to_payload(), indent=2, sort_keys=True))
        return 0 if verdict.ok else 1
    if verdict.ok:
        print(f"OK: {len(program)} instructions, "
              f"{verdict.insns_processed} analyzed")
        return 0
    print(f"REJECTED: {verdict.error.message()}")
    return 1


def _cmd_run(args) -> int:
    from repro.bpf import Machine, assemble

    program = assemble(_read_text(args.file))
    ctx = bytes.fromhex(args.ctx) if args.ctx else b""
    ctx = ctx.ljust(args.ctx_size, b"\x00")
    machine = Machine(ctx=ctx, record_trace=args.trace)
    outcome = machine.run(program)
    print(f"r0 = {outcome.return_value} ({outcome.return_value:#x}) "
          f"in {outcome.steps} steps")
    if args.trace:
        print("trace:", " ".join(map(str, outcome.trace)))
    return 0


def _cmd_analyze(args) -> int:
    from repro.bpf import assemble
    from repro.bpf.verifier import Verifier

    program = assemble(_read_text(args.file))
    verifier = Verifier(ctx_size=args.ctx_size, collect_states=True)
    result = verifier.verify(program)
    for idx, insn in enumerate(program):
        state = verifier.states_at.get(idx)
        print(f"{idx:>4}: {str(insn):<32} {state if state else '(unreached)'}")
    if result.ok:
        print("verdict: OK")
        return 0
    for message in result.error_messages():
        print(f"verdict: REJECTED — {message}")
    return 1


def _cmd_asm(args) -> int:
    from repro.bpf import assemble

    program = assemble(_read_text(args.file))
    data = program.to_bytes()
    with open(args.output, "wb") as handle:
        handle.write(data)
    print(f"wrote {len(data)} bytes ({program.total_slots} slots) "
          f"to {args.output}")
    return 0


def _cmd_disasm(args) -> int:
    from repro.api import IngestError, program_from_wire

    try:
        program = program_from_wire(_read_bytes(args.file))
    except IngestError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(program.disassemble())
    return 0


def _cmd_check_op(args) -> int:
    if args.method == "sat":
        from repro.verify.sat import check_operator_soundness

        report = check_operator_soundness(args.op, args.width)
        print(report)
        return 0 if report.sound else 1
    if args.method == "exhaustive":
        from repro.core.ops import BINARY_OPS, SHIFT_OPS, UNARY_OPS
        from repro.verify.exhaustive import (
            check_shift_soundness,
            check_soundness,
            check_unary_soundness,
        )

        if args.op in BINARY_OPS:
            report = check_soundness(args.op, args.width)
        elif args.op in UNARY_OPS:
            report = check_unary_soundness(args.op, args.width)
        elif args.op in SHIFT_OPS:
            report = check_shift_soundness(args.op, args.width)
        else:
            print(f"unknown operator {args.op!r}", file=sys.stderr)
            return 2
        print(report)
        return 0 if report.holds else 1
    from repro.verify.random_check import random_check_operator

    report = random_check_operator(
        args.op, trials=args.trials, width=args.width, seed=args.seed
    )
    print(report)
    return 0 if report.passed else 1


def _cmd_eval(args) -> int:
    if args.artifact == "fig5":
        from repro.eval import (
            generate_pairs,
            render_fig5,
            speedup_summary,
            time_algorithms,
        )

        results = time_algorithms(
            generate_pairs(args.pairs, seed=args.seed), trials=3
        )
        print(render_fig5(results))
        for name, frac in speedup_summary(results).items():
            print(f"our_mul vs {name}: {100 * frac:.1f}% faster")
        return 0
    if args.artifact == "fig4":
        from repro.eval import compare_precision, precision_cdf, render_fig4

        comparisons = {
            name: compare_precision("our_mul", name, args.width)
            for name in ("kern_mul", "bitwise_mul")
        }
        print(render_fig4(
            {n: precision_cdf(c) for n, c in comparisons.items()}, args.width
        ))
        return 0
    from repro.eval import precision_trend, render_table1

    print(render_table1(precision_trend(range(5, args.width + 1))))
    return 0


def _print_violations(corpus) -> None:
    for entry in corpus.violations():
        # For mutants the generator seed alone cannot reproduce the
        # program — the note carries the origin; bytecode_hex is the
        # authoritative witness either way.
        origin = f", {entry.note}" if entry.note else ""
        print(f"\nVIOLATION (generator seed {entry.seed}{origin}):")
        print(f"  {entry.violation['kind']}: {entry.violation['message']}")
        witness = entry.shrunk_program() or entry.program()
        label = "shrunk witness" if entry.shrunk_hex else "program"
        print(f"  {label} ({len(witness)} insns):")
        for line in witness.disassemble().splitlines():
            print(f"    {line}")


def _obs_session(args):
    """Context manager for the shared ``--obs-*`` flags.

    A no-op (yielding ``None``) when no obs flag was given, so the
    default path never imports or enables ``repro.obs``.
    """
    from contextlib import nullcontext

    if args.obs_dir is None and args.obs_serve is None:
        return nullcontext(None)
    from repro import obs

    session = obs.configure(
        obs_dir=args.obs_dir,
        sample=args.obs_sample,
        serve_port=args.obs_serve,
    )
    if session.server is not None:
        print(f"obs: serving {session.server.url} (/metrics, /stats)")
    return session


def _print_obs_outputs(args) -> None:
    if args.obs_dir:
        print(f"obs: trace/metrics/heartbeat -> {args.obs_dir}")


def _arm_faults(args) -> Optional[int]:
    """Arm ``--faults`` (if given); an exit code on a bad spec."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from repro import faults

    try:
        faults.arm(spec)
    except ValueError as exc:
        print(f"error: --faults: {exc}", file=sys.stderr)
        return 2
    return None


def _retry_policy(args) -> "Optional[object] | int":
    """A RetryPolicy from the CLI knobs; an exit code on bad values."""
    from repro.fuzz import RetryPolicy

    try:
        return RetryPolicy(
            max_attempts=args.batch_retries,
            lease_timeout_s=args.lease_timeout,
            # Thread the campaign seed into the backoff jitter so chaos
            # runs replay their exact retry schedule.
            seed=getattr(args, "seed", 0),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_fuzz(args) -> int:
    from repro.fuzz import CampaignConfig, Corpus, run_campaign

    failed = _arm_faults(args)
    if failed is not None:
        return failed
    policy = _retry_policy(args)
    if isinstance(policy, int):
        return policy
    config = CampaignConfig(
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        profile=args.profile,
        max_insns=args.max_insns,
        ctx_size=args.ctx_size,
        inputs_per_program=args.inputs,
        shrink=not args.no_shrink,
    )
    corpus = Corpus()
    with _obs_session(args):
        result = run_campaign(config, corpus, retry_policy=policy)
    print(f"campaign: seed={args.seed} profile={args.profile} "
          f"workers={args.workers}")
    print(result.stats.summary())
    _print_violations(corpus)
    if args.corpus:
        corpus.save(args.corpus)
        print(f"\ncorpus: {len(corpus)} entries -> {args.corpus}")
    _print_obs_outputs(args)
    return 0 if result.ok else 1


def _cmd_campaign(args) -> int:
    from pathlib import Path

    from repro.eval import render_precision_markdown, render_precision_report
    from repro.fuzz import (
        CampaignSpec,
        CampaignStateError,
        run_precision_campaign,
    )

    failed = _arm_faults(args)
    if failed is not None:
        return failed
    policy = _retry_policy(args)
    if isinstance(policy, int):
        return policy
    try:
        spec = CampaignSpec(
            budget=args.budget,
            rounds=args.rounds,
            seed=args.seed,
            workers=args.workers,
            profile=args.profile,
            max_insns=args.max_insns,
            ctx_size=args.ctx_size,
            inputs_per_program=args.inputs,
            mutate_fraction=args.mutate_fraction,
            shrink=not args.no_shrink,
        )
    except ValueError as exc:   # bad option values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None
    if args.verdict_cache:
        from repro.bpf.canon import VerdictCache

        try:
            cache = VerdictCache.load(
                args.verdict_cache, max_entries=args.verdict_cache_size
            )
        except ValueError as exc:   # stale format / wrong canon version
            print(f"error: --verdict-cache {args.verdict_cache}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        with _obs_session(args):
            result = run_precision_campaign(
                spec, state_dir=args.state, verdict_cache=cache,
                retry_policy=policy,
            )
    except CampaignStateError as exc:   # unusable --state directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"campaign: seed={args.seed} profile={args.profile} "
          f"rounds={args.rounds} workers={args.workers}")
    print(result.stats.summary())
    if result.quarantined:
        where = f" -> {args.state}/poison/" if args.state else ""
        print(f"quarantine: {len(result.quarantined)} poison "
              f"batch(es){where}")
    if cache is not None:
        cache.save(args.verdict_cache)
        print(cache.summary_line(args.verdict_cache))
    print()
    print(render_precision_report(result.report, top=args.top))
    _print_violations(result.corpus)
    if args.report:
        Path(args.report).write_text(result.report.to_json() + "\n")
        print(f"\nreport: JSON -> {args.report}")
    if args.markdown:
        Path(args.markdown).write_text(
            render_precision_markdown(result.report, top=args.top) + "\n"
        )
        print(f"report: markdown -> {args.markdown}")
    if args.corpus:
        result.corpus.save(args.corpus)
        print(f"corpus: {len(result.corpus)} entries -> {args.corpus}")
    _print_obs_outputs(args)
    return 0 if result.ok else 1


def _cmd_campaign_diff(args) -> int:
    from pathlib import Path

    from repro.eval import (
        PrecisionReport,
        diff_reports,
        render_diff,
        render_diff_markdown,
    )

    # Malformed reports (bad JSON, wrong top-level type, wrong-typed
    # fields) are all usage errors, not tracebacks.
    load_errors = (OSError, ValueError, KeyError, TypeError, AttributeError)
    try:
        base = PrecisionReport.from_json(Path(args.baseline).read_text())
    except load_errors as exc:
        print(f"error: cannot load baseline {args.baseline}: {exc}",
              file=sys.stderr)
        return 2

    #: flags that only configure the candidate *campaign run* — with an
    #: explicit candidate file they would be silently meaningless, so
    #: passing a non-default value alongside one is a usage error.
    campaign_flag_defaults = {
        "budget": 150, "rounds": 2, "seed": 42, "workers": 1,
        "profile": "mixed", "max_insns": 32, "inputs": 8, "ctx_size": 64,
        "mutate_fraction": 0.0,
    }
    if args.candidate is not None:
        if args.report:
            print("error: --report saves the candidate campaign's report "
                  "and conflicts with an explicit candidate file",
                  file=sys.stderr)
            return 2
        overridden = [
            name for name, default in campaign_flag_defaults.items()
            if getattr(args, name) != default
        ]
        if overridden:
            flags = ", ".join(
                "--" + name.replace("_", "-") for name in overridden
            )
            print(f"error: {flags} only configure the candidate campaign "
                  "run and have no effect with an explicit candidate file",
                  file=sys.stderr)
            return 2
        try:
            new = PrecisionReport.from_json(
                Path(args.candidate).read_text()
            )
        except load_errors as exc:
            print(f"error: cannot load candidate {args.candidate}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        from repro.fuzz import CampaignSpec, run_precision_campaign

        try:
            spec = CampaignSpec(
                budget=args.budget,
                rounds=args.rounds,
                seed=args.seed,
                workers=args.workers,
                profile=args.profile,
                max_insns=args.max_insns,
                ctx_size=args.ctx_size,
                inputs_per_program=args.inputs,
                mutate_fraction=args.mutate_fraction,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"candidate campaign: seed={args.seed} budget={args.budget} "
              f"rounds={args.rounds} workers={args.workers}")
        new = run_precision_campaign(spec).report

    diff = diff_reports(base, new)
    print(render_diff(diff, top=args.top))
    if args.report:
        Path(args.report).write_text(new.to_json() + "\n")
        print(f"\ncandidate report: JSON -> {args.report}")
    if args.markdown:
        Path(args.markdown).write_text(
            render_diff_markdown(diff, top=args.top) + "\n"
        )
        print(f"diff: markdown -> {args.markdown}")
    failures = diff.gate_failures(max_regression=args.max_regression)
    if failures:
        for reason in failures:
            print(f"GATE: {reason}",
                  file=sys.stdout if args.no_gate else sys.stderr)
        return 0 if args.no_gate else 1
    print(f"gate: ok (mass {diff.base_mass} -> {diff.new_mass} bits, "
          f"violations {diff.new_violations})")
    return 0


def _cmd_bench(args) -> int:
    import json

    from pathlib import Path

    from repro.eval import ThroughputReport, measure_fuzz_throughput

    # Per-stage pass durations feed obs histograms when requested; the
    # observer records locally so --json works with obs fully disabled
    # (and thus measures the pristine uninstrumented pipelines).
    stage_hists = {}
    observer = None
    if args.json or args.obs_dir is not None:
        from repro.obs import Histogram

        def observer(stage: str, seconds: float) -> None:
            hist = stage_hists.get(stage)
            if hist is None:
                hist = stage_hists[stage] = Histogram()
            hist.observe(seconds)

    try:
        with _obs_session(args) as session:
            report = measure_fuzz_throughput(
                budget=args.budget,
                seed=args.seed,
                repeats=args.repeats,
                campaign_budget=args.campaign_budget,
                stage_observer=observer,
            )
            if session is not None and stage_hists:
                # Mirror the stage histograms into the obs artifacts.
                for stage, hist in stage_hists.items():
                    session.registry.histogram(
                        f"bench.{stage}.seconds"
                    ).merge(hist)
                session.write_metrics_snapshot()
    except (ValueError, KeyError) as exc:   # bad option values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = json.loads(report.to_json())
        payload["stages_obs"] = {
            stage: hist.summary()
            for stage, hist in sorted(stage_hists.items())
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary())
        _print_obs_outputs(args)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"\nbaseline: JSON -> {args.out}")
    if not args.baseline:
        if args.markdown:
            print("error: --markdown renders the baseline diff and "
                  "requires --baseline", file=sys.stderr)
            return 2
        return 0
    try:
        baseline = ThroughputReport.from_json(Path(args.baseline).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load baseline {args.baseline}: {exc}",
              file=sys.stderr)
        return 2
    if args.markdown:
        Path(args.markdown).write_text(report.markdown_diff(
            baseline, max_regression=args.max_regression
        ) + "\n")
        print(f"baseline diff: markdown -> {args.markdown}")
    warnings = report.compare(baseline, max_regression=args.max_regression)
    if warnings:
        for message in warnings:
            print(f"WARN: {message}",
                  file=sys.stderr if args.strict else sys.stdout)
        return 1 if args.strict else 0
    print(f"baseline: ok (no metric more than "
          f"{100 * args.max_regression:.0f}% below {args.baseline})")
    return 0


def _cmd_serve(args) -> int:
    from repro.api import ApiServer, VerificationService

    failed = _arm_faults(args)
    if failed is not None:
        return failed
    try:
        service = VerificationService(
            cache_path=args.verdict_cache,
            cache_size=args.verdict_cache_size,
            workers=args.workers,
            default_ctx_size=args.ctx_size,
            max_queue=args.max_queue,
            request_timeout_s=args.request_timeout,
        )
    except ValueError as exc:   # corrupt store, bad sizes — never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def banner(url: str) -> str:
        lines = [f"serve: {url}  (POST /verify, GET /verdict/<hash>, "
                 f"/healthz, /stats, /metrics)"]
        if args.verdict_cache:
            lines.append(f"serve: verdict store {args.verdict_cache} "
                         f"({len(service.cache)} entries)")
        if args.max_queue is not None or args.request_timeout is not None:
            lines.append(
                f"serve: max-queue="
                f"{args.max_queue if args.max_queue is not None else 'unbounded'} "
                f"request-timeout="
                f"{args.request_timeout if args.request_timeout is not None else 'none'}"
            )
        return "\n".join(lines)

    with _obs_session(args):
        try:
            served = _serve_until_stopped(
                ApiServer(service, host=args.host, port=args.port), banner
            )
        finally:
            service.close()
    if not served:
        return 2
    print("serve: shutdown")
    print(service.summary_line())
    _print_obs_outputs(args)
    return 0


def _serve_until_stopped(
    server: HttpServer,
    banner: Callable[[str], str],
    tick: Optional[Callable[[], bool]] = None,
) -> bool:
    """Start ``server``, print ``banner(url)``, serve until SIGINT/SIGTERM.

    ``tick`` runs every half second; serving also ends once it returns
    True.  Returns False, after one ``error: cannot bind`` line, when the
    server cannot bind (callers exit 2).
    """
    with _stop_on_signals() as stop:
        try:
            server.start()
        except OSError as exc:  # port in use, bad bind address
            print(f"error: cannot bind {server.host}:{server.port}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return False
        print(banner(server.url), flush=True)
        try:
            while not stop.wait(0.5):
                if tick is not None and tick():
                    break
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    return True


@contextmanager
def _stop_on_signals() -> Iterator[threading.Event]:
    """Yield an event that SIGINT/SIGTERM set instead of ending the run.

    Registration fails outside the main thread (tests drive the CLI
    from threads) — there KeyboardInterrupt handling alone applies.
    """
    import signal

    stop = threading.Event()
    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(
                signum, lambda *_args: stop.set()
            )
    except ValueError:
        pass
    try:
        yield stop
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _cmd_coordinate(args) -> int:
    from pathlib import Path

    from repro.api.dist import CoordinatorApi
    from repro.eval import render_precision_markdown, render_precision_report
    from repro.fuzz import (
        CampaignSpec,
        CampaignStateError,
        Coordinator,
        CoordinatorConfig,
        RetryPolicy,
    )

    failed = _arm_faults(args)
    if failed is not None:
        return failed
    try:
        # workers=1 on purpose: the field is excluded from the campaign
        # id (reports are fleet-size-independent), so any worker count
        # may attach.
        spec = CampaignSpec(
            budget=args.budget,
            rounds=args.rounds,
            seed=args.seed,
            workers=1,
            profile=args.profile,
            max_insns=args.max_insns,
            ctx_size=args.ctx_size,
            inputs_per_program=args.inputs,
            mutate_fraction=args.mutate_fraction,
            shrink=not args.no_shrink,
        )
        config = CoordinatorConfig(
            batch_size=args.batch_size,
            lease_timeout_s=args.lease_timeout,
            heartbeat_timeout_s=args.heartbeat_timeout,
            retry=RetryPolicy(
                max_attempts=args.batch_retries, seed=args.seed
            ),
        )
    except ValueError as exc:   # bad option values
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with _obs_session(args):
        try:
            coordinator = Coordinator(spec, args.state, config=config)
        except CampaignStateError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        def tick() -> bool:
            coordinator.tick()
            return coordinator.finished

        if not _serve_until_stopped(
            CoordinatorApi(coordinator, host=args.host, port=args.port),
            lambda url: (
                f"coordinate: {url}  (POST /lease, POST /result, "
                f"GET /round, /healthz, /stats)\n"
                f"coordinate: campaign {coordinator.cid} "
                f"budget={args.budget} rounds={args.rounds} "
                f"seed={args.seed} state={args.state}"
            ),
            tick,
        ):
            return 2

    result = coordinator.result()
    if not coordinator.finished:
        print(f"coordinate: interrupted after "
              f"{result.stats.rounds_completed}/{args.rounds} rounds — "
              f"rerun with the same --state to resume")
        _print_obs_outputs(args)
        return 0
    print(result.stats.summary())
    if result.quarantined:
        print(f"quarantine: {len(result.quarantined)} poison "
              f"batch(es) -> {args.state}/poison/")
    print()
    print(render_precision_report(result.report, top=args.top))
    _print_violations(result.corpus)
    if args.report:
        # Identical bytes to `repro campaign --report` for the same
        # spec — pinned by tests/fuzz/test_dist.py and CI dist-smoke.
        Path(args.report).write_text(result.report.to_json() + "\n")
        print(f"\nreport: JSON -> {args.report}")
    if args.markdown:
        Path(args.markdown).write_text(
            render_precision_markdown(result.report, top=args.top) + "\n"
        )
        print(f"report: markdown -> {args.markdown}")
    if args.corpus:
        result.corpus.save(args.corpus)
        print(f"corpus: {len(result.corpus)} entries -> {args.corpus}")
    _print_obs_outputs(args)
    return 0 if result.ok else 1


def _cmd_work(args) -> int:
    from repro.fuzz.dist import (
        CoordinatorUnreachable,
        DistProtocolError,
        run_worker,
    )

    failed = _arm_faults(args)
    if failed is not None:
        return failed
    with _stop_on_signals() as stop, _obs_session(args):
        try:
            out = run_worker(
                args.coordinator,
                name=args.name,
                stop=stop,
                poll_interval_s=args.poll_interval,
            )
        except (CoordinatorUnreachable, DistProtocolError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"work: {out['worker']} executed {out['batches']} batch(es), "
          f"{out['programs']} program(s), {out['errors']} error(s), "
          f"{out['duplicates']} duplicate ack(s)")
    _print_obs_outputs(args)
    return 0


def _cmd_stats(args) -> int:
    import json
    from pathlib import Path

    from repro import obs

    obs_dir = Path(args.obs_dir)
    if not obs_dir.is_dir():
        print(f"error: {obs_dir} is not a directory", file=sys.stderr)
        return 2

    heartbeat = None
    hb_path = obs_dir / "heartbeat.json"
    if hb_path.exists():
        try:
            heartbeat = obs.read_heartbeat(hb_path)
        except (ValueError, OSError) as exc:
            print(f"error: {hb_path}: {exc}", file=sys.stderr)
            return 2

    registry = obs.Registry()
    metrics_path = obs_dir / "metrics.json"
    if metrics_path.exists():
        try:
            registry.merge_dict(json.loads(metrics_path.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: {metrics_path}: {exc}", file=sys.stderr)
            return 2

    if args.serve:
        served = _serve_until_stopped(
            obs.StatsServer(lambda: registry, obs_dir=obs_dir, port=args.port),
            lambda url: f"serving {url} (/metrics, /stats) — Ctrl-C to stop",
        )
        return 0 if served else 2

    if args.json:
        payload = obs.StatsServer(
            lambda: registry, obs_dir=obs_dir
        ).stats_payload()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if heartbeat is not None:
        skip = ("schema_version", "seq", "pid", "interval_s", "ts")
        fields = " ".join(
            f"{key}={heartbeat[key]}"
            for key in sorted(heartbeat)
            if key not in skip and not isinstance(heartbeat[key], list)
        )
        print(f"heartbeat: {fields}")
        print(f"           seq={heartbeat['seq']} pid={heartbeat['pid']} "
              f"interval={heartbeat['interval_s']}s")
        for entry in heartbeat.get("top_verifier_ops", []):
            print(f"           verifier {entry['op']:<12} "
                  f"{entry['total_s']:.4f}s over {entry['calls']} calls")
        warning = obs.staleness_warning(heartbeat)
        if warning:
            print(f"WARN: {warning}")
    else:
        print(f"heartbeat: none ({hb_path} does not exist)")

    if registry.counters:
        print("\ncounters:")
        for name in sorted(registry.counters):
            print(f"  {name:<28} {registry.counters[name].value}")
    components = sorted({comp for comp, _ in registry.timers})
    for component in components:
        print(f"\n{component} time by operator (top {args.top}):")
        print(f"  {'op':<12} {'total_s':>10} {'calls':>10} "
              f"{'mean_us':>9} {'max_us':>9}")
        for label, t in registry.top_timers(component, args.top):
            mean_us = t.total_ns / t.count / 1e3 if t.count else 0.0
            print(f"  {label:<12} {t.total_ns / 1e9:>10.4f} "
                  f"{t.count:>10} {mean_us:>9.2f} {t.max_ns / 1e3:>9.1f}")

    trace_path = obs_dir / "trace.jsonl"
    bad_records = 0
    if trace_path.exists():
        problems: list = []
        events = []
        for lineno, event in enumerate(obs.read_trace(trace_path), 1):
            events.append(event)
            if args.validate:
                for problem in obs.validate_event(event):
                    bad_records += 1
                    if len(problems) < 10:
                        problems.append(f"  line {lineno}: {problem}")
        spans = obs.aggregate_spans(events)
        if spans:
            print(f"\ntrace spans ({trace_path.name}, "
                  f"{len(events)} records):")
            print(f"  {'name':<24} {'count':>8} {'total_s':>10} "
                  f"{'max_s':>9}")
            for name in sorted(spans):
                entry = spans[name]
                print(f"  {name:<24} {entry['count']:>8} "
                      f"{entry['total_s']:>10.4f} {entry['max_s']:>9.4f}")
        if args.validate:
            if bad_records:
                print(f"\ntrace: {bad_records} invalid record(s):",
                      file=sys.stderr)
                for line in problems:
                    print(line, file=sys.stderr)
            else:
                print(f"\ntrace: all {len(events)} records are "
                      f"schema-valid (v{obs.TRACE_SCHEMA_VERSION})")
    elif args.validate:
        print(f"error: {trace_path} does not exist", file=sys.stderr)
        return 2
    return 1 if bad_records else 0


_DISPATCH = {
    "verify": _cmd_verify,
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "asm": _cmd_asm,
    "disasm": _cmd_disasm,
    "check-op": _cmd_check_op,
    "eval": _cmd_eval,
    "fuzz": _cmd_fuzz,
    "campaign": _cmd_campaign,
    "campaign-diff": _cmd_campaign_diff,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "coordinate": _cmd_coordinate,
    "work": _cmd_work,
    "stats": _cmd_stats,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _DISPATCH[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
