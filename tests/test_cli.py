"""CLI integration tests (python -m repro)."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.fuzz import PROFILES

SAFE = """
    mov r0, 0
    stxdw [r10-8], r0
    ldxdw r2, [r10-8]
    add r0, r2
    exit
"""

UNSAFE = """
    ldxdw r0, [r10-8]
    exit
"""

#: A precision report, for campaign-diff's baseline argument.
BASELINE = str(
    Path(__file__).parent / "fuzz" / "golden" / "precision-seed42-b40.json"
)

#: Accepted by nothing, but assembles: the store faults when run.
OOB_STORE = """
    mov r1, 5
    stxdw [r10+8], r1
    mov r0, 0
    exit
"""


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.s"
    path.write_text(SAFE)
    return str(path)


@pytest.fixture
def unsafe_file(tmp_path):
    path = tmp_path / "unsafe.s"
    path.write_text(UNSAFE)
    return str(path)


class TestVerify:
    def test_accepts(self, safe_file, capsys):
        assert main(["verify", safe_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_rejects(self, unsafe_file, capsys):
        assert main(["verify", unsafe_file]) == 1
        assert "REJECTED" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["verify"], ["verify", "--wire"], ["run"], ["analyze"],
        ["asm", "-o", "out.bin"], ["disasm"],
    ])
    def test_missing_file_is_one_line_error(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.s")
        assert main(command[:1] + [missing] + command[1:]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["verify", "run", "analyze", "asm"])
    def test_bad_assembly_is_one_line_error(self, command, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text("mvo r0, 0\nexit\n")
        extra = ["-o", str(tmp_path / "out.bin")] if command == "asm" else []
        assert main([command, str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 1: unknown mnemonic 'mvo'\n"


class TestRun:
    def test_runs(self, safe_file, capsys):
        assert main(["run", safe_file]) == 0
        assert "r0 = 0" in capsys.readouterr().out

    def test_ctx_bytes(self, tmp_path, capsys):
        path = tmp_path / "ctx.s"
        path.write_text("ldxb r0, [r1+0]\nexit")
        assert main(["run", str(path), "--ctx", "2a"]) == 0
        assert "r0 = 42" in capsys.readouterr().out

    def test_trace(self, safe_file, capsys):
        assert main(["run", safe_file, "--trace"]) == 0
        assert capsys.readouterr().out.endswith("\ntrace: 0 1 2 3 4\n")

    def test_faulting_run_fails_like_a_rejection(self, tmp_path, capsys):
        path = tmp_path / "oob.s"
        path.write_text(OOB_STORE)
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: pc 1: out-of-bounds")
        assert len(captured.err.splitlines()) == 1

    def test_program_without_exit_fails(self, tmp_path, capsys):
        path = tmp_path / "noexit.s"
        path.write_text("mov r0, 0\n")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_bad_ctx_hex_is_usage_error(self, safe_file, capsys):
        assert main(["run", safe_file, "--ctx", "zz"]) == 2
        assert capsys.readouterr().err.startswith("error: --ctx: ")

    def test_ctx_longer_than_ctx_size_is_usage_error(self, tmp_path, capsys):
        # verify --ctx-size 8 rejects this read, so run must not make it.
        path = tmp_path / "ctx60.s"
        path.write_text("ldxw r0, [r1+60]\nexit")
        assert main(["verify", str(path), "--ctx-size", "8"]) == 1
        capsys.readouterr()
        assert main(["run", str(path), "--ctx-size", "8",
                     "--ctx", "ab" * 66]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --ctx: 66 bytes exceed --ctx-size 8\n"
        # A context of exactly --ctx-size bytes still runs.
        assert main(["run", str(path), "--ctx", "ab" * 64]) == 0
        assert "(0xabababab)" in capsys.readouterr().out


class TestAnalyze:
    def test_dumps_states(self, safe_file, capsys):
        assert main(["analyze", safe_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out
        assert "scalar" in out

    def test_rejects(self, unsafe_file, capsys):
        assert main(["analyze", unsafe_file]) == 1


class TestAsmDisasm:
    def test_roundtrip(self, safe_file, tmp_path, capsys):
        out = tmp_path / "prog.bin"
        assert main(["asm", safe_file, "-o", str(out)]) == 0
        assert out.stat().st_size % 8 == 0
        assert main(["disasm", str(out)]) == 0
        text = capsys.readouterr().out
        assert "exit" in text and "stxdw" in text


class TestCheckOp:
    def test_sat(self, capsys):
        assert main(["check-op", "add", "--width", "6"]) == 0
        assert "SOUND" in capsys.readouterr().out

    def test_exhaustive(self, capsys):
        assert main(["check-op", "add", "--width", "3",
                     "--method", "exhaustive"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_exhaustive_shift(self, capsys):
        assert main(["check-op", "lsh", "--width", "3",
                     "--method", "exhaustive"]) == 0

    def test_random(self, capsys):
        assert main(["check-op", "mul", "--width", "64",
                     "--method", "random", "--trials", "200"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_unknown_op_exhaustive(self, capsys):
        assert main(["check-op", "nope", "--method", "exhaustive"]) == 2


class TestCampaignCli:
    ARGS = ["campaign", "--budget", "24", "--rounds", "2", "--seed", "7"]

    def test_clean_run_exit_zero_and_schema(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(self.ARGS + ["--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "programs/sec" in out
        assert "per-operator imprecision" in out

        payload = json.loads(report_path.read_text())
        assert payload["format_version"] == 1
        assert payload["programs"] == 24
        assert payload["operators"], "report lists no operators"
        assert payload["ranking"], "report has no operator ranking"
        for entry in payload["operators"].values():
            assert set(entry) >= {
                "occurrences", "gamma_hist", "tightness_sum",
                "tightness_max", "rejections", "rejected_clean",
                "imprecision_mass",
            }

    def test_top_ranked_operator_matches_library_run(self, tmp_path):
        from repro.fuzz import CampaignSpec, run_precision_campaign

        report_path = tmp_path / "report.json"
        assert main(self.ARGS + ["--report", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())

        expected = run_precision_campaign(
            CampaignSpec(budget=24, rounds=2, seed=7)
        ).report.ranked()[0].op
        assert payload["ranking"][0] == expected
        # Labels follow the transfer-function naming scheme.
        assert re.fullmatch(
            r"(refine_)?[a-z]+(32|64)|cfg|load|store|lddw|exit|call|ja",
            payload["ranking"][0],
        )

    def test_seed_propagation(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        assert main(self.ARGS + ["--report", str(a)]) == 0
        assert main(self.ARGS + ["--report", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert main([
            "campaign", "--budget", "24", "--rounds", "2", "--seed", "8",
            "--report", str(c),
        ]) == 0
        assert a.read_text() != c.read_text()

    def test_markdown_and_corpus_written(self, tmp_path, capsys):
        md = tmp_path / "report.md"
        corpus = tmp_path / "corpus.json"
        assert main(self.ARGS + [
            "--markdown", str(md), "--corpus", str(corpus),
        ]) == 0
        assert md.read_text().startswith("# Campaign precision report")
        from repro.fuzz import Corpus
        Corpus.load(corpus)  # parses

    def test_state_resume(self, tmp_path, capsys):
        state = tmp_path / "state"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(self.ARGS + [
            "--state", str(state), "--report", str(first),
        ]) == 0
        assert (state / "state.json").exists()
        assert main(self.ARGS + [
            "--state", str(state), "--report", str(second),
        ]) == 0
        assert first.read_text() == second.read_text()


class TestEval:
    def test_table1(self, capsys):
        assert main(["eval", "table1", "--width", "5"]) == 0
        assert "bitwidth" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["eval", "fig4", "--width", "4"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["eval", "fig5", "--pairs", "30"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_closed_stdout_exits_without_a_traceback(self):
        """`repro ... | head`: a reader that went away is exit 1, not a
        BrokenPipeError traceback."""
        import os
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        read_end, write_end = os.pipe()
        os.close(read_end)   # closed before the command writes anything
        try:
            proc = subprocess.run(
                [_sys.executable, "-m", "repro", "eval", "table1",
                 "--width", "5"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode == 1


class TestCampaignDiffCli:
    # Mutation off to match campaign-diff's run-mode default (identical
    # program streams are what make cross-run diffs meaningful).
    CAMPAIGN = ["campaign", "--budget", "24", "--rounds", "2", "--seed", "7",
                "--mutate-fraction", "0"]

    @pytest.fixture
    def saved_report(self, tmp_path):
        path = tmp_path / "baseline.json"
        assert main(self.CAMPAIGN + ["--report", str(path)]) == 0
        return path

    def test_identical_reports_pass_gate(self, saved_report, tmp_path, capsys):
        copy = tmp_path / "copy.json"
        copy.write_text(saved_report.read_text())
        assert main([
            "campaign-diff", str(saved_report), str(copy),
        ]) == 0
        out = capsys.readouterr().out
        assert "gate: ok" in out
        assert "+0.0%" in out

    def test_run_mode_matches_baseline(self, saved_report, capsys):
        # Omitting the candidate runs a campaign with the given spec;
        # determinism makes it byte-identical to the saved baseline.
        assert main([
            "campaign-diff", str(saved_report),
            "--budget", "24", "--rounds", "2", "--seed", "7",
        ]) == 0
        assert "gate: ok" in capsys.readouterr().out

    def test_regression_fails_gate(self, saved_report, tmp_path, capsys):
        payload = json.loads(saved_report.read_text())
        label, entry = next(iter(payload["operators"].items()))
        entry["tightness_sum"] += 10_000
        entry["imprecision_mass"] += 10_000
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(payload))
        assert main(["campaign-diff", str(saved_report), str(worse)]) == 1
        assert "tightness mass regressed" in capsys.readouterr().err

    def test_no_gate_reports_only(self, saved_report, tmp_path, capsys):
        payload = json.loads(saved_report.read_text())
        label, entry = next(iter(payload["operators"].items()))
        entry["tightness_sum"] += 10_000
        entry["imprecision_mass"] += 10_000
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(payload))
        assert main([
            "campaign-diff", str(saved_report), str(worse), "--no-gate",
        ]) == 0
        assert "GATE:" in capsys.readouterr().out

    def test_violations_fail_gate(self, saved_report, tmp_path, capsys):
        payload = json.loads(saved_report.read_text())
        payload["violations"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["campaign-diff", str(saved_report), str(bad)]) == 1
        assert "soundness violation" in capsys.readouterr().err

    def test_markdown_artifact(self, saved_report, tmp_path):
        md = tmp_path / "diff.md"
        assert main([
            "campaign-diff", str(saved_report), str(saved_report),
            "--markdown", str(md),
        ]) == 0
        assert md.read_text().startswith("# Campaign precision diff")

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        assert main(["campaign-diff", str(tmp_path / "nope.json")]) == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_corrupt_candidate_is_usage_error(self, saved_report, tmp_path,
                                              capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["campaign-diff", str(saved_report), str(bad)]) == 2
        assert "cannot load candidate" in capsys.readouterr().err


    def test_report_conflicts_with_explicit_candidate(self, saved_report,
                                                      tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main([
            "campaign-diff", str(saved_report), str(saved_report),
            "--report", str(out),
        ]) == 2
        assert "conflicts" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["campaign-diff", str(bad)]) == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_campaign_flags_conflict_with_explicit_candidate(
            self, saved_report, capsys):
        assert main([
            "campaign-diff", str(saved_report), str(saved_report),
            "--seed", "9", "--budget", "500",
        ]) == 2
        err = capsys.readouterr().err
        assert "--budget" in err and "--seed" in err
        assert "no effect" in err


class TestVerifyJsonAndWire:
    def test_json_accept_payload(self, safe_file, capsys):
        assert main(["verify", safe_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "accept"
        assert payload["ok"] is True
        assert len(payload["canonical_hash"]) == 64
        assert payload["cached"] is False
        assert "error" not in payload

    def test_json_reject_payload(self, unsafe_file, capsys):
        assert main(["verify", unsafe_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "reject"
        assert isinstance(payload["error"]["index"], int)
        assert payload["error"]["reason"]

    def test_wire_input(self, tmp_path, capsys):
        from repro.bpf import assemble

        wire = tmp_path / "prog.bin"
        wire.write_bytes(assemble(SAFE).to_bytes())
        assert main(["verify", str(wire), "--wire"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_wire_garbage_is_usage_error(self, tmp_path, capsys):
        wire = tmp_path / "prog.bin"
        wire.write_bytes(b"\xde\xad\xbe\xef")
        assert main(["verify", str(wire), "--wire"]) == 2
        assert "error" in capsys.readouterr().err


class TestServeCli:
    def test_corrupt_verdict_store_is_usage_error(self, tmp_path, capsys):
        store = tmp_path / "verdicts.json"
        store.write_text("{truncated")
        assert main(["serve", "--verdict-cache", str(store)]) == 2
        err = capsys.readouterr().err
        assert "corrupt or truncated" in err
        assert str(store) in err

    def test_nonpositive_cache_size_with_a_store_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli
        from repro.bpf.canon import VerdictCache

        # Were the size accepted, serve would block; fail instead.
        monkeypatch.setattr(cli, "_serve_until_stopped", lambda *a: pytest.fail(
            "served with a cache that keeps nothing"
        ))
        store = tmp_path / "verdicts.json"
        VerdictCache().save(store)
        assert main(["serve", "--verdict-cache", str(store), "--port", "0",
                     "--verdict-cache-size", "0"]) == 2
        assert "error: max_entries must be >= 1" in capsys.readouterr().err

    def test_serve_end_to_end(self, tmp_path):
        """Boot `repro serve` in a subprocess, verify over HTTP, SIGTERM."""
        import os
        import re
        import signal
        import subprocess
        import sys as _sys
        import urllib.request

        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"(http://[\d.]+:\d+)", line)
            assert match, f"no URL in serve banner: {line!r}"
            url = match.group(1)
            with urllib.request.urlopen(url + "/healthz", timeout=10) as r:
                assert json.loads(r.read())["status"] == "ok"
            body = bytes.fromhex("b700000000000000" "9500000000000000")
            request = urllib.request.Request(
                url + "/verify", data=body,
                headers={"Content-Type": "application/octet-stream"},
            )
            with urllib.request.urlopen(request, timeout=10) as r:
                assert json.loads(r.read())["verdict"] == "accept"
        finally:
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "serve: shutdown" in output
        assert "verdict cache:" in output


class TestResilienceFlags:
    @pytest.fixture(autouse=True)
    def disarmed(self):
        from repro import faults

        faults.disarm()
        yield
        faults.disarm()

    def test_port_in_use_is_one_line_error(self, capsys):
        import socket

        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        port = sock.getsockname()[1]
        try:
            assert main(["serve", "--port", str(port)]) == 2
        finally:
            sock.close()
        err = capsys.readouterr().err
        assert "cannot bind" in err and str(port) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["serve", "--faults", "bogus"],
        ["fuzz", "--budget", "2", "--faults", "nosuch.site=1"],
        ["campaign", "--budget", "2", "--faults", "seed=x"],
    ])
    def test_bad_faults_spec_is_usage_error(self, command, capsys):
        assert main(command) == 2
        assert "error: --faults" in capsys.readouterr().err

    def test_bad_batch_retries_is_usage_error(self, capsys):
        assert main(["fuzz", "--budget", "2", "--batch-retries", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,message", [
        (["fuzz", "--budget", "-5"], "budget must be >= 1"),
        (["fuzz", "--budget", "2", "--inputs", "0"],
         "inputs_per_program must be >= 1"),
        (["campaign", "--budget", "2", "--inputs", "0"],
         "inputs_per_program must be >= 1"),
        (["check-op", "add", "--width", "0"], "--width must be >= 1"),
        (["check-op", "mul", "--width", "-2"], "--width must be >= 1"),
        (["check-op", "add", "--method", "exhaustive", "--width", "0"],
         "--width must be >= 1"),
        (["check-op", "add", "--method", "random", "--width", "0"],
         "--width must be >= 1"),
        (["check-op", "add", "--method", "random", "--trials", "0"],
         "--trials must be >= 1"),
        (["check-op", "nope"], "unknown operator 'nope' for --method sat"),
        (["check-op", "nope", "--method", "random"],
         "unknown operator 'nope' for --method random"),
        (["check-op", "nope", "--method", "exhaustive"],
         "unknown operator 'nope' for --method exhaustive"),
        (["eval", "table1", "--width", "4"], "--width must be >= 5"),
        (["eval", "fig4", "--width", "0"], "--width must be >= 1"),
        (["eval", "fig5", "--pairs", "0"], "--pairs must be >= 1"),
        (["fuzz", "--budget", "5", "--ctx-size", "-4"],
         "ctx_size must be >= 0"),
        (["campaign", "--budget", "5", "--ctx-size", "-1"],
         "ctx_size must be >= 0"),
        (["campaign-diff", BASELINE, "--ctx-size", "-2"],
         "ctx_size must be >= 0"),
        (["verify", "PROGRAM", "--ctx-size", "-3"], "--ctx-size must be >= 0"),
        (["run", "PROGRAM", "--ctx-size", "-3"], "--ctx-size must be >= 0"),
        (["analyze", "PROGRAM", "--ctx-size", "-3"],
         "--ctx-size must be >= 0"),
        (["fuzz", "--budget", "2", "--workers", "0"],
         "workers must be >= 1"),
        (["campaign", "--budget", "2", "--workers", "-3"],
         "workers must be >= 1"),
        # Generated context loads need s16 offsets, generated programs
        # must fit isa.MAX_INSNS, and POST /verify caps the context.
        (["fuzz", "--budget", "50", "--ctx-size", "40000"],
         "ctx_size must be <= 32768"),
        (["campaign", "--budget", "50", "--rounds", "1",
          "--ctx-size", "40000"], "ctx_size must be <= 32768"),
        (["campaign-diff", BASELINE, "--ctx-size", "32769"],
         "ctx_size must be <= 32768"),
        (["fuzz", "--budget", "9", "--max-insns", "4089",
          "--profile", "branchy"], "max_insns must be <= 4088"),
        (["campaign", "--budget", "9", "--max-insns", "4096"],
         "max_insns must be <= 4088"),
        (["verify", "PROGRAM", "--ctx-size", "65537"],
         "--ctx-size must be <= 65536"),
        (["run", "PROGRAM", "--ctx-size", "30000000"],
         "--ctx-size must be <= 65536"),
        (["analyze", "PROGRAM", "--ctx-size", "65537"],
         "--ctx-size must be <= 65536"),
        # Tables cut to --top rows: [:0] shows none, [:-1] drops the last.
        (["campaign", "--budget", "20", "--rounds", "1", "--top", "0"],
         "--top must be >= 1"),
        (["campaign", "--budget", "20", "--rounds", "1", "--top", "-1"],
         "--top must be >= 1"),
        (["campaign-diff", BASELINE, "--budget", "20", "--top", "0"],
         "--top must be >= 1"),
        (["coordinate", "--state", "PROGRAM", "--top", "0"],
         "--top must be >= 1"),
        (["stats", "PROGRAM", "--top", "-1"], "--top must be >= 1"),
    ])
    def test_run_that_checks_nothing_is_usage_error(
            self, command, message, safe_file, capsys):
        command = [safe_file if arg == "PROGRAM" else arg for arg in command]
        assert main(command) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_fuzz_accepts_chaos_flags(self, capsys):
        assert main([
            "fuzz", "--budget", "4", "--seed", "1", "--no-shrink",
            "--faults", "seed=1,campaign.worker.crash=0",
            "--batch-retries", "2", "--lease-timeout", "30",
        ]) == 0
        assert "programs" in capsys.readouterr().out

    def test_serve_announces_degradation_limits(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0",
             "--max-queue", "8", "--request-timeout", "2.5"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            assert "serve:" in proc.stdout.readline()
            limits = proc.stdout.readline()
            assert "max-queue=8" in limits
            assert "request-timeout=2.5" in limits
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
        assert proc.returncode == 0


class TestProgramFlags:
    """fuzz, campaign, campaign-diff and coordinate share one declaration
    of the flags that shape a campaign's programs."""

    @staticmethod
    def _subparser(command):
        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return commands.choices[command]

    @pytest.mark.parametrize(
        "command", ["fuzz", "campaign", "campaign-diff", "coordinate"]
    )
    def test_every_generator_profile_is_reachable(self, command):
        parser = self._subparser(command)
        (profile,) = [a for a in parser._actions if a.dest == "profile"]
        assert set(profile.choices) == set(PROFILES)
        # campaign-diff's candidate-only flag check compares with these.
        assert [parser.get_default(name) for name in
                ("profile", "max_insns", "inputs", "ctx_size")] == [
            "mixed", 32, 8, 64,
        ]


class TestDistCli:
    def test_coordinate_requires_state(self):
        with pytest.raises(SystemExit) as err:
            main(["coordinate", "--budget", "4"])
        assert err.value.code == 2

    def test_work_requires_coordinator_url(self):
        with pytest.raises(SystemExit) as err:
            main(["work"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", [
        ["campaign", "--budget", "4", "--rounds", "1"],
        ["coordinate", "--budget", "4", "--port", "0"],
    ])
    def test_state_path_that_is_a_file_is_usage_error(
            self, command, safe_file, capsys):
        assert main([*command, "--state", safe_file]) == 2
        assert (f"error: state path {safe_file} is not usable as a "
                f"directory") in capsys.readouterr().err

    def test_coordinate_rejects_bad_batch_size(self, tmp_path, capsys):
        assert main([
            "coordinate", "--budget", "4", "--state", str(tmp_path / "s"),
            "--batch-size", "0",
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_retry_policy_threads_the_campaign_seed(self):
        from repro.cli import _retry_policy

        policy = _retry_policy(argparse.Namespace(
            batch_retries=4, lease_timeout=None, seed=9,
        ))
        assert policy.max_attempts == 4
        assert policy.seed == 9
        # Distinct seeds give distinct jittered schedules.
        other = _retry_policy(argparse.Namespace(
            batch_retries=4, lease_timeout=None, seed=10,
        ))
        assert policy.backoff_s(2, key=(1,)) != other.backoff_s(2, key=(1,))

    def test_coordinate_and_work_end_to_end(self, tmp_path):
        import os
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        report = tmp_path / "dist.json"
        coordinator = subprocess.Popen(
            [_sys.executable, "-m", "repro", "coordinate",
             "--budget", "8", "--rounds", "1", "--seed", "3",
             "--no-shrink", "--max-insns", "8", "--inputs", "2",
             "--state", str(tmp_path / "state"), "--port", "0",
             "--batch-size", "4", "--report", str(report)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            banner = coordinator.stdout.readline()
            assert "coordinate: http://" in banner
            url = banner.split()[1]
            worker = subprocess.run(
                [_sys.executable, "-m", "repro", "work", url,
                 "--name", "cli-w1"],
                capture_output=True, text=True, env=env, timeout=300,
            )
            out, _ = coordinator.communicate(timeout=300)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.communicate()
        assert coordinator.returncode == 0, out
        assert "programs" in out           # stats summary printed
        assert report.exists()
        payload = json.loads(report.read_text())
        assert payload                      # a real PrecisionReport
        # The worker either finished cleanly or lost a final poll race
        # against coordinator shutdown — both are fine for a tiny run.
        assert worker.returncode in (0, 2), worker.stderr
        if worker.returncode == 0:
            assert "work: cli-w1 executed" in worker.stdout
