"""``repro fuzz``: determinism, parallelism, corpus, CLI integration.

``repro fuzz`` runs the one-round, feedback-free precision campaign
(:func:`repro.fuzz.fuzz_spec`); these tests drive that preset directly
and through the CLI.
"""

import json

import pytest

from repro.cli import main
from repro.core.tnum import Tnum
from repro.fuzz import (
    Corpus,
    fuzz_spec,
    generate_program,
    run_precision_campaign,
)


def stats_key(stats):
    return (
        stats.executed, stats.accepted, stats.rejected,
        stats.rejected_clean, stats.violations, stats.containment_checks,
    )


class TestCampaign:
    def test_clean_campaign(self):
        result = run_precision_campaign(fuzz_spec(budget=60, seed=42))
        assert result.ok
        assert result.stats.executed == 60
        assert result.stats.violations == 0
        assert result.stats.programs_per_second > 0

    def test_deterministic_across_runs(self):
        spec = fuzz_spec(budget=40, seed=11)
        a = run_precision_campaign(spec)
        b = run_precision_campaign(spec)
        assert stats_key(a.stats) == stats_key(b.stats)
        assert a.corpus.to_json() == b.corpus.to_json()

    def test_deterministic_across_worker_counts(self):
        a = run_precision_campaign(fuzz_spec(budget=30, seed=3))
        b = run_precision_campaign(fuzz_spec(budget=30, seed=3, workers=2))
        assert stats_key(a.stats) == stats_key(b.stats)
        # Two workers fold their operator telemetry per batch, one
        # worker over the whole round: the report must not notice.
        assert a.report.to_json() == b.report.to_json()

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            fuzz_spec(profile="bogus")

    def test_injected_bug_produces_shrunk_corpus_entry(self, monkeypatch):
        import repro.domains.product as product

        real_add = product.tnum_add

        def buggy_add(p: Tnum, q: Tnum) -> Tnum:
            t = real_add(p, q)
            if t.is_bottom():
                return t
            return Tnum(t.value & ~1, t.mask & ~1, t.width)

        monkeypatch.setattr(product, "tnum_add", buggy_add)
        result = run_precision_campaign(
            fuzz_spec(budget=40, seed=0, profile="alu")
        )
        assert not result.ok
        entry = result.corpus.violations()[0]
        assert entry.violation["kind"] == "containment"
        shrunk = entry.shrunk_program()
        assert shrunk is not None
        assert len(shrunk) <= 8


class TestCorpusPersistence:
    def test_roundtrip(self, tmp_path):
        corpus = Corpus()
        gp = generate_program(1)
        corpus.add_seed(gp.program, seed=1, profile="mixed")
        corpus.add_violation(
            gp.program, seed=1, profile="mixed",
            violation={"kind": "containment", "message": "x"},
        )
        path = tmp_path / "corpus.json"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert len(loaded) == 2
        assert loaded.to_json() == corpus.to_json()
        assert loaded.entries[0].program().to_bytes() == \
            gp.program.to_bytes()

    def test_bad_format_version_rejected(self):
        with pytest.raises(ValueError):
            Corpus.from_json(json.dumps(
                {"format_version": 99, "entries": []}
            ))


class TestFuzzCli:
    def test_clean_run_exit_zero(self, capsys):
        assert main(["fuzz", "--budget", "25", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "programs/sec" in out
        assert "violations: 0" in out

    def test_corpus_file_written(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert main([
            "fuzz", "--budget", "10", "--seed", "1",
            "--corpus", str(path), "--max-insns", "16",
        ]) == 0
        assert path.exists()
        Corpus.load(path)  # parses

    def test_violation_run_exit_one(self, capsys, monkeypatch):
        import repro.domains.product as product

        real_add = product.tnum_add

        def buggy_add(p: Tnum, q: Tnum) -> Tnum:
            t = real_add(p, q)
            if t.is_bottom():
                return t
            return Tnum(t.value & ~1, t.mask & ~1, t.width)

        monkeypatch.setattr(product, "tnum_add", buggy_add)
        assert main([
            "fuzz", "--budget", "40", "--seed", "0", "--profile", "alu",
        ]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "shrunk witness" in out

    def test_check_op_seed_flag(self, capsys):
        assert main([
            "check-op", "add", "--method", "random",
            "--trials", "200", "--seed", "9",
        ]) == 0
        assert "seed 9" in capsys.readouterr().out
