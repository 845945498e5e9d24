"""Precision campaign: determinism, telemetry, mutation feedback, resume."""

import json
from dataclasses import replace

import pytest

from repro.core.tnum import Tnum
from repro.eval.precision import REJECT_COST_BITS, PrecisionReport
from repro.fuzz import (
    CampaignSpec,
    fuzz_spec,
    generate_program,
    run_precision_campaign,
)
from repro.fuzz.campaign import _fuzz_batch, _merge_result, _set_worker_state


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(budget=40, rounds=2, seed=7)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestSpec:
    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            CampaignSpec(profile="bogus")

    def test_bad_rounds_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(rounds=0)

    def test_bad_mutate_fraction_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(mutate_fraction=1.5)

    def test_negative_ctx_size_rejected(self):
        with pytest.raises(ValueError, match="ctx_size must be >= 0"):
            CampaignSpec(ctx_size=-1)

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            CampaignSpec(workers=0)

    def test_ctx_size_beyond_s16_load_offsets_rejected(self):
        assert CampaignSpec(ctx_size=32768).ctx_size == 32768
        with pytest.raises(ValueError, match="ctx_size must be <= 32768"):
            CampaignSpec(ctx_size=32769)

    def test_max_insns_beyond_the_program_size_limit_rejected(self):
        assert CampaignSpec(max_insns=4088).max_insns == 4088
        with pytest.raises(ValueError, match="max_insns must be <= 4088"):
            CampaignSpec(max_insns=4089)

    def test_largest_context_fuzzes(self):
        # Loads near the end of a 32 KiB context need offsets up to
        # 32767, the largest s16.
        result = run_precision_campaign(fuzz_spec(
            budget=6, seed=2, profile="memory", ctx_size=32768,
            inputs_per_program=2,
        ))
        assert result.ok and result.stats.executed == 6


class TestCrossWorkerDeterminism:
    def test_merged_report_byte_identical_across_1_2_4_workers(self):
        """Same campaign seed, 1/2/4 workers: byte-identical report JSON."""
        spec = small_spec()
        reference = run_precision_campaign(spec)
        for workers in (2, 4):
            result = run_precision_campaign(replace(spec, workers=workers))
            assert result.report.to_json() == reference.report.to_json()
            assert result.corpus.to_json() == reference.corpus.to_json()
            assert result.pool == reference.pool

    def test_same_seed_reproducible(self):
        spec = small_spec(seed=11)
        a = run_precision_campaign(spec)
        b = run_precision_campaign(spec)
        assert a.report.to_json() == b.report.to_json()

    def test_different_seed_differs(self):
        a = run_precision_campaign(small_spec(seed=1))
        b = run_precision_campaign(small_spec(seed=2))
        assert a.report.to_json() != b.report.to_json()


class TestTelemetry:
    def test_operators_observed(self):
        result = run_precision_campaign(small_spec())
        report = result.report
        assert report.programs == 40
        assert report.operators, "no transfer functions observed"
        for stats in report.operators.values():
            assert stats.occurrences >= 0
            assert sum(stats.gamma_hist.values()) == stats.occurrences
            assert stats.imprecision_mass == (
                stats.tightness_sum + REJECT_COST_BITS * stats.rejected_clean
            )

    def test_rejections_attributed_exactly_once(self):
        result = run_precision_campaign(
            small_spec(budget=60, profile="memory")
        )
        report = result.report
        assert sum(s.rejections for s in report.operators.values()) == \
            report.rejected
        assert sum(s.rejected_clean for s in report.operators.values()) == \
            report.rejected_clean

    def test_ranking_sorted_by_mass(self):
        result = run_precision_campaign(small_spec())
        ranked = result.report.ranked()
        masses = [s.imprecision_mass for s in ranked]
        assert masses == sorted(masses, reverse=True)

    def test_json_round_trip(self):
        result = run_precision_campaign(small_spec())
        reloaded = PrecisionReport.from_json(result.report.to_json())
        assert reloaded.to_json() == result.report.to_json()


class TestBatchFold:
    """A batch folds its programs' per-operator telemetry into one map
    on its first result; the merged report cannot tell."""

    @pytest.fixture
    def mutant_batch(self):
        # Every program mutates a pool seed, so rejections, clean
        # rejections and tightness all reach the fold.
        spec = CampaignSpec(budget=40, rounds=1, seed=7, profile="memory",
                            mutate_fraction=1.0)
        pool = tuple(
            generate_program(seed, "memory").program.to_bytes().hex()
            for seed in range(4)
        )
        _set_worker_state(spec, pool)
        return range(spec.budget)

    def test_first_result_carries_the_batch_map(self, mutant_batch):
        results = _fuzz_batch(mutant_batch, 0, False)
        assert [res["index"] for res in results] == list(mutant_batch)
        assert results[0]["ops"]
        assert all(res["ops"] == {} for res in results[1:])

    def test_fold_changes_no_report(self, mutant_batch):
        folded = _fuzz_batch(mutant_batch, 0, False)
        one_by_one = [
            res for index in mutant_batch
            for res in _fuzz_batch([index], 0, False)
        ]
        reports = []
        for results in (folded, one_by_one):
            report = PrecisionReport()
            # Through JSON, as results cross the dist wire.
            for res in json.loads(json.dumps(results)):
                _merge_result(report, res)
            reports.append(report)
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[0].rejected_clean > 0
        assert any(s.tightness_count for s in reports[0].operators.values())

    def test_fuzz_spec_ships_hex_only_with_violations(self, monkeypatch):
        # repro fuzz's spec admits no mutation seeds, so the merge reads
        # a program's hex only to shrink a violation into the corpus.
        import repro.domains.product as product

        real_add = product.tnum_add

        def buggy_add(p: Tnum, q: Tnum) -> Tnum:
            t = real_add(p, q)
            if t.is_bottom():
                return t
            return Tnum(t.value & ~1, t.mask & ~1, t.width)

        monkeypatch.setattr(product, "tnum_add", buggy_add)
        _set_worker_state(fuzz_spec(budget=40, seed=0, profile="alu"), ())
        results = _fuzz_batch(range(40), 0, False)
        assert any(res["violations"] for res in results)
        assert any(
            (res["near_miss"] or res["rejected_but_clean"])
            and not res["violations"]
            for res in results
        )
        assert all(
            ("bytecode_hex" in res) == bool(res["violations"])
            for res in results
        )


class TestMutationFeedback:
    def test_mutants_fuzzed_after_round_one(self):
        result = run_precision_campaign(
            small_spec(budget=60, mutate_fraction=1.0)
        )
        assert result.stats.mutants > 0
        assert result.report.mutants == result.stats.mutants
        assert result.pool, "no mutation seeds admitted"
        assert result.corpus.seeds(), "mutation seeds missing from corpus"

    def test_no_mutation_with_zero_fraction(self):
        result = run_precision_campaign(small_spec(mutate_fraction=0.0))
        assert result.stats.mutants == 0

    def test_pool_respects_limit(self):
        result = run_precision_campaign(
            small_spec(budget=80, rounds=4, pool_limit=3,
                       mutate_fraction=1.0)
        )
        assert len(result.pool) <= 3

    def test_seed_admissions_respect_per_round_cap(self):
        spec = small_spec(budget=80, rounds=2, seeds_per_round=1,
                          tightness_seed_threshold=4)
        result = run_precision_campaign(spec)
        assert result.stats.seeds_pooled <= spec.rounds * spec.seeds_per_round


class TestResume:
    def test_round_checkpoint_resume_matches_single_run(self, tmp_path):
        spec = small_spec(seed=9)
        reference = run_precision_campaign(spec)
        partial = run_precision_campaign(
            spec, state_dir=tmp_path, stop_after_rounds=1
        )
        assert partial.stats.rounds_completed == 1
        resumed = run_precision_campaign(spec, state_dir=tmp_path)
        assert resumed.stats.rounds_completed == spec.rounds
        assert resumed.report.to_json() == reference.report.to_json()
        assert resumed.corpus.to_json() == reference.corpus.to_json()

    def test_completed_campaign_rerun_is_idempotent(self, tmp_path):
        spec = small_spec(seed=9)
        first = run_precision_campaign(spec, state_dir=tmp_path)
        again = run_precision_campaign(spec, state_dir=tmp_path)
        assert again.report.to_json() == first.report.to_json()
        assert again.stats.executed == first.stats.executed

    def test_mismatched_spec_rejected(self, tmp_path):
        run_precision_campaign(small_spec(), state_dir=tmp_path)
        with pytest.raises(ValueError):
            run_precision_campaign(small_spec(seed=99), state_dir=tmp_path)

    def test_resume_with_different_worker_count_allowed(self, tmp_path):
        spec = small_spec(seed=9)
        run_precision_campaign(spec, state_dir=tmp_path, stop_after_rounds=1)
        resumed = run_precision_campaign(
            replace(spec, workers=2), state_dir=tmp_path
        )
        reference = run_precision_campaign(spec)
        assert resumed.report.to_json() == reference.report.to_json()

    def test_elapsed_accumulates_across_resume(self, tmp_path):
        # Pins the checkpoint timing contract: elapsed_s in state.json is
        # the campaign's *cumulative* wall time, and programs_per_s
        # derives from the cumulative totals — a resume must not reset
        # either to the last session's clock.
        spec = small_spec(seed=9)
        run_precision_campaign(spec, state_dir=tmp_path, stop_after_rounds=1)
        first = json.loads((tmp_path / "state.json").read_text())
        assert first["elapsed_s"] > 0
        resumed = run_precision_campaign(spec, state_dir=tmp_path)
        final = json.loads((tmp_path / "state.json").read_text())
        assert final["elapsed_s"] >= first["elapsed_s"]
        assert resumed.stats.elapsed_seconds >= first["elapsed_s"]
        assert final["elapsed_s"] == round(resumed.stats.elapsed_seconds, 3)
        assert final["programs_per_s"] == round(
            resumed.stats.executed / resumed.stats.elapsed_seconds, 1
        )


class TestSoundnessStillChecked:
    def test_injected_bug_caught_and_shrunk(self, monkeypatch):
        import repro.domains.product as product

        real_add = product.tnum_add

        def buggy_add(p: Tnum, q: Tnum) -> Tnum:
            t = real_add(p, q)
            if t.is_bottom():
                return t
            return Tnum(t.value & ~1, t.mask & ~1, t.width)

        monkeypatch.setattr(product, "tnum_add", buggy_add)
        result = run_precision_campaign(
            CampaignSpec(budget=40, rounds=1, seed=0, profile="alu")
        )
        assert not result.ok
        assert result.report.violations > 0
        entry = result.corpus.violations()[0]
        assert entry.violation["kind"] == "containment"
        assert entry.shrunk_program() is not None


class TestShrinkPredicates:
    """The near-miss predicate lets the walk answer when it can; its
    answer must equal the one a full replay gives."""

    @staticmethod
    def _replayed_near_miss(spec, program, seed):
        from repro.fuzz.campaign import (
            TransferCollector,
            _iter_tightness,
            _telemetry_oracle,
        )

        collector = TransferCollector()
        rep = _telemetry_oracle(spec, collector).check_program(
            program, input_seed_base=seed
        )
        if rep.verdict != "accepted" or rep.violations:
            return False
        return any(
            delta >= spec.tightness_seed_threshold
            for _, delta in _iter_tightness(collector, rep)
        )

    @pytest.mark.parametrize("threshold", [0, 1, 8, 16, 40])
    def test_near_miss_answer_matches_full_replay(self, threshold):
        import random as _random

        from repro.fuzz import generate_program
        from repro.fuzz.campaign import _still_near_miss, _telemetry_oracle
        from repro.fuzz.mutate import mutate_program

        spec = CampaignSpec(tightness_seed_threshold=threshold)
        oracle = _telemetry_oracle(spec, None)
        answers = []
        for seed in range(60):
            program = generate_program(seed).program
            if seed % 2:
                program = mutate_program(
                    program, donor=generate_program(seed + 100).program,
                    rng=_random.Random(seed),
                )
            got = _still_near_miss(spec, oracle, program, seed)
            assert got == self._replayed_near_miss(spec, program, seed)
            answers.append(got)
        if threshold in (8, 16):
            assert True in answers and False in answers

    def test_one_oracle_per_shrink(self, monkeypatch):
        from repro.fuzz import campaign as campaign_mod
        from repro.fuzz import generate_program

        built = []
        real = campaign_mod.DifferentialOracle

        def counting(*args, **kwargs):
            built.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "DifferentialOracle", counting)
        spec = CampaignSpec(tightness_seed_threshold=8)
        for seed in range(40):
            program = generate_program(seed).program
            if campaign_mod._still_near_miss(
                spec, campaign_mod._telemetry_oracle(spec, None),
                program, seed,
            ):
                break
        else:
            pytest.fail("no near-miss program among 40 generator seeds")
        built.clear()
        shrunk = campaign_mod._shrink_seed(spec, program, seed, "near-miss")
        assert len(built) == 1
        assert len(shrunk) <= len(program)
