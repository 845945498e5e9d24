"""repro.faults: the deterministic fault-injection plan and its plumbing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with no armed plan."""
    faults.disarm()
    yield
    faults.disarm()


class TestSpecGrammar:
    def test_parse_and_round_trip(self):
        spec = "seed=42,campaign.worker.crash=0.5,verify.hang=1:0.05"
        plan = faults.FaultPlan.parse(spec)
        assert plan.seed == 42
        assert plan.rules["campaign.worker.crash"].p == 0.5
        assert plan.rules["verify.hang"].arg == 0.05
        assert faults.FaultPlan.parse(plan.to_spec()).to_spec() == plan.to_spec()

    def test_unknown_site_is_an_error(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.FaultPlan.parse("seed=1,campain.worker.crash=0.5")

    @pytest.mark.parametrize("bad", [
        "campaign.worker.crash",           # no '='
        "campaign.worker.crash=notaprob",  # bad probability
        "seed=x",                          # bad seed
        "campaign.worker.crash=1.5",       # out of range
    ])
    def test_bad_entries_are_errors(self, bad):
        with pytest.raises(ValueError):
            faults.FaultPlan.parse(bad)

    def test_empty_entries_ignored(self):
        plan = faults.FaultPlan.parse("seed=3,,verify.hang=0.1,")
        assert plan.seed == 3 and set(plan.rules) == {"verify.hang"}

    def test_every_site_is_injected_somewhere(self):
        # A site nothing fires arms fine and injects nothing, so a chaos
        # run that arms it passes vacuously.  Every site name must
        # appear as a string literal outside faults.py.
        src = Path(faults.__file__).resolve().parent
        literals = set()
        for path in src.rglob("*.py"):
            if path.name == "faults.py" and path.parent == src:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    literals.add(node.value)
        assert sorted(set(faults.SITES) - literals) == []


class TestDeterminism:
    def test_fire_is_a_pure_function_of_seed_site_key(self):
        a = faults.FaultPlan.parse("seed=7,campaign.worker.crash=0.5")
        b = faults.FaultPlan.parse("seed=7,campaign.worker.crash=0.5")
        keys = [(i, attempt) for i in range(64) for attempt in range(3)]
        assert [a.fire("campaign.worker.crash", k) for k in keys] == \
               [b.fire("campaign.worker.crash", k) for k in keys]

    def test_different_seeds_differ(self):
        a = faults.FaultPlan.parse("seed=1,campaign.worker.crash=0.5")
        b = faults.FaultPlan.parse("seed=2,campaign.worker.crash=0.5")
        keys = [(i,) for i in range(256)]
        assert [a.fire("campaign.worker.crash", k) for k in keys] != \
               [b.fire("campaign.worker.crash", k) for k in keys]

    def test_rate_roughly_matches_probability(self):
        plan = faults.FaultPlan.parse("seed=9,campaign.worker.crash=0.25")
        fired = sum(
            plan.fire("campaign.worker.crash", (i,)) for i in range(2000)
        )
        assert 350 < fired < 650   # 0.25 ± wide tolerance

    def test_keyless_calls_use_a_counter(self):
        a = faults.FaultPlan.parse("seed=5,cache.save.slow=0.5")
        b = faults.FaultPlan.parse("seed=5,cache.save.slow=0.5")
        assert [a.fire("cache.save.slow") for _ in range(100)] == \
               [b.fire("cache.save.slow") for _ in range(100)]

    def test_edge_probabilities(self):
        plan = faults.FaultPlan.parse(
            "seed=1,verify.hang=0,service.verify.hang=1"
        )
        assert not any(plan.fire("verify.hang", (i,)) for i in range(50))
        assert all(plan.fire("service.verify.hang", (i,)) for i in range(50))


class TestArming:
    def test_disarmed_by_default(self):
        assert not faults.enabled()
        assert not faults.fire("verify.hang")
        assert faults.active_plan() is None

    def test_arm_from_spec_string(self):
        plan = faults.arm("seed=3,verify.hang=1:0.01")
        assert faults.enabled()
        assert faults.active_plan() is plan
        assert faults.fire("verify.hang", (0,))
        assert faults.arg("verify.hang") == 0.01

    def test_default_args(self):
        faults.arm("seed=0,verify.hang=1")
        assert faults.arg("verify.hang") == 0.05   # site default

    def test_worker_state_round_trip(self):
        faults.arm("seed=11,campaign.checkpoint.torn=0.5")
        state = faults.worker_init_state()
        faults.disarm()
        faults.init_worker(state)
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 11
        faults.init_worker(None)
        assert not faults.enabled()

    def test_env_arming_in_a_subprocess(self):
        code = (
            "from repro import faults; "
            "plan = faults.active_plan(); "
            "assert plan is not None and plan.seed == 77, plan; "
            "print('armed')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(
                os.environ,
                REPRO_FAULTS="seed=77,campaign.worker.crash=0.1",
                PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
            ),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "armed" in out.stdout
