"""Path-sensitive verification with state pruning — the kernel's way.

The join-based engine (:class:`~repro.bpf.verifier.absint.Verifier`)
merges states at control-flow joins, which is fast but can lose facts
that only hold per-path.  The real Linux verifier instead explores
*paths* depth-first and prunes a path when its state is subsumed by a
previously-verified state at the same instruction — the check built on
``tnum_in`` / range inclusion (kernel ``states_equal`` + ``regsafe``).

:class:`PathSensitiveVerifier` reproduces that architecture on our
abstract state.  On acyclic programs it terminates unconditionally; the
pruning table bounds the blow-up exactly the way the kernel's explored-
states list does.  It is strictly more precise than the join engine:
every program the join engine accepts is accepted here, and some
programs (see the tests) only verify path-sensitively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bpf.cfg import CFGError, build_cfg
from repro.bpf.program import Program

from .absint import Verifier
from .errors import VerificationResult, VerifierError
from .state import AbstractState

__all__ = ["PathSensitiveVerifier"]


@dataclass
class PathSensitiveVerifier(Verifier):
    """DFS over program paths with kernel-style state pruning.

    ``max_states`` bounds total work (the kernel similarly bounds
    "processed insns"); exceeding it rejects the program, mirroring the
    kernel's complexity limit rather than looping forever.  The
    inherited ``deadline_s`` watchdog is checked once per popped state.
    """

    max_states: int = 100_000
    #: filled after a run: how many paths were pruned by subsumption.
    pruned_count: int = 0

    def verify(self, program: Program) -> VerificationResult:
        try:
            build_cfg(program)  # reuse structural checks (acyclic, reachable)
        except CFGError as exc:
            err = VerifierError(0, f"bad control flow: {exc}", structural=True)
            return VerificationResult(False, [err])

        explored: Dict[int, List[AbstractState]] = {}
        stack: List[Tuple[int, AbstractState]] = [
            (0, AbstractState.entry_state())
        ]
        processed = 0
        self.pruned_count = 0
        check_deadline = self._deadline_check()

        try:
            while stack:
                idx, state = stack.pop()
                if check_deadline is not None:
                    check_deadline(idx, processed)
                if self._is_subsumed(explored, idx, state):
                    self.pruned_count += 1
                    continue
                explored.setdefault(idx, []).append(state.copy())

                processed += 1
                if processed > self.max_states:
                    raise VerifierError(
                        idx, f"complexity limit: {self.max_states} states"
                    )
                if self.collect_states:
                    self._record(idx, state)

                insn = program.insns[idx]
                if insn.is_exit():
                    self._check_exit(state, idx)
                    continue

                if insn.is_cond_jump():
                    fall, taken = self._branch(state, insn, idx)
                    target = program.index_at_slot(program.jump_target_slot(idx))
                    if self._feasible(taken):
                        stack.append((target, taken))
                    if self._feasible(fall):
                        stack.append((idx + 1, fall))
                    continue
                if insn.is_ja():
                    target = program.index_at_slot(program.jump_target_slot(idx))
                    stack.append((target, state))
                    continue

                self._transfer(state, insn, idx)
                stack.append((idx + 1, state))
        except VerifierError as exc:
            return VerificationResult(False, [exc], processed)
        return VerificationResult(True, [], processed)

    @staticmethod
    def _is_subsumed(
        explored: Dict[int, List[AbstractState]], idx: int, state: AbstractState
    ) -> bool:
        """Kernel ``states_equal`` pruning: skip if an already-verified
        state at this instruction covers this one (state ⊑ seen)."""
        return any(state.leq(seen) for seen in explored.get(idx, ()))
