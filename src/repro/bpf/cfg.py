"""Control-flow graph over BPF programs.

The verifier analyzes programs as a CFG of basic blocks.  Like the
classic in-kernel verifier, we reject programs containing back-edges
(loops) — this guarantees the abstract interpretation terminates without
widening and matches the security posture the paper's analyzer operates
under.  The check is the kernel's own DFS edge-classification
(``check_cfg`` in ``verifier.c``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from . import isa
from .program import Program

__all__ = ["BasicBlock", "ControlFlowGraph", "CFGError", "build_cfg"]


class CFGError(ValueError):
    """Structural CFG problem: loops, unreachable code, missing exit."""


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``start`` / ``end`` are instruction *indexes* (not slots); ``end`` is
    inclusive.  ``successors`` are block ids; a conditional jump's
    fall-through edge comes first, then the taken edge.
    """

    block_id: int
    start: int
    end: int
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    def instructions(self, program: Program):
        return program.insns[self.start : self.end + 1]


class ControlFlowGraph:
    """Basic blocks plus traversal orders for the abstract interpreter.

    The structural DFS (:meth:`validate`) runs once at construction and
    doubles as the post-order computation, so the reverse post-order the
    verifier walks is a cached by-product of validation rather than a
    second traversal.
    """

    def __init__(self, program: Program, blocks: List[BasicBlock]) -> None:
        self.program = program
        self.blocks = blocks
        self._block_of_insn: Optional[Dict[int, int]] = None
        self._rpo: Optional[List[int]] = None

    def block_containing(self, insn_index: int) -> BasicBlock:
        mapping = self._block_of_insn
        if mapping is None:  # built lazily: only diagnostics need it
            mapping = self._block_of_insn = {}
            for block in self.blocks:
                for idx in range(block.start, block.end + 1):
                    mapping[idx] = block.block_id
        return self.blocks[mapping[insn_index]]

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def reverse_post_order(self) -> List[int]:
        """Block ids in reverse post-order from the entry (analysis order).

        Returns a copy: the cached order must survive callers that
        mutate the list they get back.
        """
        if self._rpo is None:
            self.validate()
        return list(self._rpo)

    def validate(self) -> None:
        """One DFS, kernel-style: reject back-edges and unreachable blocks.

        Combines the kernel's ``check_cfg`` edge classification (the
        GREY-hit is a back-edge ⇒ loop) with its unreachable-insn
        rejection, and records the post-order as it unwinds.
        """
        blocks = self.blocks
        WHITE, GREY, BLACK = 0, 1, 2
        colour = [WHITE] * len(blocks)
        post: List[int] = []
        stack: List[tuple] = [(0, iter(blocks[0].successors))]
        colour[0] = GREY
        while stack:
            block_id, succs = stack[-1]
            advanced = False
            for succ in succs:
                c = colour[succ]
                if c == GREY:
                    raise CFGError(
                        f"back-edge from block {block_id} to block {succ}: "
                        "loops are not allowed"
                    )
                if c == WHITE:
                    colour[succ] = GREY
                    stack.append((succ, iter(blocks[succ].successors)))
                    advanced = True
                    break
            if not advanced:
                colour[block_id] = BLACK
                post.append(block_id)
                stack.pop()
        unreachable = [
            b.block_id for b in blocks if colour[b.block_id] == WHITE
        ]
        if unreachable:
            raise CFGError(f"unreachable blocks: {unreachable}")
        self._rpo = post[::-1]


#: Instruction roles for CFG construction (internal).
_STRAIGHT, _COND, _JA, _EXIT = 0, 1, 2, 3


def build_cfg(program: Program) -> ControlFlowGraph:
    """Split a program into basic blocks and wire the edges.

    Raises :class:`CFGError` if any path can fall off the end of the
    program (the kernel requires every path to reach ``exit``).

    Control-relevant classification and jump targets are computed once
    per instruction in a single pass — this runs for every verified
    program, so the leader and edge passes must not re-derive them.
    """
    n = len(program)
    if n == 0:
        raise CFGError("empty program")

    # One classification pass: role per insn, target index for jumps.
    # Leaders: first insn, jump targets, insns after jumps/exits.
    roles = [_STRAIGHT] * n
    targets = [-1] * n
    leaders: Set[int] = {0}
    for idx, insn in enumerate(program.insns):
        if insn.cls() not in (isa.CLS_JMP, isa.CLS_JMP32):
            continue
        op = insn.opcode & 0xF0
        if op == isa.JMP_EXIT:
            roles[idx] = _EXIT
            if idx + 1 < n:
                leaders.add(idx + 1)
        elif op != isa.JMP_CALL:
            roles[idx] = _JA if op == isa.JMP_JA else _COND
            targets[idx] = program.index_at_slot(program.jump_target_slot(idx))
            leaders.add(targets[idx])
            if idx + 1 < n:
                leaders.add(idx + 1)

    ordered = sorted(leaders)
    blocks: List[BasicBlock] = []
    for i, start in enumerate(ordered):
        end = (ordered[i + 1] - 1) if i + 1 < len(ordered) else n - 1
        blocks.append(BasicBlock(block_id=i, start=start, end=end))
    block_of_start = {b.start: b.block_id for b in blocks}

    for block in blocks:
        end = block.end
        role = roles[end]
        if role == _EXIT:
            continue
        if role == _JA:
            block.successors.append(block_of_start[targets[end]])
        elif role == _COND:
            if end + 1 >= n:
                raise CFGError(f"conditional jump at insn {end} can fall off the end")
            block.successors.append(block_of_start[end + 1])      # fall-through
            block.successors.append(block_of_start[targets[end]])  # taken
        else:
            if end + 1 >= n:
                raise CFGError("control falls off the end of the program")
            block.successors.append(block_of_start[end + 1])

    for block in blocks:
        for succ in block.successors:
            blocks[succ].predecessors.append(block.block_id)

    cfg = ControlFlowGraph(program, blocks)
    cfg.validate()
    return cfg
