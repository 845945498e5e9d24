"""CNF formula builder with Tseitin gate encodings.

Variables are positive integers; literals are non-zero integers with sign
for polarity (DIMACS convention).  :class:`CNFBuilder` allocates fresh
variables and encodes the standard gates the bit-vector layer needs.

Constant folding: the pseudo-literals :data:`TRUE` and :data:`FALSE` are
materialized as a reserved variable constrained to true, so gate builders
can accept constants without special cases at every call site.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["CNFBuilder"]


class CNFBuilder:
    """Accumulates clauses and provides fresh variables and gates."""

    def __init__(self) -> None:
        self.clauses: List[List[int]] = []
        self._next_var = 1
        # Reserved constant-true variable.
        self._true = self.new_var()
        self.add_clause([self._true])

    # -- variables and constants ----------------------------------------------

    def new_var(self) -> int:
        var = self._next_var
        self._next_var += 1
        return var

    def new_vars(self, count: int) -> List[int]:
        return [self.new_var() for _ in range(count)]

    @property
    def num_vars(self) -> int:
        return self._next_var - 1

    @property
    def true_lit(self) -> int:
        return self._true

    @property
    def false_lit(self) -> int:
        return -self._true

    def is_const(self, lit: int) -> bool:
        return abs(lit) == self._true

    def const_value(self, lit: int) -> bool:
        return lit > 0

    # -- clauses ------------------------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        clause = list(lits)
        if not clause:
            raise ValueError("empty clause added directly (unsatisfiable)")
        self.clauses.append(clause)

    # -- gates (each returns the output literal) -------------------------------------

    def gate_and(self, a: int, b: int) -> int:
        if self.is_const(a):
            return b if self.const_value(a) else self.false_lit
        if self.is_const(b):
            return a if self.const_value(b) else self.false_lit
        out = self.new_var()
        self.add_clause([-out, a])
        self.add_clause([-out, b])
        self.add_clause([out, -a, -b])
        return out

    def gate_or(self, a: int, b: int) -> int:
        return -self.gate_and(-a, -b)

    def gate_xor(self, a: int, b: int) -> int:
        if self.is_const(a):
            return -b if self.const_value(a) else b
        if self.is_const(b):
            return -a if self.const_value(b) else a
        out = self.new_var()
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])
        return out

    def gate_ite(self, cond: int, then_lit: int, else_lit: int) -> int:
        """If-then-else multiplexer."""
        if self.is_const(cond):
            return then_lit if self.const_value(cond) else else_lit
        out = self.new_var()
        self.add_clause([-out, -cond, then_lit])
        self.add_clause([-out, cond, else_lit])
        self.add_clause([out, -cond, -then_lit])
        self.add_clause([out, cond, -else_lit])
        return out

    def gate_iff(self, a: int, b: int) -> int:
        return -self.gate_xor(a, b)

    def gate_and_many(self, lits: Sequence[int]) -> int:
        """Conjunction of arbitrarily many literals."""
        live = []
        for lit in lits:
            if self.is_const(lit):
                if not self.const_value(lit):
                    return self.false_lit
            else:
                live.append(lit)
        if not live:
            return self.true_lit
        if len(live) == 1:
            return live[0]
        out = self.new_var()
        for lit in live:
            self.add_clause([-out, lit])
        self.add_clause([out] + [-lit for lit in live])
        return out

    def gate_or_many(self, lits: Sequence[int]) -> int:
        return -self.gate_and_many([-lit for lit in lits])

    # -- assertions -----------------------------------------------------------------

    def assert_lit(self, lit: int) -> None:
        """Constrain a literal to be true."""
        self.add_clause([lit])

    def to_dimacs(self) -> str:
        """Serialize in DIMACS CNF format (for debugging/interop)."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(map(str, clause)) + " 0")
        return "\n".join(lines) + "\n"
