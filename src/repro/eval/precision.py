"""Precision evaluation: Figure 4 / Table I, plus campaign telemetry.

Figure 4 compares, over every pair of width-n tnums where the outputs of
two multiplication algorithms differ, the ratio of concretized-set sizes
``|γ(R_other)| / |γ(R_our)|`` on a log2 axis.  Table I tracks, per width,
how often outputs are equal / different / comparable, and which algorithm
is more precise when they differ.

The paper runs n=8 for Figure 4 and n=5..10 for Table I on a 20-core
Skylake; pure Python is ~two orders of magnitude slower, so the default
widths here are smaller (the trends in the paper's own Table I are stable
across widths — see README.md's "Reproduction notes").  All entry points
take a ``width`` argument, so the paper's exact configuration can be
requested when time permits.

:class:`PrecisionReport` extends the same question — *which transfer
function loses precision?* — from enumerated operator pairs to whole
fuzzed programs.  A campaign (:mod:`repro.fuzz.campaign`) attributes
three observations to each operator label:

* **rejected-but-clean rate** — rejections at an instruction applying
  the operator whose concrete replay ran fine (false positives);
* **γ-size histogram** — bits of abstract width (γ cardinality, log2)
  of every abstract result the operator produced;
* **tightness delta** — bits of slack between the operator's abstract
  interval and the concrete range actually observed across replays.

Operators are ranked by *imprecision mass*: total tightness-delta bits
plus :data:`REJECT_COST_BITS` bits per rejected-but-clean event.  All
counters are integers and shards merge in index order, so merged report
JSON is byte-identical regardless of worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.lattice import enumerate_tnums, leq
from repro.core.ops import BINARY_OPS
from repro.core.tnum import Tnum

from .stats import cdf_points, log2_ratio

__all__ = [
    "PrecisionComparison",
    "TrendRow",
    "compare_precision",
    "precision_cdf",
    "precision_trend",
    "MUL_ALGORITHMS",
    "OperatorStats",
    "PrecisionReport",
    "REJECT_COST_BITS",
    "gamma_bits",
]

MulFn = Callable[[Tnum, Tnum], Tnum]

#: The three multiplication algorithms of §IV, in Fig. 5's order, read
#: from the operator table (where ``our_mul`` is ``mul``, the BPF op).
MUL_ALGORITHMS: Dict[str, MulFn] = {
    "kern_mul": BINARY_OPS["kern_mul"].abstract,
    "bitwise_mul": BINARY_OPS["bitwise_mul"].abstract,
    "our_mul": BINARY_OPS["mul"].abstract,
}


@dataclass
class PrecisionComparison:
    """Pairwise precision comparison of two algorithms at one width.

    Field names follow Table I's columns.
    """

    name_a: str
    name_b: str
    width: int
    total_pairs: int = 0
    equal: int = 0
    different: int = 0
    comparable: int = 0
    a_more_precise: int = 0
    b_more_precise: int = 0
    #: log2(|γ(R_b)| / |γ(R_a)|) for every differing-comparable pair —
    #: positive values mean algorithm A won (Figure 4's x-axis).
    log2_ratios: List[float] = field(default_factory=list)

    def pct(self, count: int, base: Optional[int] = None) -> float:
        base = base if base is not None else self.total_pairs
        return 100.0 * count / base if base else 0.0


def compare_precision(
    name_a: str,
    name_b: str,
    width: int,
    pairs: Optional[Iterable[Tuple[Tnum, Tnum]]] = None,
) -> PrecisionComparison:
    """Run algorithm A and B over tnum pairs and tally Table-I statistics.

    ``pairs`` defaults to *all* pairs at ``width`` (the paper's setup);
    pass a sample for quicker runs at large widths.
    """
    fn_a = MUL_ALGORITHMS[name_a]
    fn_b = MUL_ALGORITHMS[name_b]
    result = PrecisionComparison(name_a, name_b, width)

    if pairs is None:
        tnums = enumerate_tnums(width)
        pairs = ((p, q) for p in tnums for q in tnums)

    for p, q in pairs:
        result.total_pairs += 1
        ra = fn_a(p, q)
        rb = fn_b(p, q)
        if ra == rb:
            result.equal += 1
            continue
        result.different += 1
        a_le = leq(ra, rb)
        b_le = leq(rb, ra)
        if not (a_le or b_le):
            continue  # incomparable (appears only at width >= 9, per paper)
        result.comparable += 1
        if a_le:
            result.a_more_precise += 1
        else:
            result.b_more_precise += 1
        result.log2_ratios.append(
            log2_ratio(rb.cardinality(), ra.cardinality())
        )
    return result


def precision_cdf(
    comparison: PrecisionComparison, max_points: int = 200
) -> List[Tuple[float, float]]:
    """Figure 4's CDF series for one algorithm pairing."""
    return cdf_points(comparison.log2_ratios, max_points)


@dataclass
class TrendRow:
    """One row of Table I."""

    width: int
    total_pairs: int
    equal: int
    different: int
    comparable: int
    kern_more_precise: int
    our_more_precise: int

    @property
    def equal_pct(self) -> float:
        return 100.0 * self.equal / self.total_pairs

    @property
    def different_pct(self) -> float:
        return 100.0 * self.different / self.total_pairs

    @property
    def comparable_pct(self) -> float:
        return 100.0 * self.comparable / self.different if self.different else 100.0

    @property
    def kern_pct(self) -> float:
        return 100.0 * self.kern_more_precise / self.comparable if self.comparable else 0.0

    @property
    def our_pct(self) -> float:
        return 100.0 * self.our_more_precise / self.comparable if self.comparable else 0.0


def precision_trend(widths: Iterable[int]) -> List[TrendRow]:
    """Table I: our_mul vs kern_mul across widths."""
    rows: List[TrendRow] = []
    for width in widths:
        cmp_result = compare_precision("our_mul", "kern_mul", width)
        rows.append(
            TrendRow(
                width=width,
                total_pairs=cmp_result.total_pairs,
                equal=cmp_result.equal,
                different=cmp_result.different,
                comparable=cmp_result.comparable,
                kern_more_precise=cmp_result.b_more_precise,
                our_more_precise=cmp_result.a_more_precise,
            )
        )
    return rows


# -- campaign-scale precision telemetry ----------------------------------------

_REPORT_FORMAT_VERSION = 1

#: Imprecision-mass cost of one rejected-but-clean event, in bits.  A
#: false-positive rejection discards the whole program, which we price
#: like an operator claiming a byte of pure slack — large enough that
#: operators causing spurious rejections outrank ones that merely widen.
REJECT_COST_BITS = 8


def gamma_bits(scalar) -> int:
    """log2-ish abstract width of a :class:`ScalarValue` in bits; see
    :meth:`repro.domains.product.ScalarValue.gamma_bits`."""
    return scalar.gamma_bits()


@dataclass
class OperatorStats:
    """Aggregated imprecision observations for one operator label."""

    op: str
    occurrences: int = 0
    #: abstract-width histogram: γ-size bits -> observation count
    gamma_hist: Dict[int, int] = field(default_factory=dict)
    #: summed / counted / max tightness delta (abstract-range bits minus
    #: observed-concrete-range bits, clamped at 0)
    tightness_sum: int = 0
    tightness_count: int = 0
    tightness_max: int = 0
    rejections: int = 0
    rejected_clean: int = 0

    @property
    def imprecision_mass(self) -> int:
        """Total bits of observed slack, pricing clean rejections in."""
        return self.tightness_sum + REJECT_COST_BITS * self.rejected_clean

    @property
    def mean_gamma_bits(self) -> float:
        total = sum(self.gamma_hist.values())
        if not total:
            return 0.0
        return sum(b * n for b, n in self.gamma_hist.items()) / total

    def merge(self, other: "OperatorStats") -> None:
        self.merge_counts(vars(other))

    def merge_counts(self, counts: Dict) -> None:
        """Add counters keyed by this class's field names: another
        instance's ``vars()``, or a campaign worker's per-operator
        record, whose ``gamma_hist`` keys are strings once it has
        crossed JSON."""
        self.occurrences += counts["occurrences"]
        hist = self.gamma_hist
        for bits, count in counts["gamma_hist"].items():
            bits = int(bits)
            hist[bits] = hist.get(bits, 0) + count
        self.tightness_sum += counts["tightness_sum"]
        self.tightness_count += counts["tightness_count"]
        self.tightness_max = max(self.tightness_max, counts["tightness_max"])
        self.rejections += counts["rejections"]
        self.rejected_clean += counts["rejected_clean"]

    def to_dict(self) -> Dict:
        return {
            "op": self.op,
            "occurrences": self.occurrences,
            "gamma_hist": {str(b): n for b, n in sorted(self.gamma_hist.items())},
            "tightness_sum": self.tightness_sum,
            "tightness_count": self.tightness_count,
            "tightness_max": self.tightness_max,
            "rejections": self.rejections,
            "rejected_clean": self.rejected_clean,
            "imprecision_mass": self.imprecision_mass,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "OperatorStats":
        return cls(
            op=payload["op"],
            occurrences=payload["occurrences"],
            gamma_hist={int(b): n for b, n in payload["gamma_hist"].items()},
            tightness_sum=payload["tightness_sum"],
            tightness_count=payload["tightness_count"],
            tightness_max=payload["tightness_max"],
            rejections=payload["rejections"],
            rejected_clean=payload["rejected_clean"],
        )


@dataclass
class PrecisionReport:
    """Per-operator imprecision telemetry aggregated over a campaign.

    Deliberately excludes anything nondeterministic (timing, host info):
    a fixed campaign seed must serialize to byte-identical JSON whatever
    the worker count, which is what makes reports diffable across runs
    and mergeable across shards.
    """

    programs: int = 0
    accepted: int = 0
    rejected: int = 0
    rejected_clean: int = 0
    mutants: int = 0
    violations: int = 0
    operators: Dict[str, OperatorStats] = field(default_factory=dict)

    def operator(self, label: str) -> OperatorStats:
        stats = self.operators.get(label)
        if stats is None:
            stats = self.operators[label] = OperatorStats(label)
        return stats

    def merge(self, other: "PrecisionReport") -> None:
        self.programs += other.programs
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.rejected_clean += other.rejected_clean
        self.mutants += other.mutants
        self.violations += other.violations
        for label, stats in other.operators.items():
            self.operator(label).merge(stats)

    def ranked(self) -> List[OperatorStats]:
        """Operators most imprecision-mass first; name breaks ties."""
        return sorted(
            self.operators.values(),
            key=lambda s: (-s.imprecision_mass, s.op),
        )

    def to_dict(self) -> Dict:
        return {
            "format_version": _REPORT_FORMAT_VERSION,
            "programs": self.programs,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "rejected_clean": self.rejected_clean,
            "mutants": self.mutants,
            "violations": self.violations,
            "operators": {
                label: stats.to_dict()
                for label, stats in sorted(self.operators.items())
            },
            "ranking": [s.op for s in self.ranked()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict) -> "PrecisionReport":
        version = payload.get("format_version")
        if version != _REPORT_FORMAT_VERSION:
            raise ValueError(f"unsupported precision report format {version!r}")
        return cls(
            programs=payload["programs"],
            accepted=payload["accepted"],
            rejected=payload["rejected"],
            rejected_clean=payload["rejected_clean"],
            mutants=payload["mutants"],
            violations=payload["violations"],
            operators={
                label: OperatorStats.from_dict(entry)
                for label, entry in payload["operators"].items()
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "PrecisionReport":
        return cls.from_dict(json.loads(text))
