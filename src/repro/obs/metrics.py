"""Metrics registry: counters, gauges, histograms, and operator timers.

Design constraints, in order:

1. **Zero overhead when disabled.**  Nothing in this module is consulted
   unless a caller first passes the single ``repro.obs.enabled()``
   predicate, and the hot loops go further — the abstract walk and the
   concrete interpreter pick their timed loop once per call, so the
   disabled hot path is the uninstrumented code.
2. **Deterministic merge.**  Campaign workers each fill a private
   registry and ship it back as a plain dict; the parent folds the dicts
   in index order.  Every merge operation (counter sum, bucket-wise
   histogram sum, timer sum with max-of-max, gauge max) is associative
   and commutative, so the merged registry is identical for any worker
   count or fold shape — the same property the campaign's
   :class:`~repro.eval.precision.PrecisionReport` already guarantees.
3. **No dependencies.**  Plain dicts and lists; JSON round-trips; the
   ``/metrics`` endpoints render the Prometheus text exposition format
   with nothing but string formatting, and :meth:`Registry.render_prometheus`
   is the one place that knows it (the service fills a throwaway
   registry with its own counters to print them).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimerStat",
    "Registry",
    "DEFAULT_TIME_BUCKETS_S",
]

#: Default histogram bucket upper bounds for durations in *seconds*:
#: 2-5-10 decades from 10µs to 100s, the range a python verifier stage
#: can plausibly occupy.  An overflow bucket catches everything above.
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.0, 5.0)
) + (100.0,)


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Last-known level.  Merges as *max* so worker folds stay
    associative (last-write-wins would depend on fold order)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        if other.value > self.value:
            self.value = other.value


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` tallies observations with
    ``value <= bounds[i]`` (and above ``bounds[i-1]``); the final slot is
    the overflow bucket.  Bucket edges are inclusive on the upper side,
    matching Prometheus ``le`` semantics.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        self.bounds: Tuple[float, ...] = tuple(
            bounds if bounds is not None else DEFAULT_TIME_BUCKETS_S
        )
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError("histogram bounds must be non-empty ascending")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left gives the first bound >= value, i.e. the bucket
        # whose inclusive upper edge admits it; beyond the last bound it
        # lands in the overflow slot.
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def percentile(self, pct: float) -> float:
        """Bucket-resolution percentile: the upper bound of the bucket
        holding the requested rank (``inf`` once the rank falls in the
        overflow bucket).  Coarse by construction — histograms trade
        resolution for mergeability."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(pct / 100.0 * self.count + 0.5))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def summary(self) -> Dict[str, object]:
        """JSON-safe summary: overflow percentiles render as a finite
        ``">100"``-style sentinel string instead of ``inf`` — JSON has no
        ``Infinity``, and ``json.dumps`` would emit a non-standard token
        that strict parsers (and the ``/stats`` endpoint's consumers)
        reject.  :meth:`percentile` itself still returns ``float("inf")``
        for numeric callers."""
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.sum / self.count if self.count else 0.0,
            "p50": self._summary_percentile(50),
            "p90": self._summary_percentile(90),
            "p99": self._summary_percentile(99),
        }

    def _summary_percentile(self, pct: float) -> "float | str":
        value = self.percentile(pct)
        if value == float("inf"):
            return f">{self.bounds[-1]:g}"
        return value

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count


class TimerStat:
    """Accumulated operator time: total ns, call count, worst single call.

    The per-operator unit behind the "where does verifier time go"
    top-k tables; one exists per ``(component, label)`` pair.
    """

    __slots__ = ("total_ns", "count", "max_ns")

    def __init__(self, total_ns: int = 0, count: int = 0, max_ns: int = 0) -> None:
        self.total_ns = total_ns
        self.count = count
        self.max_ns = max_ns

    def add(self, ns: int) -> None:
        self.total_ns += ns
        self.count += 1
        if ns > self.max_ns:
            self.max_ns = ns

    def merge(self, other: "TimerStat") -> None:
        self.total_ns += other.total_ns
        self.count += other.count
        if other.max_ns > self.max_ns:
            self.max_ns = other.max_ns


class Registry:
    """A named collection of metrics with get-or-create accessors.

    One process-global default registry exists (see
    :func:`repro.obs.default_registry`); workers and tests create
    private ones and merge them upward.
    """

    __slots__ = ("counters", "gauges", "histograms", "timers")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: keyed by ``(component, label)`` — e.g. ``("verifier", "mul64")``.
        self.timers: Dict[Tuple[str, str], TimerStat] = {}

    # -- accessors ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(bounds)
        return h

    def timer(self, component: str, label: str) -> TimerStat:
        key = (component, label)
        t = self.timers.get(key)
        if t is None:
            t = self.timers[key] = TimerStat()
        return t

    def add_op_time(self, component: str, label: str, ns: int) -> None:
        """Hot-path form of ``timer(...).add(ns)`` (one dict probe)."""
        key = (component, label)
        t = self.timers.get(key)
        if t is None:
            t = self.timers[key] = TimerStat()
        t.add(ns)

    # -- reporting ----------------------------------------------------------

    def top_timers(
        self, component: str, k: int = 10
    ) -> List[Tuple[str, TimerStat]]:
        """The ``k`` labels of ``component`` with the most total time."""
        items = [
            (label, stat)
            for (comp, label), stat in self.timers.items()
            if comp == component
        ]
        items.sort(key=lambda item: (-item[1].total_ns, item[0]))
        return items[:k]

    def render_prometheus(self) -> str:
        """Prometheus text exposition format for the ``/metrics`` endpoints.

        Each family is one contiguous group under its own ``# TYPE``
        line; a component's timers make two, ``*_op_seconds_total`` and
        ``*_op_calls_total``.
        """
        lines: List[str] = []
        for name in sorted(self.counters):
            metric = _prom_name(name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {self.counters[name].value}")
        for name in sorted(self.gauges):
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {self.gauges[name].value}")
        for name in sorted(self.histograms):
            metric = _prom_name(name)
            hist = self.histograms[name]
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, n in zip(hist.bounds, hist.counts):
                cumulative += n
                lines.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{metric}_sum {hist.sum}")
            lines.append(f"{metric}_count {hist.count}")
        by_component: Dict[str, List[Tuple[str, TimerStat]]] = {}
        for (component, label), stat in self.timers.items():
            by_component.setdefault(component, []).append((label, stat))
        for component in sorted(by_component):
            stats = sorted(by_component[component])
            seconds = _prom_name(f"{component}.op.seconds") + "_total"
            lines.append(f"# TYPE {seconds} counter")
            lines += [f'{seconds}{{op="{label}"}} {stat.total_ns / 1e9}'
                      for label, stat in stats]
            calls = _prom_name(f"{component}.op.calls") + "_total"
            lines.append(f"# TYPE {calls} counter")
            lines += [f'{calls}{{op="{label}"}} {stat.count}'
                      for label, stat in stats]
        return "\n".join(lines) + "\n"

    # -- (de)serialization and merge ----------------------------------------

    def to_dict(self) -> Dict:
        """JSON-friendly snapshot (the worker return / metrics.json form)."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for k, h in sorted(self.histograms.items())
            },
            "timers": {
                f"{comp} {label}": {
                    "total_ns": t.total_ns,
                    "count": t.count,
                    "max_ns": t.max_ns,
                }
                for (comp, label), t in sorted(self.timers.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Registry":
        reg = cls()
        reg.merge_dict(payload)
        return reg

    def merge_dict(self, payload: Dict) -> None:
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in payload.get("gauges", {}).items():
            self.gauge(name).merge(Gauge(float(value)))
        for name, data in payload.get("histograms", {}).items():
            incoming = Histogram(data["bounds"])
            incoming.counts = [int(n) for n in data["counts"]]
            incoming.sum = float(data["sum"])
            incoming.count = int(data["count"])
            self.histogram(name, incoming.bounds).merge(incoming)
        for key, data in payload.get("timers", {}).items():
            component, _, label = key.partition(" ")
            self.timer(component, label).merge(
                TimerStat(
                    int(data["total_ns"]), int(data["count"]),
                    int(data["max_ns"]),
                )
            )

    def merge(self, other: "Registry") -> None:
        self.merge_dict(other.to_dict())


def _prom_name(name: str) -> str:
    """``oracle.replays`` -> ``repro_oracle_replays``."""
    return "repro_" + name.replace(".", "_").replace("-", "_")
