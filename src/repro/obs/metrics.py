"""Counters, gauges, and histograms with a Prometheus-text face.

The design constraints come straight from the engine it observes:

- **Off the hot path.** Call sites hold *pre-bound* instrument handles
  (module-level ``Counter``/``Histogram`` children) so recording one
  event is a lock, an add, an unlock — no name lookups, no label
  joins, no string formatting. All rendering cost is paid at scrape
  time.
- **Deterministic.** Instrument families live in a string-keyed
  :class:`repro.registry.Registry` (the ``DATASETS``/``MEASURES`` idiom:
  typed errors, duplicate rejection), registration order is recorded,
  and :meth:`MetricsRegistry.render` emits families sorted by name and
  children sorted by label values — two scrapes of the same state are
  byte-identical.
- **Out of the results.** Nothing here ever feeds a fingerprint; the
  engine's bit-identical-results contract is tested with metrics *on*.

Histogram buckets are fixed at family creation (default
:data:`LATENCY_BUCKETS`, chosen for sub-millisecond shard RTTs up
through multi-second beam levels) — fixed boundaries keep scrapes
comparable across processes and over time.

:func:`parse_prometheus` is the read side — ``sisd top`` and
``sisd admin usage`` scrape ``GET /metrics`` and work from the parsed
samples, so the CLI needs no second wire format.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import ObsError
from repro.registry import Registry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "parse_prometheus",
]

#: Content type of the Prometheus text exposition format, served by
#: every ``GET /metrics`` endpoint (server and worker daemon).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default histogram boundaries (seconds): spans shard RTTs (~1ms)
#: through whole beam searches (~10s). ``+Inf`` is implicit.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_KINDS = ("counter", "gauge", "histogram")


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ObsError(
            f"metric name must be [a-zA-Z0-9_:]+, got {name!r}"
        )
    if name[0].isdigit():
        raise ObsError(f"metric name cannot start with a digit: {name!r}")
    return name


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render bare, floats shortest."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_suffix(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing count (one labeled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters never go down)."""
        if amount < 0:
            raise ObsError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one labeled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-boundary cumulative histogram (one labeled child).

    :meth:`observe` costs one binary search plus three adds under a
    lock; :meth:`time` wraps a block and observes its duration through
    the :mod:`repro.obs.clock` seam.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation (finite numbers only)."""
        if not math.isfinite(value):
            raise ObsError(f"histogram observations must be finite, got {value}")
        # Linear scan is fine: bucket lists are short (~14) and the
        # common observations land in the first few buckets anyway.
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def time(self) -> "_HistogramTimer":
        """``with histogram.time(): ...`` observes the block's seconds."""
        return _HistogramTimer(self)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> tuple[list[int], float, int]:
        """(per-bucket counts, sum, count) under one lock."""
        with self._lock:
            return list(self._counts), self._sum, self._count


class _HistogramTimer:
    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_HistogramTimer":
        from repro.obs import clock

        self._started = clock.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        from repro.obs import clock

        self._histogram.observe(clock.perf_counter() - self._started)


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric: kind, help text, label names, children.

    A label-less family has exactly one child (pre-created); a labeled
    family materializes children on first :meth:`labels` call and
    memoizes them, so call sites bind once and record forever.
    """

    __slots__ = ("name", "kind", "help", "label_names", "buckets",
                 "_children", "_lock")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = buckets
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        if not label_names:
            self._children[()] = self._new_child()

    def _new_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets or LATENCY_BUCKETS)
        return _CHILD_TYPES[self.kind]()

    def labels(self, *values: str):
        """The memoized child for one label-value tuple."""
        if len(values) != len(self.label_names):
            raise ObsError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {len(values)} value(s)"
            )
        key = tuple(str(value) for value in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
        return child

    @property
    def default(self):
        """The single child of a label-less family."""
        if self.label_names:
            raise ObsError(
                f"metric {self.name!r} is labeled by {self.label_names}; "
                f"bind a child with .labels(...)"
            )
        return self._children[()]

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        """(label values, child) pairs, sorted for stable rendering."""
        with self._lock:
            return sorted(self._children.items())

    # ------------------------------- render --------------------------- #
    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for values, child in self.children():
            suffix = _label_suffix(self.label_names, values)
            if self.kind == "histogram":
                assert isinstance(child, Histogram)
                counts, total, count = child.snapshot()
                cumulative = 0
                bounds = [*child.buckets, math.inf]
                for bound, bucket_count in zip(bounds, counts):
                    cumulative += bucket_count
                    le = _label_suffix(
                        (*self.label_names, "le"),
                        (*values, _format_value(bound)),
                    )
                    lines.append(f"{self.name}_bucket{le} {cumulative}")
                lines.append(f"{self.name}_sum{suffix} {_format_value(total)}")
                lines.append(f"{self.name}_count{suffix} {count}")
            else:
                value = child.value  # type: ignore[union-attr]
                lines.append(f"{self.name}{suffix} {_format_value(value)}")
        return lines


class MetricsRegistry:
    """Instrument families keyed by name, plus scrape-time collectors.

    Families are held in a :class:`repro.registry.Registry` (typed
    errors, duplicate rejection). Requesting an existing name with the
    *same* signature returns the existing family — module-level
    instrumentation must be import-idempotent — while a kind/label/
    bucket mismatch is a hard :class:`~repro.errors.ObsError`.

    *Collectors* bridge pull-style state (cache hit counts, queue
    depth, store records) into gauges: a registered callable runs at the
    top of every :meth:`render`/:meth:`collect`, reading live objects
    and ``set()``-ing gauges, so scrapes see current values without the
    hot path paying for continuous updates.
    """

    def __init__(self) -> None:
        self._families = Registry("metric", error=ObsError)
        self._collectors: list[Callable[[], None]] = []
        self._lock = threading.Lock()

    # ----------------------------- creation --------------------------- #
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Sequence[str],
        buckets: tuple[float, ...] | None = None,
    ) -> _Family:
        _check_name(name)
        label_names = tuple(labels)
        with self._lock:
            if name in self._families:
                family: _Family = self._families.get(name)
                if (
                    family.kind != kind
                    or family.label_names != label_names
                    or (kind == "histogram" and buckets is not None
                        and family.buckets != buckets)
                ):
                    raise ObsError(
                        f"metric {name!r} is already registered as a "
                        f"{family.kind} with labels {family.label_names}; "
                        f"cannot re-register as a {kind} with labels "
                        f"{label_names}"
                    )
                return family
            family = _Family(name, kind, help_text, label_names, buckets)
            self._families.register(name, family)
            return family

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> "Counter | _Family":
        """Get-or-create a counter family; label-less returns the child."""
        family = self._family(name, "counter", help_text, labels)
        return family.default if not family.label_names else family

    def gauge(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> "Gauge | _Family":
        """Get-or-create a gauge family; label-less returns the child."""
        family = self._family(name, "gauge", help_text, labels)
        return family.default if not family.label_names else family

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> "Histogram | _Family":
        """Get-or-create a histogram family with fixed boundaries."""
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ObsError(
                f"histogram buckets must be strictly increasing, got {bounds}"
            )
        family = self._family(name, "histogram", help_text, labels, bounds)
        return family.default if not family.label_names else family

    # ---------------------------- collectors -------------------------- #
    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector`` before every render (pull-style gauges)."""
        with self._lock:
            self._collectors.append(collector)

    def remove_collector(self, collector: Callable[[], None]) -> None:
        """Forget a collector (absent is a no-op; lifecycle-safe)."""
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    def collect(self) -> None:
        """Refresh pull-style gauges now (a failing collector is skipped).

        Collectors read live engine objects that may be mid-shutdown at
        scrape time; one dying collector must not take the whole
        ``/metrics`` endpoint down with it.
        """
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector()
            except Exception:  # noqa: BLE001 - scrape must survive
                pass

    # ------------------------------ reads ----------------------------- #
    def names(self) -> list[str]:
        """Registered family names, sorted."""
        return self._families.keys()

    def family(self, name: str) -> _Family:
        """The family registered under ``name`` (typed error if absent)."""
        return self._families.get(name)

    def render(self) -> str:
        """The registry as Prometheus text (collectors refreshed first)."""
        self.collect()
        lines: list[str] = []
        for name in self.names():
            lines.extend(self.family(name).render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, dict[tuple[str, ...], float]]:
        """Scalar view: ``{name: {label values: value}}``.

        Histograms contribute ``name_sum`` and ``name_count`` entries —
        exactly what diff-based consumers (the ``profile=`` hook) need.
        """
        self.collect()
        out: dict[str, dict[tuple[str, ...], float]] = {}
        for name in self.names():
            family = self.family(name)
            if family.kind == "histogram":
                sums: dict[tuple[str, ...], float] = {}
                counts: dict[tuple[str, ...], float] = {}
                for values, child in family.children():
                    assert isinstance(child, Histogram)
                    _, total, count = child.snapshot()
                    sums[values] = total
                    counts[values] = float(count)
                out[f"{name}_sum"] = sums
                out[f"{name}_count"] = counts
            else:
                out[name] = {
                    values: child.value  # type: ignore[union-attr]
                    for values, child in family.children()
                }
        return out


# --------------------------------------------------------------------- #
# The read side: parse what a /metrics endpoint rendered.
# --------------------------------------------------------------------- #
def parse_prometheus(
    text: str,
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Prometheus text -> ``{sample name: [(labels, value), ...]}``.

    Covers what :meth:`MetricsRegistry.render` emits (HELP/TYPE
    comments, escaped label values, ``+Inf``). Histogram series appear
    under their sample names (``*_bucket``, ``*_sum``, ``*_count``) —
    the consumer-side mirror of the flat exposition format.
    """
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, value = _parse_sample(line)
        samples.setdefault(name, []).append((labels, value))
    return samples


def _parse_sample(line: str) -> tuple[str, dict[str, str], float]:
    if "{" in line:
        name, _, rest = line.partition("{")
        label_text, _, value_text = rest.rpartition("}")
        labels = _parse_labels(label_text)
    else:
        parts = line.split()
        if len(parts) != 2:
            raise ObsError(f"unparseable metric sample line: {line!r}")
        name, value_text = parts
        labels = {}
    name = name.strip()
    value_text = value_text.strip()
    try:
        value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
    except ValueError as exc:
        raise ObsError(f"bad sample value in line {line!r}") from exc
    return name, labels, value


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        key = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ObsError(f"label value must be quoted in {text!r}")
        j = eq + 2
        out: list[str] = []
        while j < len(text):
            ch = text[j]
            if ch == "\\" and j + 1 < len(text):
                nxt = text[j + 1]
                out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
                j += 2
                continue
            if ch == '"':
                break
            out.append(ch)
            j += 1
        labels[key] = "".join(out)
        i = j + 1
    return labels
