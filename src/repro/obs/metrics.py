"""Dependency-free metrics: registry, instruments, Prometheus text format.

The serving layer needs a truthful, scrape-able window into a running
:class:`~repro.service.service.TranslationService`.  This module is the
substrate: a thread-safe :class:`MetricsRegistry` holding three
instrument kinds —

* :class:`Counter` — monotonically increasing floats (requests,
  crowd tasks);
* :class:`Gauge` — instantaneous values (queue depth);
* :class:`Histogram` — cumulative-bucket latency distributions over
  fixed log-scale buckets (per-stage pipeline latency).

Every instrument may be *labeled* (``stage="ix-finder"``); a labeled
family holds one child per label-value combination.  A counter or gauge
may instead read a lock-free *callback* over a component's own state
(cache hits, cache size), so the registry reports exactly what the
component does; callbacks bound to one name sum.  Registration is
get-or-create: asking for an already-registered name returns the
existing family (so a shared registry aggregates across services), and
conflicting re-registration (different kind, help or label names)
raises :class:`~repro.errors.MetricsError`.

:meth:`MetricsRegistry.samples` takes one atomic snapshot as plain data
(:data:`Samples`, the shape :func:`parse_prometheus_text` returns);
:func:`render_samples` renders it in the Prometheus text exposition
format (version 0.0.4) and :func:`merge_samples`, :func:`label_samples`
and :func:`without_gauges` combine snapshots across processes — the
sharded serving tier ships worker metrics to the front-end that way.

Everything is stdlib-only by design: the container this runs in has no
``prometheus_client``, and none is needed.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import MetricsError

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Samples",
    "label_samples",
    "merge_samples",
    "parse_prometheus_text",
    "render_samples",
    "without_gauges",
]

#: Fixed log-scale (1-2.5-5 per decade) latency buckets, in seconds,
#: from 100 microseconds to 10 seconds.  Wide enough for a single NLP
#: stage and for a whole crowd-mining evaluation.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: The content type Prometheus expects for text exposition 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The key of one child inside a family: label values, in the order of
#: the family's ``labelnames``.
LabelValues = tuple[str, ...]

#: A metrics snapshot: ``{family name: {"type": str | None, "help": str |
#: None, "samples": {(sample name, sorted (label, value) pairs): float}}}``.
Samples = dict[str, dict]


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats without the ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(pairs: tuple[tuple[str, str], ...]) -> str:
    return "{" + ",".join(
        f'{n}="{_escape_label_value(v)}"' for n, v in pairs
    ) + "}" if pairs else ""


class _Family:
    """Common machinery of a labeled metric family.

    Value mutation and reads share the registry's single re-entrant
    lock: instrument updates are cheap (a dict lookup and a float add),
    and one lock keeps the whole registry's lock ordering trivial —
    nothing in this module ever acquires another lock while holding it.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        lock: threading.RLock,
    ):
        if not _METRIC_NAME.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise MetricsError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: dict[LabelValues, object] = {}
        self._callbacks: list[Callable[[], object]] = []

    # -- children ------------------------------------------------------------

    def _key(self, labels: Mapping[str, str]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise MetricsError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labels)}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def labels(self, **labels: str):
        """The child for one label-value combination (created lazily)."""
        key = self._key(labels)
        with self._lock:
            if self._callbacks:
                raise MetricsError(
                    f"callback metric {self.name!r} cannot be set"
                )
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _default_child(self):
        if self.labelnames:
            raise MetricsError(
                f"metric {self.name!r} is labeled "
                f"{list(self.labelnames)}; use .labels(...)"
            )
        return self.labels()

    def children(self) -> list[tuple[dict[str, str], object]]:
        """Snapshot of ``(labels dict, child)`` pairs, insertion order."""
        with self._lock:
            return [
                (dict(zip(self.labelnames, key)), child)
                for key, child in self._children.items()
            ]

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def reset(self) -> None:
        """Zero every child **in place**.

        Children are kept (their label series persist at zero, as
        Prometheus series do) so handles cached by hot paths — e.g. the
        service's per-outcome counter children — stay live across a
        reset instead of silently recording into detached objects.
        """
        with self._lock:
            for child in self._children.values():
                child.reset()

    def _samples(self) -> dict:  # pragma: no cover - overridden
        """This family as a :data:`Samples` entry; the caller holds the
        registry lock."""
        raise NotImplementedError


class _Scalar(_Family):
    """A family with one value per child: a counter or a gauge.

    Its values are either recorded into children or read from bound
    callbacks — never both.  A callback returns a number (unlabeled
    family) or a mapping from label-value tuples to numbers; several
    callbacks bound to one family (one per cache or service sharing a
    registry) are summed.  Callbacks run under the registry lock, so
    they must be lock-free and cheap (e.g. reading an int attribute).
    """

    def _bind(self, callback: Callable[[], object]) -> None:
        if self._children:
            raise MetricsError(
                f"metric {self.name!r} already records values; it "
                f"cannot also read a callback"
            )
        self._callbacks.append(callback)

    def _readings(self) -> dict[LabelValues, float]:
        """Current value per label-value key; the caller holds the lock."""
        if not self._callbacks:
            return {key: child.value for key, child in self._children.items()}
        out: dict[LabelValues, float] = {}
        for callback in self._callbacks:
            reading = callback()
            if not isinstance(reading, Mapping):
                reading = {(): reading}
            for key, value in reading.items():
                out[key] = out.get(key, 0.0) + float(value)
        return out

    def value(self, **labels: str) -> float:
        """Current value; 0.0 for a label combination never touched."""
        key = self._key(labels)
        with self._lock:
            return self._readings().get(key, 0.0)

    def series(self) -> list[tuple[dict[str, str], float]]:
        """``(labels dict, current value)`` per series, callbacks read."""
        with self._lock:
            return [
                (dict(zip(self.labelnames, key)), value)
                for key, value in self._readings().items()
            ]

    def _samples(self) -> dict:
        samples = {
            (self.name, tuple(sorted(zip(self.labelnames, key)))): value
            for key, value in self._readings().items()
        }
        return {"type": self.kind, "help": self.help, "samples": samples}


class _CounterChild:
    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.RLock):
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters can only increase")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Scalar):
    """A monotonically increasing value (family of them when labeled)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)


class _GaugeChild(_CounterChild):
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(_Scalar):
    """An instantaneous value; optionally computed by a callback."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.RLock, buckets: tuple[float, ...]):
        self._lock = lock
        self.buckets = buckets
        self._counts = [0] * len(buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            self._sum += value
            self._count += 1

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self.buckets)
            self._sum = 0.0
            self._count = 0

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, ending at +Inf."""
        with self._lock:
            out, running = [], 0
            for bound, n in zip(self.buckets, self._counts):
                running += n
                out.append((bound, running))
            out.append((math.inf, self._count))
            return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style).

        Linear interpolation inside the bucket that crosses the target
        rank; the last bucket clamps to its lower bound.  An estimate —
        good for admin panels, not for billing.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError("quantile must be in [0, 1]")
        with self._lock:
            if not self._count:
                return 0.0
            target = q * self._count
            running = 0
            lower = 0.0
            overflow = self._count - sum(self._counts)
            for bound, n in zip(self.buckets, self._counts):
                if running + n >= target and n:
                    fraction = (target - running) / n
                    return lower + (bound - lower) * fraction
                running += n
                lower = bound
            # Target falls into the overflow (+Inf) bucket.
            return self.buckets[-1] if overflow else lower


class Histogram(_Family):
    """A cumulative-bucket distribution (Prometheus histogram)."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock, buckets=None):
        super().__init__(name, help, labelnames, lock)
        raw = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
        if list(raw) != sorted(raw) or len(set(raw)) != len(raw):
            raise MetricsError("histogram buckets must strictly increase")
        if not raw:
            raise MetricsError("histogram needs at least one bucket")
        self.buckets = tuple(float(b) for b in raw if b != math.inf)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def sum(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            return child.sum if child is not None else 0.0

    def count(self, **labels: str) -> int:
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            return child.count if child is not None else 0

    def _samples(self) -> dict:
        samples = {}
        for key, child in self._children.items():
            labels = tuple(zip(self.labelnames, key))
            pairs = tuple(sorted(labels))
            for bound, cumulative in child.cumulative_counts():
                le = labels + (("le", _format_value(bound)),)
                sample = (self.name + "_bucket", tuple(sorted(le)))
                samples[sample] = float(cumulative)
            samples[(self.name + "_sum", pairs)] = float(child.sum)
            samples[(self.name + "_count", pairs)] = float(child.count)
        return {"type": self.kind, "help": self.help, "samples": samples}


class MetricsRegistry:
    """A named collection of metric families with text exposition.

    One registry per service is the normal shape; injecting a shared
    registry into several components (service, cache, engine) gives one
    scrape endpoint for the whole process.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # -- registration (get-or-create) ----------------------------------------

    def counter(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        callback: Callable[[], object] | None = None,
    ) -> Counter:
        return self._register(
            Counter, name, help, tuple(labelnames), callback
        )

    def gauge(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        callback: Callable[[], object] | None = None,
    ) -> Gauge:
        return self._register(Gauge, name, help, tuple(labelnames), callback)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )

    def _register(
        self, cls, name, help, labelnames, callback=None, **kwargs
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, labelnames, self._lock, **kwargs)
                self._families[name] = family
            elif type(family) is not cls or family.labelnames != labelnames:
                raise MetricsError(
                    f"metric {name!r} is already registered as a "
                    f"{family.kind} with labels {list(family.labelnames)}"
                )
            if callback is not None:
                family._bind(callback)
            return family

    # -- introspection -------------------------------------------------------

    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    def __iter__(self) -> Iterator[_Family]:
        with self._lock:
            return iter(list(self._families.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    def reset(self) -> None:
        """Zero every value; registrations and callbacks survive."""
        with self._lock:
            for family in self._families.values():
                family.reset()

    # -- snapshot + exposition -------------------------------------------------

    def samples(self) -> Samples:
        """One atomic snapshot of every family, under the registry lock."""
        with self._lock:
            return {
                name: family._samples()
                for name, family in self._families.items()
            }

    def expose(self) -> str:
        """The whole registry in Prometheus text format (0.0.4)."""
        return render_samples(self.samples())


def render_samples(samples: Samples) -> str:
    """Prometheus text format (0.0.4): one header per family, then its
    samples; a trailing newline unless the snapshot is empty."""
    lines: list[str] = []
    for name, family in samples.items():
        if family.get("help") is not None:
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        if family.get("type") is not None:
            lines.append(f"# TYPE {name} {family['type']}")
        for (sample, pairs), value in family["samples"].items():
            lines.append(
                f"{sample}{_render_labels(pairs)} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


def merge_samples(parts: Iterable[Samples]) -> Samples:
    """Sum snapshots per sample key (gauges too); families are the
    union, each keeping the type and help of its first sighting."""
    merged: Samples = {}
    for part in parts:
        for name, family in part.items():
            into = merged.setdefault(name, {
                "type": family.get("type"),
                "help": family.get("help"),
                "samples": {},
            })["samples"]
            for key, value in family["samples"].items():
                into[key] = into.get(key, 0.0) + value
    return merged


def label_samples(samples: Samples, **labels: str) -> Samples:
    """Extra labels on every sample (``shard="0"``); relabel before
    :func:`merge_samples` to expose several processes' series."""
    extra = tuple(labels.items())
    return {
        name: {**family, "samples": {
            (sample, tuple(sorted(pairs + extra))): value
            for (sample, pairs), value in family["samples"].items()
        }}
        for name, family in samples.items()
    }


def without_gauges(samples: Samples) -> Samples:
    """The accumulating families only: what a dead process leaves."""
    return {
        name: family for name, family in samples.items()
        if family.get("type") != "gauge"
    }


# ---------------------------------------------------------------------------
# Text-format parsing (for tests and the CI exposition check)
# ---------------------------------------------------------------------------


def _parse_labels(text: str, lineno: int) -> dict[str, str]:
    """Parse ``name="value",...`` (the part between the braces)."""
    labels: dict[str, str] = {}
    i, n = 0, len(text)
    while i < n:
        match = re.match(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"', text[i:])
        if not match:
            raise ValueError(
                f"line {lineno}: malformed label pair at {text[i:]!r}"
            )
        name = match.group(1)
        i += match.end()
        value = []
        while i < n and text[i] != '"':
            if text[i] == "\\":
                if i + 1 >= n:
                    raise ValueError(
                        f"line {lineno}: dangling escape in label value"
                    )
                escaped = text[i + 1]
                value.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escaped)
                    or escaped
                )
                i += 2
            else:
                value.append(text[i])
                i += 1
        if i >= n:
            raise ValueError(f"line {lineno}: unterminated label value")
        i += 1  # closing quote
        labels[name] = "".join(value)
        rest = text[i:].lstrip()
        if rest.startswith(","):
            i = n - len(rest) + 1
        elif rest:
            raise ValueError(
                f"line {lineno}: junk after label value: {rest!r}"
            )
        else:
            break
    return labels


def _parse_value(token: str, lineno: int) -> float:
    token = token.strip()
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token == "NaN":
        return math.nan
    try:
        return float(token)
    except ValueError as err:
        raise ValueError(
            f"line {lineno}: malformed sample value {token!r}"
        ) from err


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse Prometheus text-format exposition into :data:`Samples`.

    Returns ``{metric name: {"type": str | None, "help": str | None,
    "samples": {(sample name, ((label, value), ...)): float}}}``, where
    the sample name carries any ``_bucket``/``_sum``/``_count`` suffix
    and label pairs are sorted — the shape of
    :meth:`MetricsRegistry.samples`, so ``parse_prometheus_text(
    render_samples(s)) == s``.  Raises :class:`ValueError` on any line
    that is not a valid comment, ``# HELP``, ``# TYPE`` or sample line —
    this strictness is the point: the tests and the CI job use it to
    prove :meth:`MetricsRegistry.expose` output is well-formed.
    """
    metrics: dict[str, dict] = {}

    def entry(name: str) -> dict:
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        found = metrics.get(base) if base in metrics else metrics.get(name)
        if found is None:
            found = {"type": None, "help": None, "samples": {}}
            metrics[name] = found
        return found

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                payload = parts[3] if len(parts) > 3 else ""
                record = metrics.setdefault(
                    name, {"type": None, "help": None, "samples": {}}
                )
                if parts[1] == "HELP":  # undo _escape_help
                    payload = re.sub(
                        r"\\(.)", lambda m: m[1].replace("n", "\n"), payload
                    )
                record[parts[1].lower()] = payload
            # Other comments are legal and ignored.
            continue
        match = re.match(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)(\s+\S+)?$",
            line,
        )
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        name, _, labeltext, valuetoken, _timestamp = match.groups()
        labels = (
            _parse_labels(labeltext, lineno) if labeltext else {}
        )
        value = _parse_value(valuetoken, lineno)
        key = (name, tuple(sorted(labels.items())))
        entry(name)["samples"][key] = value
    return metrics
