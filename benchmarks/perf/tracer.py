"""Outside-in span tracing: wrap the public functions of each layer.

The benchmark measures each ``repro`` layer without touching it: it
replaces a method on its class (or a function in the module that calls
it) with a wrapper that records a span.  Each thread keeps its own span
stack, so self time -- a span's duration minus the time its child spans
cover -- is computed as spans close, and the self times of one
operation's spans sum exactly to its root span.

A function that returns a lazy iterator (``iter_bgp``) is one logical
span timed across the call and every later resume: each resume is
charged to whichever span is open when the consumer pulls the next
item, and the span also counts the items it yielded.

Spans are kept in memory, one column-oriented log per thread, and
written out at the end of a run (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: (layer name, module, attribute) for every wrapped function.  The
#: attribute is ``Class.method`` or a module-level name; a module-level
#: name is patched in the module that *calls* it, which is the module
#: given here.
LAYERS = (
    ("core.pipeline", "repro.core.pipeline", "NL2CM.translate"),
    ("core.verify", "repro.core.verification", "Verifier.verify"),
    ("nlp.tokenize", "repro.nlp.tokenizer", "Tokenizer.tokenize"),
    ("nlp.tag", "repro.nlp.postag", "PosTagger.tag"),
    ("nlp.lemma", "repro.nlp.lemma", "Lemmatizer.lemmatize"),
    ("nlp.parse", "repro.nlp.depparse", "DependencyParser.parse_tagged"),
    ("core.ix_finder", "repro.core.ixdetect", "IXFinder.find"),
    ("core.ix_creator", "repro.core.ixdetect", "IXCreator.create"),
    ("freya.generate", "repro.freya.generator",
     "GeneralQueryGenerator.generate"),
    ("core.triples", "repro.core.triples", "IndividualTripleCreator.create"),
    ("core.compose", "repro.core.compose", "QueryComposer.compose"),
    ("analysis.querylint", "repro.analysis.querylint", "QueryLint.lint"),
    ("oassisql.print", "repro.core.pipeline", "print_oassisql"),
    ("service.translate", "repro.service.service",
     "TranslationService.translate"),
    ("serving.dispatch", "repro.serving.frontend", "HTTPFrontend.dispatch"),
    ("serving.submit", "repro.serving.shards", "ShardManager.submit"),
    ("serving.route", "repro.serving.shards", "ShardManager.route"),
    ("serving.frame_send", "repro.serving.frames", "FrameChannel.send"),
    ("serving.frame_recv", "repro.serving.frames", "FrameChannel.recv"),
    ("oassis.evaluate", "repro.oassis.engine", "OassisEngine.evaluate"),
    ("rdf.bgp", "repro.oassis.engine", "iter_bgp"),
    ("crowd.ask", "repro.crowd.simulator", "SimulatedCrowd.ask"),
)

#: Layers whose function returns a lazy iterator, timed across resumes.
STREAMING = frozenset({"rdf.bgp"})

_COLUMNS = ("name", "start", "dur", "self", "parent", "items")


class SpanLog:
    """One thread's spans, in start order, as parallel columns.

    ``parent`` is the index of the enclosing span in the same log (-1
    for a root); ``items`` counts what a stream span yielded.
    """

    def __init__(self, thread: str):
        self.thread = thread
        self.name = array("H")
        self.start = array("d")
        self.dur = array("d")
        self.self = array("d")
        self.parent = array("i")
        self.items = array("I")
        # Open frames: [span index, resume start, child time so far].
        self.stack: list[list] = []

    def open(self, name_id: int, start: float) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.start.append(start)
        self.dur.append(0.0)
        self.self.append(0.0)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.items.append(0)
        self.stack.append([index, start, 0.0])
        return index

    def resume(self, index: int, start: float) -> None:
        self.stack.append([index, start, 0.0])

    def close(self, end: float) -> None:
        """Close the innermost frame (a call, or one stream resume)."""
        index, start, child = self.stack.pop()
        elapsed = end - start
        self.dur[index] += elapsed
        self.self[index] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed

    def clear(self) -> None:
        for column in _COLUMNS:
            del getattr(self, column)[:]

    def to_dict(self) -> dict:
        out = {column: getattr(self, column).tolist() for column in _COLUMNS}
        out["thread"] = self.thread
        return out


class Tracer:
    """Records spans for wrapped functions, per thread, in memory.

    Args:
        clock: the time source; ``time.perf_counter`` is
            ``CLOCK_MONOTONIC`` on Linux, so spans recorded in a server
            process line up with the client's timestamps.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[SpanLog] = []
        self._lock = threading.Lock()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _log(self) -> SpanLog:
        try:
            return self._local.log
        except AttributeError:
            log = SpanLog(threading.current_thread().name)
            with self._lock:
                self._logs.append(log)
            self._local.log = log
            return log

    def wrap(self, name: str, fn, stream: bool = False):
        """``fn`` with every call recorded as a span named ``name``.

        With ``stream``, ``fn`` returns an iterator, and the span also
        covers every later ``next()`` on it.
        """
        name_id = self._name_id(name)
        clock = self.clock
        get_log = self._log

        def resumes(log: SpanLog, index: int, inner):
            try:
                while True:
                    log.resume(index, clock())
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        log.close(clock())
                    log.items[index] += 1
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = get_log()
            index = log.open(name_id, clock())
            try:
                result = fn(*args, **kwargs)
                if stream:
                    result = resumes(log, index, iter(result))
                return result
            finally:
                log.close(clock())

        return traced

    def reset(self) -> None:
        """Drop every recorded span (call only while no span is open)."""
        with self._lock:
            for log in self._logs:
                log.clear()

    def logs(self) -> list[dict]:
        with self._lock:
            return [log.to_dict() for log in self._logs]

    def dump(self, path) -> None:
        """Write every span to ``path`` as JSON (see :func:`load`)."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(
            json.dumps({"names": self.names, "threads": self.logs()}),
            "utf-8",
        )


def load(path) -> tuple[list[str], list[dict]]:
    """The ``(names, threads)`` a :meth:`Tracer.dump` wrote."""
    data = json.loads(Path(path).read_text("utf-8"))
    return data["names"], data["threads"]


def aggregate(
    names: list[str],
    threads: list[dict],
    since: float = float("-inf"),
    until: float = float("inf"),
) -> dict:
    """Per-layer totals over spans that started within ``[since, until]``.

    Returns ``{"layers": {name: {"self": s, "calls": n, "items": k}},
    "roots": {"count": n, "seconds": s}}``; the roots' seconds equal
    the sum of every layer's self seconds.
    """
    layers = defaultdict(lambda: {"self": 0.0, "calls": 0, "items": 0})
    root_count = 0
    root_seconds = 0.0
    for log in threads:
        for name_id, start, dur, self_s, parent, items in zip(
            *(log[column] for column in _COLUMNS)
        ):
            if not since <= start <= until:
                continue
            entry = layers[names[name_id]]
            entry["self"] += self_s
            entry["calls"] += 1
            entry["items"] += items
            if parent < 0:
                root_count += 1
                root_seconds += dur
    return {
        "layers": dict(layers),
        "roots": {"count": root_count, "seconds": root_seconds},
    }


def install(tracer: Tracer, layers=LAYERS) -> list[tuple]:
    """Wrap every layer's function; returns the patches to undo."""
    patches = []
    for name, module_name, attribute in layers:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        setattr(
            owner, leaf, tracer.wrap(name, original, name in STREAMING)
        )
        patches.append((owner, leaf, original))
    return patches


def uninstall(patches: list[tuple]) -> None:
    """Restore what :func:`install` replaced, in reverse order."""
    for owner, leaf, original in reversed(patches):
        setattr(owner, leaf, original)
