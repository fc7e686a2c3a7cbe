"""Multi-process sharded serving for the NL2CM translation service.

One front-end, N worker processes, consistent-hash routing::

    HTTPFrontend ── ShardManager ──(frames)── worker 0: NL2CM stack
       /translate        │                    worker 1: NL2CM stack
       /batch        HashRing over            ...
       /stats        normalize(question)      worker N-1
       /metrics

The pieces, bottom-up:

* :mod:`repro.serving.frames` — the length-prefixed JSON frame
  protocol every manager↔worker channel speaks;
* :mod:`repro.serving.hashring` — consistent-hash routing so the same
  question always hits the same shard (hot caches) and a shard change
  remaps only its own keyspace slice;
* :mod:`repro.serving.config` — :class:`WorkerSpec`, the picklable
  per-shard service recipe;
* :mod:`repro.serving.worker` — the spawn-safe worker entrypoint and
  its op loop;
* :mod:`repro.serving.stats` — the global :class:`ServingStats` view
  (per-shard and merged ``ServiceStats`` read from the workers'
  registry expositions) and the serving counter identity;
* :mod:`repro.serving.shards` — :class:`ShardManager`: dispatch,
  admission control, crash recovery;
* :mod:`repro.serving.frontend` — :class:`HTTPFrontend`: the HTTP/JSON
  face (``python -m repro --serve``).

See ``docs/serving.md`` for the architecture tour and the operational
contract (shedding, deadlines, restart semantics, the stats identity).

Exports are lazy (PEP 562), so a spawned worker that imports
:mod:`repro.serving.worker` loads ``config``, ``frames`` and ``worker``
only, never the HTTP front end or the shard manager.
"""

from importlib import import_module

_LOCATIONS = {
    "FrameChannel": "repro.serving.frames",
    "HTTPFrontend": "repro.serving.frontend",
    "HashRing": "repro.serving.hashring",
    "MAX_FRAME_BYTES": "repro.serving.frames",
    "RemoteOutcome": "repro.serving.shards",
    "ServingStats": "repro.serving.stats",
    "ShardManager": "repro.serving.shards",
    "ShardSnapshot": "repro.serving.stats",
    "WorkerSpec": "repro.serving.config",
    "decode_frame": "repro.serving.frames",
    "encode_frame": "repro.serving.frames",
    "serve_worker": "repro.serving.worker",
    "worker_main": "repro.serving.worker",
}

__all__ = list(_LOCATIONS)


def __getattr__(name: str):
    module_name = _LOCATIONS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.serving' has no attribute {name!r}"
        )
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
