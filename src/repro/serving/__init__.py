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
"""

from repro.serving.config import WorkerSpec
from repro.serving.frames import (
    MAX_FRAME_BYTES,
    FrameChannel,
    decode_frame,
    encode_frame,
)
from repro.serving.frontend import HTTPFrontend
from repro.serving.hashring import HashRing
from repro.serving.shards import RemoteOutcome, ShardManager
from repro.serving.stats import ServingStats, ShardSnapshot
from repro.serving.worker import serve_worker, worker_main

__all__ = [
    "FrameChannel",
    "HTTPFrontend",
    "HashRing",
    "MAX_FRAME_BYTES",
    "RemoteOutcome",
    "ServingStats",
    "ShardManager",
    "ShardSnapshot",
    "WorkerSpec",
    "decode_frame",
    "encode_frame",
    "serve_worker",
    "worker_main",
]
