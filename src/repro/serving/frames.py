"""The worker-channel wire format: length-prefixed JSON frames.

The shard manager and its worker processes speak a deliberately boring
protocol: every message is one *frame* — a 4-byte big-endian unsigned
length prefix followed by exactly that many bytes of UTF-8 JSON, which
must decode to a JSON **object** (the op envelope).  Length-prefixed
framing over a stream socket gives the two properties the serving tier
needs and ``pickle`` over a ``multiprocessing.Pipe`` would not:

* **language-neutral introspection** — frames are readable with any
  JSON tool, so the protocol is testable byte-by-byte and debuggable
  with ``tcpdump``;
* **no code execution on receive** — a worker compromised by a bad
  input cannot smuggle objects into the front-end process the way a
  pickle payload could.

:class:`FrameChannel` wraps a connected stream socket (the shard
manager's workers dial back to a listener on loopback; tests use
``socket.socketpair``).  Receive deadlines are implemented with
``select`` *before* the header read, so a timed-out ``recv`` consumes
nothing and the stream stays aligned; only a peer that stalls
mid-frame (pathological — frames are written with one ``sendall``)
breaks the channel, and the channel then refuses further use rather
than de-sync silently.
"""

from __future__ import annotations

import json
import select
import socket
import struct

from repro.errors import ChannelClosedError, FrameProtocolError

__all__ = [
    "FrameChannel", "KNOWN_OPS", "MAX_FRAME_BYTES", "decode_frame",
    "encode_frame",
]

#: The op vocabulary of the manager↔worker envelope.  ``hello`` flows
#: worker→manager only (the readiness signal); ``cache_seed`` is the
#: warm-restart protocol — the manager replays its shadow index's
#: hottest entries for a shard into the freshly restarted worker before
#: it rejoins the ring.  Workers answer an op outside this set with a
#: typed ``FrameProtocolError`` payload rather than dying, so a newer
#: manager degrades gracefully against an older worker.
KNOWN_OPS = frozenset({
    "hello", "ping", "translate", "batch", "lint", "stats",
    "cache_seed", "stall", "shutdown",
})

#: Hard ceiling on one frame's payload.  Big enough for a several-
#: thousand-question batch or a full stats snapshot; small enough that
#: a corrupt length prefix cannot make the reader allocate gigabytes.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Safety budget for finishing a frame whose header has started to
#: arrive.  A peer that goes silent mid-frame for this long is broken,
#: not slow — the stream can no longer be trusted to be aligned.
_MID_FRAME_TIMEOUT = 30.0

_HEADER = struct.Struct("!I")


def encode_frame(obj: dict) -> bytes:
    """Serialize one message to its wire form (header + JSON payload)."""
    if not isinstance(obj, dict):
        raise FrameProtocolError(
            f"frames carry JSON objects, not {type(obj).__name__}"
        )
    payload = json.dumps(
        obj, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict:
    """Parse one frame payload (the bytes after the length prefix)."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FrameProtocolError(f"frame payload is not JSON: {err}") from err
    if not isinstance(obj, dict):
        raise FrameProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(obj).__name__}"
        )
    return obj


class FrameChannel:
    """One end of a framed conversation over a stream socket.

    Not thread-safe by itself: the shard manager serializes access per
    worker with a handle lock, and each worker is single-threaded.
    """

    def __init__(self, sock: socket.socket):
        sock.setblocking(True)
        self._sock = sock
        self._broken = False

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- sending ---------------------------------------------------------------

    def send(self, obj: dict) -> None:
        """Write one frame; raises :class:`ChannelClosedError` when the
        peer is gone (the dispatcher's crash-detection signal)."""
        self._check_usable()
        frame = encode_frame(obj)
        try:
            self._sock.sendall(frame)
        except (BrokenPipeError, ConnectionError, OSError) as err:
            self._broken = True
            raise ChannelClosedError(
                f"peer closed the channel while sending: {err}"
            ) from err

    # -- receiving -------------------------------------------------------------

    def recv(self, timeout: float | None = None) -> dict:
        """Read one frame, waiting at most ``timeout`` seconds.

        A timeout *before any byte of the frame arrived* raises
        ``TimeoutError`` and leaves the stream aligned — the caller can
        keep using the channel (this is how per-request deadlines work
        without poisoning the connection).  EOF raises
        :class:`ChannelClosedError`; a malformed header or payload
        raises :class:`FrameProtocolError` and marks the channel
        broken.
        """
        self._check_usable()
        if timeout is not None:
            ready, _, _ = select.select([self._sock], [], [], max(timeout, 0.0))
            if not ready:
                raise TimeoutError(
                    f"no frame arrived within {timeout:.3f}s"
                )
        header = self._read_exact(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            self._broken = True
            raise FrameProtocolError(
                f"frame header announces {length} bytes, over the "
                f"{MAX_FRAME_BYTES}-byte ceiling (stream corrupt?)"
            )
        payload = self._read_exact(length)
        try:
            return decode_frame(payload)
        except FrameProtocolError:
            self._broken = True
            raise

    def _read_exact(self, n: int) -> bytes:
        """Read exactly ``n`` bytes, under the mid-frame safety budget."""
        chunks: list[bytes] = []
        remaining = n
        self._sock.settimeout(_MID_FRAME_TIMEOUT)
        try:
            while remaining:
                try:
                    chunk = self._sock.recv(min(remaining, 1 << 20))
                except (socket.timeout, TimeoutError) as err:
                    self._broken = True
                    raise FrameProtocolError(
                        f"peer stalled mid-frame for "
                        f"{_MID_FRAME_TIMEOUT:.0f}s with {remaining} of "
                        f"{n} bytes outstanding"
                    ) from err
                except (ConnectionError, OSError) as err:
                    self._broken = True
                    raise ChannelClosedError(
                        f"channel failed mid-read: {err}"
                    ) from err
                if not chunk:
                    self._broken = True
                    raise ChannelClosedError(
                        "peer closed the channel"
                        + (
                            f" mid-frame ({remaining} of {n} bytes "
                            f"outstanding)" if chunks else ""
                        )
                    )
                chunks.append(chunk)
                remaining -= len(chunk)
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:  # pragma: no cover - socket already dead
                pass
        return b"".join(chunks)

    # -- lifecycle -------------------------------------------------------------

    def _check_usable(self) -> None:
        if self._broken:
            raise ChannelClosedError(
                "channel is broken (earlier protocol or I/O failure)"
            )

    def close(self) -> None:
        """Close the underlying socket; safe to call repeatedly."""
        self._broken = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close is fine
            pass
