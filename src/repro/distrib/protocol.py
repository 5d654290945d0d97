"""Length-prefixed JSON message framing for the distributed dispatcher.

Every message on the wire is a 4-byte big-endian length followed by that
many bytes of UTF-8 JSON encoding one object with at least a ``"type"``
key.  Workers dial the coordinator; once connected, the coordinator speaks
first (its ``hello``).

Message vocabulary (all extra keys are ignored by the receiver, so the
protocol can grow backwards-compatibly):

=================  =========  =================================================
type               direction  fields
=================  =========  =================================================
``hello``          both       ``role`` (``"coordinator"``/``"worker"``),
                              ``protocol`` (int), ``fingerprint`` (repro source
                              tree hash), ``worker`` (worker name, worker side)
``welcome``        coord →    handshake accepted
``reject``         both       ``reason`` — handshake refused, connection closes
``next``           → coord    the worker is idle and wants a cell
``task``           coord →    ``task_id``, ``payload`` (a sweep cell payload)
``wait``           coord →    ``seconds`` — nothing runnable right now, poll
                              again after the delay
``done``           coord →    the sweep is complete; the worker may disconnect
``result``         → coord    ``task_id``, ``record`` (result *or* error record)
``heartbeat``      → coord    liveness while executing; carries nothing
``bye``            → coord    graceful disconnect (e.g. ``--max-cells`` reached)
=================  =========  =================================================

Every peer of the coordinator is a ``worker`` (the role rides in the
``hello``); the coordinator refuses any other role.  Fleet status leaves
the coordinator through the backend's ``--status-json`` sink, not the wire.

The coordinator treats *any* received message as proof of liveness; a
worker that stays silent longer than the heartbeat timeout is presumed
dead and its in-flight cells are requeued.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Optional

#: Bumped whenever the message vocabulary changes incompatibly; both sides
#: refuse to pair with a different version during the handshake.
PROTOCOL_VERSION = 1

#: The complete wire vocabulary.  ``reprolint``'s protocol-exhaustiveness
#: rule cross-checks this set against every ``channel.send("<type>", ...)``
#: site and every dispatch branch in ``coordinator.py``/``worker.py``, so a
#: new message type cannot ship sent-but-unhandled (silently dropped by the
#: receiver) or handled-but-never-sent (dead protocol surface).  Receivers
#: still ignore *incoming* unknown types for forward compatibility; this
#: set only constrains what this codebase emits.
MESSAGE_TYPES = frozenset(
    {
        "hello",
        "welcome",
        "reject",
        "next",
        "task",
        "wait",
        "done",
        "result",
        "heartbeat",
        "bye",
    }
)

#: Schema identifier carried by every fleet status snapshot (every line of
#: a ``--status-json`` stream).  Bump when the snapshot shape changes, so a
#: consumer can refuse frames it does not understand instead of
#: mis-reading them.  Field reference: docs/OBSERVABILITY.md.
STATUS_SCHEMA = "repro-status-v1"

_HEADER = struct.Struct(">I")

#: Upper bound on one frame.  Sweep cell records are a few KB to a few MB;
#: anything larger is a corrupt frame or a foreign client.  The length
#: prefix is attacker/corruption-controlled input: without this bound a
#: single hostile header would make ``recv`` allocate up to 4 GiB.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Never read more than this per ``recv`` call, however large the frame:
#: allocation then grows with data actually received, not with what a
#: corrupt length prefix merely *claims* is coming.
_RECV_CHUNK_BYTES = 1 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A peer sent bytes that do not parse as a protocol message."""


class FrameTooLargeError(ProtocolError):
    """A frame (announced or outgoing) exceeds the configured size bound."""


def encode_message(message: dict, max_bytes: int = MAX_MESSAGE_BYTES) -> bytes:
    body = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(body) > max_bytes:
        raise FrameTooLargeError(
            f"outgoing message of {len(body)} bytes exceeds the {max_bytes}-byte frame limit"
        )
    return _HEADER.pack(len(body)) + body


def send_message(sock: socket.socket, message: dict, max_bytes: int = MAX_MESSAGE_BYTES) -> None:
    """Write one framed message (callers serialise concurrent senders)."""
    sock.sendall(encode_message(message, max_bytes=max_bytes))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on a clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, _RECV_CHUNK_BYTES))
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket, max_bytes: int = MAX_MESSAGE_BYTES) -> Optional[dict]:
    """Read one framed message; None when the peer closed the connection.

    ``max_bytes`` bounds the announced frame length *before* any body byte
    is read: a hostile or bit-flipped length prefix raises a typed
    :class:`FrameTooLargeError` instead of asking the allocator for
    whatever the header claims.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameTooLargeError(
            f"peer announced a {length}-byte frame (limit {max_bytes})"
        )
    body = _recv_exact(sock, length) if length else b""
    if length and body is None:  # pragma: no cover - _recv_exact raises instead
        raise ProtocolError("connection closed mid-frame")
    try:
        message = json.loads(body.decode("utf-8")) if length else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not a typed message object")
    return message


class MessageChannel:
    """Thread-safe framed messaging over one connected socket.

    Sending is serialised with a lock because a worker writes from two
    threads (the session loop and the heartbeat thread); receiving is only
    ever done from one thread per side, so it takes no lock.

    ``max_message_bytes`` bounds frames in both directions (default
    :data:`MAX_MESSAGE_BYTES`); subclasses — the chaos layer's
    :class:`~repro.distrib.chaos.ChaosChannel` — override ``_send_locked``
    / ``recv`` to intercept the message stream at this exact boundary.
    """

    def __init__(
        self, sock: socket.socket, max_message_bytes: int = MAX_MESSAGE_BYTES
    ) -> None:
        self.sock = sock
        self.max_message_bytes = max_message_bytes
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, type: str, **fields: Any) -> None:
        if type not in MESSAGE_TYPES:
            raise ProtocolError(f"unknown outgoing message type {type!r}")
        message = {"type": type, **fields}
        with self._send_lock:
            self._send_locked(message)

    def _send_locked(self, message: dict) -> None:
        """Write one validated message while holding the send lock."""
        send_message(self.sock, message, max_bytes=self.max_message_bytes)

    def recv(self) -> Optional[dict]:
        return recv_message(self.sock, max_bytes=self.max_message_bytes)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``, meaning localhost) into an address tuple."""
    host, _, port = text.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError as exc:
        raise ValueError(f"invalid address {text!r}: expected HOST:PORT") from exc
