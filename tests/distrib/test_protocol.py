"""Tests for the length-prefixed JSON framing."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.distrib.protocol import (
    MAX_MESSAGE_BYTES,
    FrameTooLargeError,
    MessageChannel,
    ProtocolError,
    parse_address,
    recv_message,
    send_message,
)


def pair():
    return socket.socketpair()


class TestFraming:
    def test_roundtrip(self):
        a, b = pair()
        try:
            send_message(a, {"type": "task", "task_id": "7", "payload": {"seed": 3}})
            message = recv_message(b)
            assert message == {"type": "task", "task_id": "7", "payload": {"seed": 3}}
        finally:
            a.close(), b.close()

    def test_multiple_messages_in_order(self):
        a, b = pair()
        try:
            for index in range(5):
                send_message(a, {"type": "heartbeat", "n": index})
            for index in range(5):
                assert recv_message(b) == {"type": "heartbeat", "n": index}
        finally:
            a.close(), b.close()

    def test_large_message(self):
        a, b = pair()
        try:
            payload = {"type": "result", "blob": "x" * 300_000}

            # socketpair buffers are finite: send from a thread.
            sender = threading.Thread(target=send_message, args=(a, payload))
            sender.start()
            assert recv_message(b) == payload
            sender.join()
        finally:
            a.close(), b.close()

    def test_eof_returns_none(self):
        a, b = pair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = pair()
        try:
            a.sendall(struct.pack(">I", 100) + b"only-some-bytes")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_garbage_length_rejected(self):
        a, b = pair()
        try:
            a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ProtocolError, match="frame"):
                recv_message(b)
        finally:
            a.close(), b.close()

    def test_oversized_announced_frame_is_typed_and_reads_no_body(self):
        """The bound trips on the header alone — before any body byte is
        read, so a hostile length prefix costs no allocation."""
        a, b = pair()
        try:
            a.sendall(struct.pack(">I", 0xFFFF_FFFF))
            with pytest.raises(FrameTooLargeError, match="announced"):
                recv_message(b)
            assert issubclass(FrameTooLargeError, ProtocolError)
        finally:
            a.close(), b.close()

    def test_custom_max_bytes_bounds_recv(self):
        a, b = pair()
        try:
            send_message(a, {"type": "result", "blob": "x" * 2_000})
            with pytest.raises(FrameTooLargeError, match="limit 1024"):
                recv_message(b, max_bytes=1024)
        finally:
            a.close(), b.close()

    def test_oversized_outgoing_message_rejected_before_send(self):
        a, b = pair()
        try:
            with pytest.raises(FrameTooLargeError, match="outgoing"):
                send_message(a, {"type": "result", "blob": "x" * 2_000}, max_bytes=1024)
            # Nothing went on the wire: the peer sees a clean EOF, not junk.
            a.close()
            assert recv_message(b) is None
        finally:
            b.close()

    def test_eof_mid_header_raises(self):
        """EOF inside the 4-byte length prefix is mid-frame, not clean."""
        a, b = pair()
        try:
            a.sendall(b"\x00\x00")  # half a header
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_non_json_frame_rejected(self):
        a, b = pair()
        try:
            a.sendall(struct.pack(">I", 4) + b"{not")
            with pytest.raises(ProtocolError, match="JSON"):
                recv_message(b)
        finally:
            a.close(), b.close()

    def test_untyped_message_rejected(self):
        a, b = pair()
        try:
            body = b'{"k":1}'
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="typed"):
                recv_message(b)
        finally:
            a.close(), b.close()


class TestMessageChannel:
    def test_send_recv_and_close(self):
        a, b = pair()
        channel_a, channel_b = MessageChannel(a), MessageChannel(b)
        channel_a.send("hello", role="worker")
        assert channel_b.recv() == {"type": "hello", "role": "worker"}
        channel_a.close()
        assert channel_b.recv() is None
        channel_b.close()
        assert channel_a.closed and channel_b.closed
        channel_a.close()  # idempotent

    def test_unknown_outgoing_type_rejected(self):
        a, b = pair()
        channel = MessageChannel(a)
        try:
            with pytest.raises(ProtocolError, match="unknown outgoing message type"):
                channel.send("mystery", x=1)
        finally:
            a.close(), b.close()

    def test_vocabulary_covers_handshake_and_session(self):
        from repro.distrib.protocol import MESSAGE_TYPES

        assert MESSAGE_TYPES == {
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

    def test_concurrent_senders_interleave_whole_frames(self):
        a, b = pair()
        channel = MessageChannel(a)
        received = []

        def reader():
            while True:
                message = recv_message(b)
                if message is None:
                    return
                received.append(message)

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        threads = [
            threading.Thread(
                target=lambda tag=tag: [channel.send("heartbeat", tag=tag, i=i) for i in range(50)]
            )
            for tag in ("a", "b", "c")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        channel.close()
        reader_thread.join()
        assert len(received) == 150
        for tag in ("a", "b", "c"):
            assert [m["i"] for m in received if m["tag"] == tag] == list(range(50))
        b.close()


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("example.org:7071") == ("example.org", 7071)

    def test_bare_port_defaults_host(self):
        assert parse_address("7071") == ("127.0.0.1", 7071)

    def test_empty_host_defaults(self):
        assert parse_address(":7071") == ("127.0.0.1", 7071)

    def test_invalid_port_raises(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("host:notaport")
