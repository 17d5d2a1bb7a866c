"""In-process and socket transports carrying wire frames."""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from stip import transport as tp
from stip.errors import CodecError, TransportError
from stip.protocol import ServerParty
from stip.wire import (
    HEADER_SIZE,
    ErrorCode,
    Frame,
    MsgType,
    decode_error_payload,
    encode_header,
    encode_matrix,
)


def frame(payload=b"hello", epoch=1):
    return Frame(msg_type=MsgType.ACK, epoch=epoch, session_id=9, payload=payload)


def test_inproc_round_trip():
    a, b = tp.inproc_pair()
    a.send(frame(b"ping"))
    got = b.recv()
    assert got.payload == b"ping"
    b.send(frame(b"pong"))
    assert a.recv().payload == b"pong"
    a.close()
    b.close()


def test_inproc_preserves_order():
    a, b = tp.inproc_pair()
    for i in range(5):
        a.send(frame(str(i).encode()))
    got = [b.recv().payload for _ in range(5)]
    assert got == [b"0", b"1", b"2", b"3", b"4"]


def test_inproc_latency_injection():
    a, b = tp.inproc_pair(latency=0.02)
    t0 = time.perf_counter()
    a.send(frame())
    b.recv()
    assert time.perf_counter() - t0 >= 0.02


def test_inproc_recv_timeout():
    a, b = tp.inproc_pair()
    with pytest.raises(TransportError):
        b.recv(timeout=0.05)
    a.close()


def test_inproc_closed_peer_raises():
    a, b = tp.inproc_pair()
    a.close()
    with pytest.raises(TransportError):
        b.recv(timeout=0.5)


def test_socket_round_trip():
    srv = tp.listen("127.0.0.1", 0)
    port = srv.getsockname()[1]
    result = {}

    def serve():
        link = tp.accept(srv)
        result["got"] = link.recv()
        link.send(frame(b"reply"))
        link.close()

    t = threading.Thread(target=serve)
    t.start()
    client = tp.connect("127.0.0.1", port)
    payload = encode_matrix(np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32))
    client.send(frame(payload))
    reply = client.recv()
    t.join()
    srv.close()
    client.close()
    assert result["got"].payload == payload
    assert reply.payload == b"reply"


def test_socket_large_payload_exact():
    srv = tp.listen("127.0.0.1", 0)
    port = srv.getsockname()[1]
    blob = bytes(range(256)) * 4096  # 1 MiB
    result = {}

    def serve():
        link = tp.accept(srv)
        result["got"] = link.recv()
        link.close()

    t = threading.Thread(target=serve)
    t.start()
    client = tp.connect("127.0.0.1", port)
    client.send(frame(blob))
    t.join()
    srv.close()
    client.close()
    assert result["got"].payload == blob


def test_socket_peer_close_raises():
    srv = tp.listen("127.0.0.1", 0)
    port = srv.getsockname()[1]

    def serve():
        link = tp.accept(srv)
        link.close()

    t = threading.Thread(target=serve)
    t.start()
    client = tp.connect("127.0.0.1", port)
    t.join()
    with pytest.raises(TransportError):
        client.recv(timeout=1.0)
    srv.close()
    client.close()


def test_transports_deliver_identical_frames():
    frames = [
        frame(bytes([i]) * (i + 1), epoch=i) for i in range(4)
    ]
    a, b = tp.inproc_pair()
    for f in frames:
        a.send(f)
    via_inproc = [b.recv() for _ in frames]
    a.close()
    b.close()

    srv = tp.listen("127.0.0.1", 0)
    port = srv.getsockname()[1]
    received = []

    def serve():
        link = tp.accept(srv)
        for _ in frames:
            received.append(link.recv())
        link.close()

    t = threading.Thread(target=serve)
    t.start()
    client = tp.connect("127.0.0.1", port)
    for f in frames:
        client.send(f)
    t.join()
    srv.close()
    client.close()
    assert via_inproc == received == frames


# --- large frames: no copy on the way, nothing lost -----------------------------


BIG = np.random.default_rng(7).integers(0, 256, 8 * 2**20, dtype=np.uint8).tobytes()


def test_inproc_eight_megabyte_frame_intact():
    a, b = tp.inproc_pair()
    a.send(frame(BIG))
    got = b.recv(timeout=5)
    assert got == frame(BIG)


def socket_pair():
    """A SocketTransport and the raw socket at the other end of its stream.

    With a timeout set, as on any link that has received, a large send goes
    out in several partial sendmsg calls.
    """
    s1, s2 = socket.socketpair()
    s1.settimeout(5)
    return tp.SocketTransport(s1), s2


def test_socket_eight_megabyte_frame_intact():
    near, raw = socket_pair()
    far = tp.SocketTransport(raw)
    t = threading.Thread(target=near.send, args=(frame(BIG),))
    t.start()
    got = far.recv(timeout=5)
    t.join(timeout=5)
    assert not t.is_alive()
    near.close()
    far.close()
    assert got == frame(BIG)


def test_socket_frame_from_a_peer_writing_small_chunks():
    near, raw = socket_pair()
    data = encode_header(frame(BIG)) + BIG

    def trickle():
        for i in range(0, len(data), 4093):
            raw.sendall(data[i : i + 4093])

    t = threading.Thread(target=trickle)
    t.start()
    got = near.recv(timeout=5)
    t.join(timeout=5)
    assert not t.is_alive()
    near.close()
    raw.close()
    assert got == frame(BIG)


# --- faults: a peer's bytes never hang or exhaust the receiver ---------------------


def header(payload_len):
    return encode_header(frame(b""))[: HEADER_SIZE - 8] + struct.pack("<Q", payload_len)


def test_oversize_declared_length_is_a_codec_error():
    near, raw = socket_pair()
    raw.sendall(header(tp.MAX_PAYLOAD + 1))
    with pytest.raises(CodecError):
        near.recv(timeout=5)
    near.close()
    raw.close()


def test_oversize_declared_length_gets_malformed_then_hang_up():
    link, raw = socket_pair()
    t = threading.Thread(target=ServerParty().serve_loop, args=(link,), kwargs={"timeout": 5})
    t.start()
    raw.sendall(header(2**63))
    peer = tp.SocketTransport(raw)
    reply = peer.recv(timeout=5)
    t.join(timeout=5)
    assert not t.is_alive()
    link.close()
    assert reply.msg_type is MsgType.ERROR
    assert decode_error_payload(reply.payload)[0] == ErrorCode.MALFORMED
    with pytest.raises(TransportError):
        peer.recv(timeout=5)
    peer.close()


@pytest.mark.parametrize(
    "sent",
    [
        pytest.param(header(100)[:10], id="truncated-header"),
        pytest.param(header(100) + bytes(40), id="closed-mid-payload"),
    ],
)
def test_peer_closing_inside_a_frame_raises_transport_error(sent):
    near, raw = socket_pair()
    raw.sendall(sent)
    raw.close()
    with pytest.raises(TransportError):
        near.recv(timeout=5)
    near.close()
