"""Pluggable point-to-point channels carrying encoded frames.

Two implementations: an in-process queue pair for tests/simulation and a
TCP byte stream framed by the header's payload length. Both can inject a
fixed per-message delay to model network latency.

Neither copies a large payload on its way through: the TCP sender hands the
header and the payload to one `sendmsg` call, the receiver reads the payload
into one buffer, and the in-process channel passes the payload object itself.
"""

import queue
import socket
import time

from .errors import CodecError, TransportError
from .wire import (
    HEADER_SIZE,
    Frame,
    decode_header,
    encode_header,
    frame_from_parts,
)

_CLOSED = object()

# Largest payload a peer may declare. The receiver allocates the whole payload
# before reading it, so an unchecked length would let a peer demand any amount
# of memory; the largest deploy measured is 121.6 MB.
MAX_PAYLOAD = 512 * 2**20
# Most rows one sequence may reach on a server link: a prefill's n, or a
# decode step's start + n. Inside that frame cap a request of a few MiB may
# carry thousands of rows, and a causal prefill's attention holds about
# 25·n² bytes (103 MiB at n = 2 048, 398 MiB at 4 096), so n must be bounded
# before any forward pass. perfbench's longest sequence, desk-decode's, is
# 16 + 256 rows.
MAX_ROWS = 2048


class InProcTransport:
    """One endpoint of an in-process channel.

    The header round-trips the codec; the payload object is handed over as is,
    so a sender must not change a payload after sending it.
    """

    def __init__(self, send_q, recv_q, latency=0.0):
        self._send_q = send_q
        self._recv_q = recv_q
        self.latency = latency
        self._closed = False

    def send(self, frame):
        if self._closed:
            raise TransportError("send on closed transport")
        if self.latency:
            time.sleep(self.latency)
        self._send_q.put((encode_header(frame), frame.payload))

    def recv(self, timeout=None):
        try:
            item = self._recv_q.get(timeout=timeout)
        except queue.Empty:
            raise TransportError("recv timed out") from None
        if item is _CLOSED:
            raise TransportError("channel closed by peer")
        return frame_from_parts(*item)

    def close(self):
        if not self._closed:
            self._closed = True
            self._send_q.put(_CLOSED)


def inproc_pair(latency=0.0):
    """Two connected in-process endpoints."""
    a_to_b = queue.Queue()
    b_to_a = queue.Queue()
    return (
        InProcTransport(a_to_b, b_to_a, latency),
        InProcTransport(b_to_a, a_to_b, latency),
    )


class SocketTransport:
    """Length-prefixed frames over a connected stream socket."""

    def __init__(self, sock, latency=0.0):
        self._sock = sock
        self.latency = latency

    def send(self, frame):
        if self.latency:
            time.sleep(self.latency)
        try:
            self._send_parts(encode_header(frame), frame.payload)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _send_parts(self, *parts):
        """sendall over several buffers without joining them."""
        views = [memoryview(p).cast("B") for p in parts]
        while views:
            sent = self._sock.sendmsg(views)
            while views and sent >= len(views[0]):
                sent -= len(views.pop(0))
            if views:
                views[0] = views[0][sent:]

    def _read_exact(self, n, what):
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                k = self._sock.recv_into(view[got:])
            except socket.timeout:
                raise TransportError("recv timed out") from None
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not k:
                raise TransportError(f"channel closed while reading {what}")
            got += k
        return buf

    def recv(self, timeout=None):
        """Next frame; a header declaring more than MAX_PAYLOAD raises CodecError."""
        self._sock.settimeout(timeout)
        header = self._read_exact(HEADER_SIZE, "frame header")
        msg_type, epoch, session_id, payload_len = decode_header(header)
        if payload_len > MAX_PAYLOAD:
            raise CodecError(
                f"declared payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
            )
        payload = self._read_exact(payload_len, "frame payload") if payload_len else b""
        return Frame(msg_type, epoch, session_id, payload)

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def listen(host="127.0.0.1", port=0):
    """Bound, listening server socket (port 0 = ephemeral)."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen()
    return srv


def accept(server_sock, latency=0.0, timeout=None):
    server_sock.settimeout(timeout)
    try:
        conn, _ = server_sock.accept()
    except socket.timeout:
        raise TransportError("accept timed out") from None
    return SocketTransport(conn, latency)


def connect(host, port, latency=0.0, timeout=5.0):
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
    sock.settimeout(None)
    return SocketTransport(sock, latency)
