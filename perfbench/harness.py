"""The three parties wired over a real transport, driven through public APIs only.

P2 (`ServerParty.serve_loop`) answers on its own threads, one per link. P1 and
P3 are driven from the calling thread: P1 deploys over its link, P3 generates
over its link. The client link is wrapped to timestamp each reply and count
the encoded INFER_REQUEST / INFER_RESPONSE frame bytes.
"""

import threading
import time
from dataclasses import dataclass, field

from stip import wire
from stip.errors import ProtocolError
from stip.protocol import DataOwnerParty, DeveloperParty, ServerParty
from stip.transport import accept, connect, inproc_pair, listen

RECV_TIMEOUT = 30.0


def _expect_ack(frame):
    if frame.msg_type is not wire.MsgType.ACK:
        raise ProtocolError(f"deployment not acknowledged: {frame.msg_type.name}")


def frame_bytes(frame):
    """Encoded size of a frame, from its header size and payload length."""
    return wire.HEADER_SIZE + len(frame.payload)


@dataclass
class Session:
    prompt: list
    tokens: list
    start: float
    end: float
    reply_times: list = field(default_factory=list)
    request_bytes: int = 0
    response_bytes: int = 0
    error_frames: int = 0


class _ClockedLink:
    """Client link that stamps each reply and counts inference frame bytes."""

    def __init__(self, link, session):
        self._link = link
        self._s = session

    def send(self, frame):
        if frame.msg_type is wire.MsgType.INFER_REQUEST:
            self._s.request_bytes += frame_bytes(frame)
        self._link.send(frame)

    def recv(self, timeout=None):
        frame = self._link.recv(timeout=timeout)
        self._s.reply_times.append(time.perf_counter())
        if frame.msg_type is wire.MsgType.INFER_RESPONSE:
            self._s.response_bytes += frame_bytes(frame)
        elif frame.msg_type is wire.MsgType.ERROR:
            self._s.error_frames += 1
        return frame


class ThreeParty:
    """P1, P2 and P3 for one model; P2 serves a P1 link and a P3 link."""

    def __init__(self, params, transport):
        self.p1 = DeveloperParty(params, session_seed=0)
        self.p2 = ServerParty()
        self.p3 = DataOwnerParty(params.embedding, session_seed=1)
        self._threads = []
        self._links = []
        try:
            for _ in range(2):
                self._links.append(self._link(transport))
        except BaseException:
            self.close()
            raise
        self.p1_link, self.p3_link = self._links

    def _link(self, transport):
        """A client endpoint whose far end P2 serves on its own thread."""
        if transport == "inproc":
            near, far = inproc_pair()
            self._serve(far)
            return near
        if transport != "tcp":
            raise ValueError(f"unknown transport {transport!r}")
        srv = listen("127.0.0.1", 0)
        try:
            near = connect(*srv.getsockname()[:2])
            try:
                self._serve(accept(srv, timeout=RECV_TIMEOUT))
            except BaseException:
                near.close()
                raise
            return near
        finally:
            srv.close()

    def _serve(self, conn):
        def loop():
            try:
                self.p2.serve_loop(conn, timeout=None)
            finally:
                conn.close()

        t = threading.Thread(target=loop, name="P2", daemon=True)
        t.start()
        self._threads.append(t)

    def deploy(self, key_seed):
        """P1 (re-)keys and deploys; returns once P2 and P3 have both acked."""
        if self.p1.pset is None:
            to_p2, to_p3 = self.p1.initialize(key_seed)
        else:
            to_p2, to_p3 = self.p1.rekey(key_seed)
        self.p1_link.send(to_p2)
        _expect_ack(self.p1_link.recv(timeout=RECV_TIMEOUT))
        _expect_ack(self.p3.handle_deploy_keys(to_p3))

    def session(self, prompt, new_tokens):
        """One greedy generation by P3; reply times and frame bytes recorded."""
        s = Session(prompt=list(prompt), tokens=[], start=0.0, end=0.0)
        link = _ClockedLink(self.p3_link, s)
        s.start = time.perf_counter()
        s.tokens = self.p3.generate(prompt, new_tokens, link, timeout=RECV_TIMEOUT)
        s.end = time.perf_counter()
        return s

    def close(self):
        for link in self._links:
            link.close()
        for t in self._threads:
            t.join(timeout=RECV_TIMEOUT)
        alive = [t for t in self._threads if t.is_alive()]
        if alive:
            raise RuntimeError(f"{len(alive)} server threads did not stop")
