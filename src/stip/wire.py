"""Byte-exact protocol frames exchanged among the three parties.

Frame header (little-endian, 31 bytes): magic "STIP", version u16, msg_type u8,
epoch u64, session_id u64, payload_len u64. The payload encoding depends on the
message type; matrices travel as (rows u32, cols u32, f32 row-major).

An INFER_REQUEST payload is the matrix x′, then an 8-byte trailer: u32
`start`, the number of rows the server must already hold for this link (0 for
a prefill), and u32 reply mode. A request of n rows covers sequence positions
start … start + n − 1. A row whose bytes equal an earlier row of the sequence
may travel as a reference to that row's position instead: then the matrix
holds only the other rows, in order, and a reference block follows the
trailer: u32 count r >= 1, then r pairs (u32 position, u32 source), positions
ascending and inside the request, each source before its position. A source
below `start` names a row the server already holds; any other, an earlier row
of the request. So n = the matrix's rows + r, and a request with no reference
has no block: its bytes are those of the all-literal encoding.

The INFER_RESPONSE payload depends on the reply mode the request named:
- ALL: the matrix o′, one softmax row per request row;
- TOP1: u32 count >= 1, then `count` distinct u32 column indices of o′'s
  last row where it equals that row's maximum, ascending.
Either reply is 31 header bytes plus its payload: 8 + 4·rows·s for ALL,
4 + 4·count for TOP1.
"""

import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import CodecError
from .numerics import DTYPE, restore_neg_inf, sanitize_neg_inf

WIRE_MAGIC = b"STIP"
WIRE_VERSION = 1

_HEADER = struct.Struct("<4sHBQQQ")
HEADER_SIZE = _HEADER.size  # 31

_MATRIX_PREFIX = struct.Struct("<II")
MATRIX_PREFIX_SIZE = _MATRIX_PREFIX.size  # 8

_REQUEST_TRAILER = struct.Struct("<II")
_REF_COUNT = struct.Struct("<I")
_REF_SIZE = 8  # one (u32 position, u32 source) pair
_TOP1_COUNT = struct.Struct("<I")
_ERROR_PREFIX = struct.Struct("<H")
_REKEY_PAYLOAD = struct.Struct("<Q")


class MsgType(IntEnum):
    DEPLOY_MODEL = 1
    DEPLOY_KEYS = 2
    INFER_REQUEST = 3
    INFER_RESPONSE = 4
    REKEY = 5
    ERROR = 6
    ACK = 7


class ReplyMode(IntEnum):
    """What an INFER_RESPONSE carries, named by its request."""

    ALL = 0  # o′, one softmax row per request row
    TOP1 = 1  # the permuted indices where o′'s last row equals its maximum


class ErrorCode(IntEnum):
    STALE_EPOCH = 1
    MALFORMED = 2
    UNSUPPORTED = 3
    INTERNAL = 4


@dataclass
class Frame:
    """One message. The payload is any bytes-like object: bytes, a bytearray, or
    the memoryview `container.encode_model` returns."""

    msg_type: MsgType
    epoch: int
    session_id: int
    payload: bytes = field(default=b"", repr=False)


def encode_header(frame):
    """The 31 header bytes of a frame; its payload follows them on the wire."""
    return _HEADER.pack(
        WIRE_MAGIC,
        WIRE_VERSION,
        int(frame.msg_type),
        frame.epoch,
        frame.session_id,
        len(frame.payload),
    )


def decode_header(raw):
    """31 header bytes -> (msg_type, epoch, session_id, payload_len)."""
    if len(raw) != HEADER_SIZE:
        raise CodecError(f"header must be {HEADER_SIZE} bytes, got {len(raw)}")
    magic, version, msg_type, epoch, session_id, payload_len = _HEADER.unpack(raw)
    if magic != WIRE_MAGIC:
        raise CodecError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version}")
    try:
        msg_type = MsgType(msg_type)
    except ValueError:
        raise CodecError(f"unknown message type {msg_type}") from None
    return msg_type, epoch, session_id, payload_len


def frame_from_parts(header, payload):
    """Header bytes and the payload object -> Frame; the length must match exactly."""
    msg_type, epoch, session_id, payload_len = decode_header(header)
    if len(payload) != payload_len:
        raise CodecError(
            f"payload length {len(payload)} != declared {payload_len}"
        )
    return Frame(msg_type, epoch, session_id, payload)


def encode_matrix(m):
    """Matrix -> (rows u32, cols u32, f32 row-major); -inf stored as float32 min."""
    a = np.ascontiguousarray(m, dtype=DTYPE)
    if a.ndim != 2:
        raise CodecError(f"wire matrices are 2-D, got ndim={a.ndim}")
    a = sanitize_neg_inf(a)
    return _MATRIX_PREFIX.pack(a.shape[0], a.shape[1]) + a.tobytes(order="C")


def matrix_dims(raw):
    """(rows, cols) from the 8-byte prefix of a matrix payload, body unread."""
    if len(raw) < MATRIX_PREFIX_SIZE:
        raise CodecError("matrix payload shorter than its dims prefix")
    return _MATRIX_PREFIX.unpack(raw[:MATRIX_PREFIX_SIZE])


def decode_matrix(raw):
    """Inverse of encode_matrix; float32 minimum reads back as -inf.

    The result is a view of `raw`; it is a copy only on a big-endian host or
    when the payload holds the sentinel.
    """
    rows, cols = matrix_dims(raw)
    body = len(raw) - MATRIX_PREFIX_SIZE
    if body != 4 * rows * cols:
        raise CodecError(f"matrix payload is {body} bytes, expected {4 * rows * cols}")
    a = np.frombuffer(raw, dtype="<f4", count=rows * cols, offset=MATRIX_PREFIX_SIZE)
    return restore_neg_inf(a.reshape(rows, cols).astype(DTYPE, copy=False))


def encode_error_payload(code, detail):
    return _ERROR_PREFIX.pack(int(code)) + detail.encode("utf-8")


def decode_error_payload(raw):
    """(code, detail): an ErrorCode, or the raw int for a code this side lacks."""
    if len(raw) < _ERROR_PREFIX.size:
        raise CodecError("error payload shorter than its code")
    (code,) = _ERROR_PREFIX.unpack(raw[: _ERROR_PREFIX.size])
    try:
        code = ErrorCode(code)
    except ValueError:
        pass
    try:
        detail = raw[_ERROR_PREFIX.size :].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"error detail is not UTF-8: {exc.reason}") from None
    return code, detail


def make_deploy_model(model_bytes, epoch, session_id):
    """The container travels as given: a deploy's buffer is never copied here."""
    return Frame(MsgType.DEPLOY_MODEL, epoch, session_id, model_bytes)


def make_deploy_keys(keys_bytes, epoch, session_id):
    return Frame(MsgType.DEPLOY_KEYS, epoch, session_id, bytes(keys_bytes))


def make_infer_request(x, epoch, session_id, start=0, mode=ReplyMode.ALL, refs=()):
    """Rows x of a sequence; start > 0 says the server already holds `start` rows.

    `refs` holds (position, source) pairs, positions ascending: x's row at
    sequence position `position` equals the row at `source`, and travels as
    that reference, not as its 4·d bytes. With no pair the payload is the
    all-literal one, byte for byte.
    """
    if refs:
        at = {pos - start for pos, _ in refs}
        keep = [i for i in range(len(x)) if i not in at]
        literal = np.asarray(x)[keep] if keep else np.asarray(x)[:0]
        flat = [v for pair in refs for v in pair]
        block = struct.pack(f"<I{len(flat)}I", len(refs), *flat)
    else:
        literal, block = x, b""
    payload = encode_matrix(literal) + _REQUEST_TRAILER.pack(start, mode) + block
    return Frame(MsgType.INFER_REQUEST, epoch, session_id, payload)


def request_dims(raw):
    """(n, d, r) of an INFER_REQUEST payload: its rows, their width and how
    many of them travel by reference, read without decoding a value."""
    rows, cols = matrix_dims(raw)
    end = MATRIX_PREFIX_SIZE + 4 * rows * cols + _REQUEST_TRAILER.size
    r = _REF_COUNT.unpack_from(raw, end)[0] if len(raw) >= end + _REF_COUNT.size else 0
    return rows + r, cols, r


def parse_infer_request(raw):
    """INFER_REQUEST payload -> (literal rows, start, mode, refs).

    `refs` is an (r, 2) array of (position, source) pairs, a view into the
    payload. Only the frame's layout is checked here, in time independent of
    r: `resolve_rows` checks each pair, so a reader can bound n = literal
    rows + r before it spends anything per pair. A malformed layout raises
    CodecError.
    """
    rows, cols = matrix_dims(raw)
    end = MATRIX_PREFIX_SIZE + 4 * rows * cols
    tail = end + _REQUEST_TRAILER.size
    if len(raw) < tail:
        raise CodecError(
            f"request payload is {len(raw)} bytes, a {rows}x{cols} request "
            f"needs {tail}"
        )
    start, code = _REQUEST_TRAILER.unpack_from(raw, end)
    try:
        mode = ReplyMode(code)
    except ValueError:
        raise CodecError(f"unknown reply mode {code}") from None
    refs = _reference_pairs(memoryview(raw)[tail:])
    return decode_matrix(memoryview(raw)[:end]), start, mode, refs


def _reference_pairs(block):
    """The (r, 2) pairs of a request's reference block; none when it is empty."""
    if not len(block):
        return np.empty((0, 2), dtype="<u4")
    if len(block) < _REF_COUNT.size:
        raise CodecError(f"reference block of {len(block)} bytes is truncated")
    (count,) = _REF_COUNT.unpack_from(block)
    if count == 0:
        raise CodecError("a reference block must name at least one row")
    size = _REF_COUNT.size + _REF_SIZE * count
    if len(block) != size:
        raise CodecError(
            f"reference block is {len(block)} bytes, its count of {count} needs {size}"
        )
    return np.frombuffer(block, dtype="<u4", offset=_REF_COUNT.size).reshape(count, 2)


def resolve_rows(literal, start, refs, held=None):
    """The request's n×d rows: its literal rows in order, and at each
    (position, source) reference a copy of the row it names, one of `held`'s
    rows (those the reader holds, positions 0 … start − 1) or an earlier row
    of the request. With no reference this is `literal` itself.

    Positions must ascend inside the request's rows, start … start + n − 1,
    and each source must come before its position and, below `start`, be
    covered by `held`; otherwise CodecError.
    """
    if not len(refs):
        return literal
    pairs = refs.tolist()
    n = len(literal) + len(pairs)
    last = start - 1
    for pos, source in pairs:
        if not last < pos < start + n:
            raise CodecError(f"reference position {pos} is out of order or outside the request")
        if source >= pos:
            raise CodecError("a reference must name a row before its own position")
        if source < start and (held is None or source >= len(held)):
            raise CodecError(f"a reference names row {source}, which the reader does not hold")
        last = pos
    x = np.empty((n, literal.shape[1]), dtype=literal.dtype)
    if len(literal):
        is_ref = np.zeros(n, dtype=bool)
        is_ref[[pos - start for pos, _ in pairs]] = True
        x[~is_ref] = literal
    for pos, source in pairs:
        x[pos - start] = held[source] if source < start else x[source - start]
    return x


def decode_infer_request(raw):
    """INFER_REQUEST payload -> (x, start, mode): the inverse of make_infer_request.

    x is the full n×d request. A reference to a row before `start` needs the
    rows the reader holds (`parse_infer_request`, then `resolve_rows`), and
    raises CodecError here.
    """
    literal, start, mode, refs = parse_infer_request(raw)
    return resolve_rows(literal, start, refs), start, mode


def make_infer_response(o, epoch, session_id):
    return Frame(MsgType.INFER_RESPONSE, epoch, session_id, encode_matrix(o))


def make_top1_response(indices, epoch, session_id):
    """TOP1 reply: the count, then each permuted index as a u32, ascending."""
    idx = np.asarray(indices, dtype="<u4")
    payload = _TOP1_COUNT.pack(idx.size) + idx.tobytes()
    return Frame(MsgType.INFER_RESPONSE, epoch, session_id, payload)


def decode_top1_response(raw, classes):
    """TOP1 reply payload -> its indices: ascending, distinct, each below `classes`."""
    if len(raw) < _TOP1_COUNT.size:
        raise CodecError("top1 reply shorter than its count")
    (count,) = _TOP1_COUNT.unpack_from(raw)
    if count == 0:
        raise CodecError("top1 reply names no index")
    size = _TOP1_COUNT.size + 4 * count
    if len(raw) != size:
        raise CodecError(f"top1 reply is {len(raw)} bytes, its count needs {size}")
    idx = np.frombuffer(raw, dtype="<u4", count=count, offset=_TOP1_COUNT.size)
    if np.any(idx[1:] <= idx[:-1]):
        raise CodecError("top1 indices must be distinct and ascending")
    if idx[-1] >= classes:
        raise CodecError(f"top1 index out of range for {classes} classes")
    return idx.astype(np.intp)


def make_rekey(new_epoch, retiring_epoch, session_id):
    """Epoch-bump notice: header carries the new epoch, payload the retiring one."""
    return Frame(MsgType.REKEY, new_epoch, session_id, _REKEY_PAYLOAD.pack(retiring_epoch))


def decode_rekey_payload(raw):
    if len(raw) != _REKEY_PAYLOAD.size:
        raise CodecError(f"rekey payload must be {_REKEY_PAYLOAD.size} bytes")
    return _REKEY_PAYLOAD.unpack(raw)[0]


def make_error(code, detail, epoch, session_id):
    return Frame(MsgType.ERROR, epoch, session_id, encode_error_payload(code, detail))


def make_ack(epoch, session_id):
    return Frame(MsgType.ACK, epoch, session_id, b"")
