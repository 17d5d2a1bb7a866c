"""Byte-exact protocol frames exchanged among the three parties.

Frame header (little-endian, 31 bytes): magic "STIP", version u16, msg_type u8,
epoch u64, session_id u64, payload_len u64. The payload encoding depends on the
message type; matrices travel as (rows u32, cols u32, f32 row-major).

An INFER_REQUEST payload is the matrix x′, then an 8-byte trailer: u32
`start`, the number of rows the server must already hold for this link (0 for
a prefill), and u32 reply mode. A request of n rows covers sequence positions
start … start + n − 1. A row may travel as a reference to a row of the
link's row table instead: the table holds, in order, every row the client's
session sent literally at this epoch, up to a cap. Then the matrix holds only
the literal rows, in order, and a reference block follows the trailer: u32
count r >= 1, u32 `size`, the number of rows the session sent literally
before this request, then r pairs (u32 position, u32 source), positions
ascending and inside the request. A source is a table index; this request's
own literal rows take the indices from `size` on, so a reference may name
an earlier row of the request. So n = the matrix's rows + r, and a request
with no reference has no block: its bytes are those of the all-literal
encoding.

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
_REF_HEAD = struct.Struct("<II")  # count r, then the rows sent before the request
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


def make_infer_request(
    x, epoch, session_id, start=0, mode=ReplyMode.ALL, refs=(), size=0
):
    """Rows x of a sequence; start > 0 says the server already holds `start` rows.

    `refs` holds (position, source) pairs, positions ascending: x's row at
    sequence position `position` equals row `source` of the link's row table,
    and travels as that reference, not as its 4·d bytes. `size` is the number
    of rows the session sent literally before this request. With no pair the
    payload is the all-literal one, byte for byte.
    """
    if refs:
        at = {pos - start for pos, _ in refs}
        keep = [i for i in range(len(x)) if i not in at]
        literal = np.asarray(x)[keep] if keep else np.asarray(x)[:0]
        flat = [v for pair in refs for v in pair]
        block = struct.pack(f"<II{len(flat)}I", len(refs), size, *flat)
    else:
        literal, block = x, b""
    payload = encode_matrix(literal) + _REQUEST_TRAILER.pack(start, mode) + block
    return Frame(MsgType.INFER_REQUEST, epoch, session_id, payload)


def request_dims(raw):
    """(n, d, r) of an INFER_REQUEST payload: its rows, their width and how
    many of them travel by reference, read without decoding a value."""
    rows, cols = matrix_dims(raw)
    end = MATRIX_PREFIX_SIZE + 4 * rows * cols + _REQUEST_TRAILER.size
    r = _REF_HEAD.unpack_from(raw, end)[0] if len(raw) >= end + _REF_HEAD.size else 0
    return rows + r, cols, r


def parse_infer_request(raw):
    """INFER_REQUEST payload -> (literal rows, start, mode, refs, size).

    `refs` is an (r, 2) array of (position, source) pairs, a view into the
    payload, and `size` the rows the session sent literally before this
    request (None with no reference). Only the frame's layout is checked
    here, in time independent of r: `resolve_rows` checks the pairs, so a
    reader can bound n = literal rows + r before it spends anything on
    them. A malformed layout raises CodecError.
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
    refs, size = _reference_block(memoryview(raw)[tail:])
    return decode_matrix(memoryview(raw)[:end]), start, mode, refs, size


def _reference_block(block):
    """(pairs, size) of a request's reference block: (r, 2) pairs and the
    rows sent before the request; no pair and None when it is empty."""
    if not len(block):
        return np.empty((0, 2), dtype="<u4"), None
    if len(block) < _REF_HEAD.size:
        raise CodecError(f"reference block of {len(block)} bytes is truncated")
    count, size = _REF_HEAD.unpack_from(block)
    if count == 0:
        raise CodecError("a reference block must name at least one row")
    need = _REF_HEAD.size + _REF_SIZE * count
    if len(block) != need:
        raise CodecError(
            f"reference block is {len(block)} bytes, its count of {count} needs {need}"
        )
    pairs = np.frombuffer(block, dtype="<u4", offset=_REF_HEAD.size).reshape(count, 2)
    return pairs, size


def resolve_rows(literal, start, refs, table, base=0):
    """The request's n×d rows: its literal rows in order, and at each
    (position, source) reference a copy of table row `source`.

    `table` holds the reader's table rows base, base + 1, …, this request's
    kept literal rows included. Positions must ascend inside the request's
    rows, start … start + n − 1, and each source must name a row of `table`;
    otherwise CodecError. The checks are array operations and the referenced
    rows come from one gather. With no reference this is `literal` itself.
    """
    r = len(refs)
    if not r:
        return literal
    n = len(literal) + r
    pos, idx = refs[:, 0], refs[:, 1]
    ascending = r == 1 or not (pos[1:] <= pos[:-1]).any()
    if not (ascending and start <= pos[0] <= pos[-1] < start + n):
        raise CodecError("reference positions must ascend inside the request")
    if base:
        idx = idx.astype(np.int64) - base
        if idx.min() < 0:
            raise CodecError(f"a reference names a row sent before row {base}")
    try:
        rows = table.take(idx, axis=0)
    except IndexError:
        raise CodecError(
            f"a reference names a row past the reader's {base + len(table)} rows"
        ) from None
    if r == n:  # r ascending positions among n: every row, in order
        return rows
    at = pos.astype(np.int64) - start
    is_ref = np.zeros(n, dtype=bool)
    is_ref[at] = True
    x = np.empty((n, literal.shape[1]), dtype=literal.dtype)
    x[~is_ref] = literal
    x[at] = rows
    return x


def decode_infer_request(raw):
    """INFER_REQUEST payload -> (x, start, mode): the inverse of make_infer_request.

    x is the full n×d request. Its literal rows stand for the table rows from
    `size` on, so a reference to one of them resolves here; a reference to a
    row sent before the request needs the reader's table (`parse_infer_request`,
    then `resolve_rows`), and raises CodecError here.
    """
    literal, start, mode, refs, size = parse_infer_request(raw)
    return resolve_rows(literal, start, refs, literal, size), start, mode


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
