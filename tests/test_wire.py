"""Length-prefixed wire frames and payload codecs."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stip.errors import CodecError
from stip.wire import (
    HEADER_SIZE,
    MATRIX_PREFIX_SIZE,
    WIRE_MAGIC,
    WIRE_VERSION,
    ErrorCode,
    Frame,
    MsgType,
    ReplyMode,
    decode_error_payload,
    decode_header,
    decode_infer_request,
    decode_matrix,
    decode_rekey_payload,
    encode_error_payload,
    encode_header,
    encode_matrix,
    frame_from_parts,
    make_ack,
    make_deploy_keys,
    make_deploy_model,
    make_error,
    make_infer_request,
    make_infer_response,
    make_rekey,
)

F32 = np.float32


def encoded(frame):
    """A frame's bytes on the wire: its header, then its payload."""
    return encode_header(frame) + bytes(frame.payload)


def decoded(raw):
    return frame_from_parts(raw[:HEADER_SIZE], raw[HEADER_SIZE:])


def test_header_size():
    assert HEADER_SIZE == 31
    assert MATRIX_PREFIX_SIZE == 8


def test_frame_bytes_match_struct_oracle():
    frame = Frame(msg_type=MsgType.ACK, epoch=5, session_id=7, payload=b"")
    raw = encoded(frame)
    oracle = struct.pack("<4sHBQQQ", WIRE_MAGIC, WIRE_VERSION, int(MsgType.ACK), 5, 7, 0)
    assert raw == oracle


@pytest.mark.parametrize("start", [0, 6], ids=["prefill", "step"])
def test_top1_request_frames_match_struct_oracle(start):
    x = np.arange(6, dtype=F32).reshape(2, 3)
    req = make_infer_request(x, 5, 7, start=start, mode=ReplyMode.TOP1)
    payload = struct.pack("<II6fII", 2, 3, *range(6), start, ReplyMode.TOP1)
    head = struct.pack(
        "<4sHBQQQ", WIRE_MAGIC, WIRE_VERSION, int(MsgType.INFER_REQUEST), 5, 7, 40
    )
    assert encoded(req) == head + payload


def test_frame_round_trip_each_type():
    for mt in MsgType:
        frame = Frame(msg_type=mt, epoch=3, session_id=11, payload=b"xyz")
        again = decoded(encoded(frame))
        assert again == frame


def test_decode_rejects_bad_magic():
    raw = bytearray(encoded(Frame(MsgType.ACK, 1, 1, b"")))
    raw[:4] = b"ABCD"
    with pytest.raises(CodecError):
        decode_header(bytes(raw))


def test_decode_rejects_bad_version():
    raw = bytearray(encoded(Frame(MsgType.ACK, 1, 1, b"")))
    raw[4:6] = struct.pack("<H", 250)
    with pytest.raises(CodecError):
        decode_header(bytes(raw))


def test_decode_rejects_unknown_type():
    raw = bytearray(encoded(Frame(MsgType.ACK, 1, 1, b"")))
    raw[6] = 99
    with pytest.raises(CodecError):
        decode_header(bytes(raw))


def test_decode_rejects_truncated_header():
    raw = encoded(Frame(MsgType.ACK, 1, 1, b""))
    with pytest.raises(CodecError):
        decode_header(raw[: HEADER_SIZE - 3])


def test_decode_rejects_length_mismatch():
    raw = encoded(Frame(MsgType.ERROR, 1, 1, b"abcd"))
    with pytest.raises(CodecError):
        decoded(raw[:-1])
    with pytest.raises(CodecError):
        decoded(raw + b"!")


def test_matrix_codec_round_trip():
    x = np.random.default_rng(0).normal(size=(3, 5)).astype(F32)
    blob = encode_matrix(x)
    rows, cols = struct.unpack_from("<II", blob, 0)
    assert (rows, cols) == (3, 5)
    assert np.array_equal(decode_matrix(blob), x)


def test_matrix_codec_neg_inf_mapping():
    x = np.array([[0.0, -np.inf], [1.0, -np.inf]], dtype=F32)
    blob = encode_matrix(x)
    # the wire bytes hold only finite values
    payload = np.frombuffer(blob[MATRIX_PREFIX_SIZE:], dtype="<f4")
    assert np.isfinite(payload).all()
    back = decode_matrix(blob)
    assert np.isneginf(back[0, 1]) and np.isneginf(back[1, 1])
    assert back[0, 0] == 0.0 and back[1, 0] == 1.0


def test_matrix_codec_length_validation():
    x = np.ones((2, 2), dtype=F32)
    blob = encode_matrix(x)
    with pytest.raises(CodecError):
        decode_matrix(blob[:-2])
    with pytest.raises(CodecError):
        decode_matrix(blob + b"\x00" * 4)


def test_error_payload_round_trip():
    blob = encode_error_payload(ErrorCode.STALE_EPOCH, "epoch 3 is retired")
    code, detail = decode_error_payload(blob)
    assert code == ErrorCode.STALE_EPOCH
    assert detail == "epoch 3 is retired"


def test_error_payload_unknown_code_stays_an_int():
    code, detail = decode_error_payload(struct.pack("<H", 77) + b"later")
    assert code == 77 and not isinstance(code, ErrorCode) and detail == "later"


@pytest.mark.parametrize(
    "detail", [b"\xff\xfe", b"ok \xc3", "é".encode("utf-8")[:1]], ids=["bom", "cut2", "cut1"]
)
def test_error_payload_non_utf8_detail_is_codec_error(detail):
    with pytest.raises(CodecError):
        decode_error_payload(struct.pack("<H", ErrorCode.INTERNAL) + detail)


def test_rekey_payload_round_trip():
    frame = make_rekey(new_epoch=4, retiring_epoch=3, session_id=8)
    assert frame.epoch == 4
    assert decode_rekey_payload(frame.payload) == 3


def test_make_helpers_set_types():
    x = np.ones((2, 3), dtype=F32)
    assert make_deploy_model(b"blob", 1, 2).msg_type is MsgType.DEPLOY_MODEL
    assert make_deploy_keys(b"keys", 1, 2).msg_type is MsgType.DEPLOY_KEYS
    req = make_infer_request(x, 1, 2)
    assert req.msg_type is MsgType.INFER_REQUEST
    assert np.array_equal(decode_infer_request(req.payload)[0], x)
    assert make_infer_response(x, 1, 2).msg_type is MsgType.INFER_RESPONSE
    err = make_error(ErrorCode.MALFORMED, "bad", 1, 2)
    assert err.msg_type is MsgType.ERROR
    assert make_ack(1, 2).msg_type is MsgType.ACK


# bounded away from float32-min, which is the reserved -inf sentinel on the wire
_F32_BOUND = float(np.float32(1e38))


@given(
    arrays(
        F32,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(-_F32_BOUND, _F32_BOUND, width=32),
    )
)
def test_matrix_round_trip_property(x):
    assert np.array_equal(decode_matrix(encode_matrix(x)), x)


def test_matrix_sentinel_boundary_documented():
    # float32-min itself is the -inf sentinel: it decodes back as -inf.
    x = np.array([[np.finfo(np.float32).min]], dtype=F32)
    assert np.isneginf(decode_matrix(encode_matrix(x))[0, 0])


@given(
    st.sampled_from(list(MsgType)),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.binary(max_size=64),
)
def test_frame_round_trip_property(mt, epoch, session, payload):
    frame = Frame(msg_type=mt, epoch=epoch, session_id=session, payload=payload)
    raw = encoded(frame)
    assert decoded(raw) == frame
    assert encoded(decoded(raw)) == raw
