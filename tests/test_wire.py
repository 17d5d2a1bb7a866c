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
    parse_infer_request,
    request_dims,
    resolve_rows,
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


# --- INFER_REQUEST: rows sent by reference ------------------------------------------


def test_all_literal_request_keeps_its_exact_bytes():
    x = np.array([[1.0, -2.0, 0.5], [-np.inf, 3.25, 0.0]], dtype=F32)
    req = make_infer_request(x, 3, 9, start=4, mode=ReplyMode.TOP1)
    assert encoded(req).hex() == (
        "535449500100030300000000000000090000000000000028000000000000000200"
        "0000030000000000803f000000c00000003fffff7fff0000504000000000040000"
        "0001000000"
    )
    assert request_dims(req.payload) == (2, 3, 0)


@given(
    d=st.integers(1, 5),
    start=st.integers(0, 4),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_request_with_references_round_trips(d, start, n, seed, data):
    """Each row is literal (-1) or a copy of a held row or an earlier one."""
    rng = np.random.default_rng(seed)
    held = rng.normal(size=(start, d)).astype(F32)
    seq = list(held)
    refs = []
    for pos in range(start, start + n):
        source = data.draw(st.integers(-1, pos - 1), label=f"source of {pos}")
        if source < 0:
            seq.append(rng.normal(size=d).astype(F32))
        else:
            seq.append(seq[source])
            refs.append((pos, source))
    x = np.array(seq[start:], dtype=F32).reshape(n, d)
    req = make_infer_request(x, 1, 2, start=start, mode=ReplyMode.TOP1, refs=refs)
    literal = n - len(refs)
    block = 4 + 8 * len(refs) if refs else 0
    assert len(req.payload) == MATRIX_PREFIX_SIZE + 4 * literal * d + 8 + block
    assert request_dims(req.payload) == (n, d, len(refs))
    literal_rows, got_start, mode, got_refs = parse_infer_request(req.payload)
    assert (got_start, mode) == (start, ReplyMode.TOP1)
    assert [tuple(pair) for pair in got_refs.tolist()] == refs
    got = resolve_rows(literal_rows, start, got_refs, held)
    assert got.tobytes() == x.tobytes()
    if not refs:
        assert req.payload == make_infer_request(x, 1, 2, start, ReplyMode.TOP1).payload


def test_a_prefill_referencing_its_own_rows_decodes_without_held_rows():
    x = np.array([[1, 2], [3, 4], [1, 2], [1, 2]], dtype=F32)
    req = make_infer_request(x, 1, 2, refs=[(2, 0), (3, 0)])
    assert len(req.payload) == MATRIX_PREFIX_SIZE + 4 * 2 * 2 + 8 + 4 + 2 * 8
    assert np.array_equal(decode_infer_request(req.payload)[0], x)


def test_a_reference_to_a_row_the_reader_lacks_is_codec_error():
    step = make_infer_request(np.ones((1, 2), F32), 1, 2, start=3, refs=[(3, 1)])
    with pytest.raises(CodecError):
        decode_infer_request(step.payload)
    literal, start, _, refs = parse_infer_request(step.payload)
    with pytest.raises(CodecError):
        resolve_rows(literal, start, refs, np.ones((1, 2), F32))
    held = np.arange(6, dtype=F32).reshape(3, 2)
    assert np.array_equal(resolve_rows(literal, start, refs, held), held[1:2])


def _request_with_block(block, start=4, literal_rows=1, d=2):
    x = np.ones((literal_rows, d), F32)
    return encode_matrix(x) + struct.pack("<II", start, ReplyMode.TOP1) + block


def _pairs(*pairs):
    return struct.pack(f"<{2 * len(pairs)}I", *(v for p in pairs for v in p))


@pytest.mark.parametrize(
    "block",
    [
        pytest.param(b"\x01\x00", id="truncated_count"),
        pytest.param(struct.pack("<I", 1) + _pairs((5, 4))[:5], id="truncated_pair"),
        pytest.param(struct.pack("<I", 2) + _pairs((5, 4)), id="count_above_pairs"),
        pytest.param(struct.pack("<I", 1) + _pairs((5, 4), (6, 4)), id="count_below_pairs"),
        pytest.param(struct.pack("<I", 0), id="count_zero"),
        pytest.param(struct.pack("<I", 2) + _pairs((5, 4), (5, 4)), id="duplicate_position"),
        pytest.param(struct.pack("<I", 2) + _pairs((6, 4), (5, 4)), id="descending"),
        pytest.param(struct.pack("<I", 1) + _pairs((5, 5)), id="source_at_position"),
        pytest.param(struct.pack("<I", 1) + _pairs((5, 6)), id="source_after_position"),
        pytest.param(struct.pack("<I", 1) + _pairs((3, 0)), id="position_before_start"),
        pytest.param(struct.pack("<I", 1) + _pairs((6, 0)), id="position_past_rows"),
    ],
)
def test_malformed_reference_block_is_codec_error(block):
    raw = _request_with_block(block)
    with pytest.raises(CodecError):
        literal, start, _, refs = parse_infer_request(raw)
        resolve_rows(literal, start, refs, np.ones((4, 2), F32))
    with pytest.raises(CodecError):
        decode_infer_request(raw)


def test_well_formed_reference_block_parses():
    raw = _request_with_block(struct.pack("<I", 1) + _pairs((5, 4)))
    literal, start, mode, refs = parse_infer_request(raw)
    assert literal.shape == (1, 2) and (start, mode) == (4, ReplyMode.TOP1)
    assert refs.tolist() == [[5, 4]]
    held = np.zeros((4, 2), F32)
    assert resolve_rows(literal, start, refs, held).tolist() == [[1, 1], [1, 1]]


def test_a_large_reference_count_is_read_without_unpacking_its_pairs():
    count = 2**20
    block = struct.pack("<I", count) + bytes(8 * count)
    raw = _request_with_block(block, start=0, literal_rows=0)
    assert request_dims(raw) == (count, 2, count)
    literal, _, _, refs = parse_infer_request(raw)
    assert refs.shape == (count, 2) and refs.base is not None  # a view, no copy
    with pytest.raises(CodecError):
        resolve_rows(literal, 0, refs)  # its first pair names itself
