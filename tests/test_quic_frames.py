"""Frame codec tests: roundtrips, registry behaviour, edge cases."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic import frames as F
from repro.quic.errors import FrameEncodingError
from repro.quic.wire import Buffer, RangeSet


def roundtrip(frame):
    registry = F.FrameRegistry()
    data = frame.to_bytes()
    frame_type, parsed = registry.parse_one(Buffer(data))
    return frame_type, parsed


class TestRoundtrips:
    def test_ping(self):
        t, parsed = roundtrip(F.PingFrame())
        assert t == F.PING
        assert isinstance(parsed, F.PingFrame)

    def test_ack_single_range(self):
        ranges = RangeSet([range(0, 11)])
        t, parsed = roundtrip(F.AckFrame(ranges=ranges, ack_delay=0.001))
        assert t == F.ACK
        assert parsed.ranges == ranges
        assert parsed.ack_delay == pytest.approx(0.001)

    def test_ack_multiple_ranges(self):
        ranges = RangeSet([range(0, 3), range(7, 9), range(20, 21)])
        _, parsed = roundtrip(F.AckFrame(ranges=ranges))
        assert parsed.ranges == ranges

    def test_ack_empty_rejected(self):
        with pytest.raises(FrameEncodingError):
            F.AckFrame(ranges=RangeSet()).to_bytes()

    def test_crypto(self):
        _, parsed = roundtrip(F.CryptoFrame(offset=100, data=b"tls bytes"))
        assert parsed.offset == 100
        assert parsed.data == b"tls bytes"

    def test_stream_all_flag_combinations(self):
        for offset in (0, 1234):
            for fin in (False, True):
                frame = F.StreamFrame(stream_id=4, offset=offset,
                                      data=b"abc", fin=fin)
                _, parsed = roundtrip(frame)
                assert parsed.stream_id == 4
                assert parsed.offset == offset
                assert parsed.data == b"abc"
                assert parsed.fin == fin

    def test_stream_empty_fin(self):
        _, parsed = roundtrip(F.StreamFrame(stream_id=0, offset=10, data=b"", fin=True))
        assert parsed.data == b""
        assert parsed.fin

    def test_max_data(self):
        _, parsed = roundtrip(F.MaxDataFrame(maximum=1 << 20))
        assert parsed.maximum == 1 << 20

    def test_max_stream_data(self):
        _, parsed = roundtrip(F.MaxStreamDataFrame(stream_id=8, maximum=999))
        assert (parsed.stream_id, parsed.maximum) == (8, 999)

    def test_reset_stream(self):
        _, parsed = roundtrip(F.ResetStreamFrame(stream_id=4, error_code=7, final_size=100))
        assert (parsed.stream_id, parsed.error_code, parsed.final_size) == (4, 7, 100)

    def test_connection_close(self):
        _, parsed = roundtrip(F.ConnectionCloseFrame(error_code=0x0A, reason="bye"))
        assert parsed.error_code == 0x0A
        assert parsed.reason == "bye"

    def test_path_challenge_response(self):
        _, c = roundtrip(F.PathChallengeFrame(data=b"12345678"))
        assert c.data == b"12345678"
        _, r = roundtrip(F.PathResponseFrame(data=b"abcdefgh"))
        assert r.data == b"abcdefgh"

    def test_new_connection_id(self):
        _, parsed = roundtrip(F.NewConnectionIdFrame(sequence=3, connection_id=b"\x01" * 8))
        assert parsed.sequence == 3
        assert parsed.connection_id == b"\x01" * 8

    def test_padding_run(self):
        buf = Buffer(b"\x00" * 7 + F.PingFrame().to_bytes())
        registry = F.FrameRegistry()
        t, pad = registry.parse_one(buf)
        assert t == F.PADDING
        assert pad.length == 7
        t2, _ = registry.parse_one(buf)
        assert t2 == F.PING


class TestAckElicitation:
    def test_non_eliciting_types(self):
        assert not F.AckFrame(ranges=RangeSet([range(0, 1)])).ack_eliciting
        assert not F.PaddingFrame().ack_eliciting
        assert not F.ConnectionCloseFrame(error_code=0).ack_eliciting

    def test_eliciting_types(self):
        assert F.PingFrame().ack_eliciting
        assert F.StreamFrame(stream_id=0, data=b"x").ack_eliciting
        assert F.MaxDataFrame(maximum=1).ack_eliciting

    def test_retransmittable_defaults_to_eliciting(self):
        assert F.StreamFrame(stream_id=0, data=b"x").retransmittable
        assert not F.PaddingFrame().retransmittable


class TestRegistry:
    def test_unknown_frame_type_raises(self):
        registry = F.FrameRegistry()
        with pytest.raises(FrameEncodingError):
            registry.parse_one(Buffer(bytes([0x3F])))

    def test_register_extension_frame(self):
        class NoopFrame(F.Frame):
            type = 0x3F

            def serialize(self, buf):
                buf.push_varint(self.type)

            @classmethod
            def parse(cls, buf, frame_type):
                return cls()

        registry = F.FrameRegistry()
        registry.register(0x3F, NoopFrame)
        t, parsed = registry.parse_one(Buffer(bytes([0x3F])))
        assert t == 0x3F
        assert isinstance(parsed, NoopFrame)
        registry.unregister(0x3F)
        assert not registry.known(0x3F)

    def test_parse_all_multiple_frames(self):
        payload = (
            F.PingFrame().to_bytes()
            + F.MaxDataFrame(maximum=5).to_bytes()
            + F.StreamFrame(stream_id=0, data=b"hi", fin=True).to_bytes()
        )
        parsed = F.FrameRegistry().parse_all(payload)
        assert [t for t, _ in parsed] == [F.PING, F.MAX_DATA, 0x0B]


@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(1, 50)),
        min_size=1, max_size=20,
    ),
    st.floats(min_value=0, max_value=1.0),
)
def test_ack_roundtrip_property(spans, delay):
    ranges = RangeSet()
    for start, length in spans:
        ranges.add(start, start + length)
    _, parsed = roundtrip(F.AckFrame(ranges=ranges, ack_delay=delay))
    assert parsed.ranges == ranges
    assert parsed.ack_delay == pytest.approx(delay, abs=1e-5)


@given(st.integers(0, 1000), st.integers(0, 100_000), st.binary(max_size=500),
       st.booleans())
def test_stream_roundtrip_property(stream_id, offset, data, fin):
    frame = F.StreamFrame(stream_id=stream_id * 4, offset=offset, data=data, fin=fin)
    _, parsed = roundtrip(frame)
    assert parsed.stream_id == stream_id * 4
    assert parsed.offset == offset
    assert parsed.data == data
    assert parsed.fin == fin


def _parse_ack_by_add(buf):
    """ACK parse inserting each range into a RangeSet as it is decoded
    (descending order), the reference for the one-pass parse."""
    largest = buf.pull_varint()
    buf.pull_varint()
    count = buf.pull_varint()
    first_len = buf.pull_varint()
    ranges = RangeSet()
    end = largest + 1
    start = end - first_len - 1
    if start < 0:
        raise FrameEncodingError("ACK first range underflows")
    ranges.add(start, end)
    for _ in range(count):
        gap = buf.pull_varint()
        length = buf.pull_varint()
        end = start - gap - 1
        start = end - length - 1
        if start < 0:
            raise FrameEncodingError("ACK range underflows")
        ranges.add(start, end)
    return ranges


@given(
    st.integers(0, 1 << 20),
    st.integers(0, 1 << 10),
    st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
             max_size=40),
)
def test_ack_parse_matches_rangeset_add(largest, first_len, blocks):
    buf = Buffer()
    for value in (largest, 0, len(blocks), first_len):
        buf.push_varint(value)
    for gap, length in blocks:
        buf.push_varint(gap)
        buf.push_varint(length)
    data = buf.data()
    try:
        expected = _parse_ack_by_add(Buffer(data))
    except FrameEncodingError as exc:
        with pytest.raises(FrameEncodingError, match=str(exc)):
            F.AckFrame.parse(Buffer(data), F.ACK)
        return
    parsed = F.AckFrame.parse(Buffer(data), F.ACK)
    assert parsed.ranges == expected
    assert parsed.ranges.descending() == expected.descending()


def _padding_by_byte_loop(buf):
    """The byte-at-a-time PADDING parse: the reference for skip_zeros."""
    length = 1
    while not buf.eof():
        if buf.pull_uint8() == 0:
            length += 1
        else:
            buf.seek(buf.position - 1)
            break
    return length


@given(st.binary(max_size=8), st.integers(0, 1500),
       st.binary(max_size=8), st.sampled_from([bytes, bytearray, memoryview]))
def test_padding_parse_matches_byte_loop(head, zeros, tail, backing):
    data = head + b"\x00" * zeros + tail
    new, old = Buffer(backing(data)), Buffer(backing(data))
    new.seek(len(head))
    old.seek(len(head))
    frame = F.PaddingFrame.parse(new, F.PADDING)
    assert frame.length == _padding_by_byte_loop(old)
    assert new.position == old.position
