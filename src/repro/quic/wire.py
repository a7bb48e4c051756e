"""Wire-level primitives: variable-length integers, buffers, range sets.

QUIC's framing is built on varints (RFC 9000 §16); the same two-bit length
prefix scheme is used here.  ``Buffer`` is a bounds-checked reader/writer
and ``RangeSet`` tracks packet-number / byte ranges for ACKs and stream
reassembly.
"""

from __future__ import annotations

import bisect
import re
from typing import Iterable, Iterator, Optional

from .errors import FrameEncodingError

VARINT_MAX = (1 << 62) - 1
_NONZERO = re.compile(rb"[^\x00]")


def varint_size(value: int) -> int:
    """Number of bytes the varint encoding of ``value`` occupies."""
    if value < 0 or value > VARINT_MAX:
        raise ValueError(f"varint out of range: {value}")
    if value < 1 << 6:
        return 1
    if value < 1 << 14:
        return 2
    if value < 1 << 30:
        return 4
    return 8


_VARINT_1BYTE = [bytes([v]) for v in range(64)]


def encode_varint(value: int) -> bytes:
    if 0 <= value < 64:
        return _VARINT_1BYTE[value]
    size = varint_size(value)
    prefix = {1: 0x00, 2: 0x40, 4: 0x80, 8: 0xC0}[size]
    data = value.to_bytes(size, "big")
    return bytes([data[0] | prefix]) + data[1:]


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint; returns (value, new_offset)."""
    if offset >= len(data):
        raise FrameEncodingError("varint truncated")
    first = data[offset]
    size = 1 << (first >> 6)
    if offset + size > len(data):
        raise FrameEncodingError("varint truncated")
    value = first & 0x3F
    for i in range(1, size):
        value = (value << 8) | data[offset + i]
    return value, offset + size


class Buffer:
    """A bounds-checked binary reader/writer used by all wire codecs.

    Read-only ingest is zero-copy: a ``bytes`` or ``memoryview`` backing
    is kept as-is and only promoted to a ``bytearray`` on the first
    write, so parsing a datagram never duplicates it.  A ``bytearray``
    input is still copied (the caller keeps ownership of its buffer).
    """

    def __init__(self, data: bytes = b"", capacity: Optional[int] = None):
        if type(data) is bytes or type(data) is memoryview:
            self._data = data
        else:
            self._data = bytearray(data)
        self._pos = 0
        self._capacity = capacity

    def _writable(self) -> bytearray:
        """Promote a read-only backing to a bytearray (copy-on-write)."""
        data = bytearray(self._data)
        self._data = data
        return data

    # --- reading -------------------------------------------------------

    @property
    def position(self) -> int:
        return self._pos

    def seek(self, pos: int) -> None:
        if not 0 <= pos <= len(self._data):
            raise FrameEncodingError(f"seek out of range: {pos}")
        self._pos = pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def eof(self) -> bool:
        return self._pos >= len(self._data)

    def pull_bytes(self, n: int) -> bytes:
        pos = self._pos
        data = self._data
        if n < 0 or pos + n > len(data):
            raise FrameEncodingError(f"read of {n} bytes past end")
        sliced = data[pos:pos + n]
        self._pos = pos + n
        return sliced if type(sliced) is bytes else bytes(sliced)

    def pull_view(self, n: int) -> memoryview:
        """Zero-copy read: a memoryview over the next ``n`` bytes.

        The view aliases the backing store; it stays valid as long as the
        backing outlives it and no write promotes/clears the buffer.
        """
        pos = self._pos
        if n < 0 or pos + n > len(self._data):
            raise FrameEncodingError(f"read of {n} bytes past end")
        self._pos = pos + n
        return memoryview(self._data)[pos:pos + n]

    def skip_zeros(self) -> int:
        """Skip the run of zero bytes at the read position and return
        its length: one C-level scan, without copying the tail."""
        pos = self._pos
        match = _NONZERO.search(self._data, pos)
        self._pos = match.start() if match else len(self._data)
        return self._pos - pos

    def pull_uint8(self) -> int:
        return self.pull_bytes(1)[0]

    def pull_uint16(self) -> int:
        return int.from_bytes(self.pull_bytes(2), "big")

    def pull_uint32(self) -> int:
        return int.from_bytes(self.pull_bytes(4), "big")

    def pull_uint64(self) -> int:
        return int.from_bytes(self.pull_bytes(8), "big")

    def pull_varint(self) -> int:
        value, self._pos = decode_varint(self._data, self._pos)
        return value

    def pull_varint_prefixed_bytes(self) -> bytes:
        return self.pull_bytes(self.pull_varint())

    # --- writing -------------------------------------------------------

    def clear(self) -> None:
        """Reset to empty for reuse, keeping the backing bytearray's
        allocation (hot encode paths reuse one Buffer per packet)."""
        data = self._data
        if type(data) is bytearray:
            del data[:]
        else:
            self._data = bytearray()
        self._pos = 0

    def push_bytes(self, data) -> None:
        """Append ``data`` — bytes, bytearray or memoryview (no copy is
        made of the source beyond the append itself)."""
        buf = self._data
        if type(buf) is not bytearray:
            buf = self._writable()
        if self._capacity is not None and len(buf) + len(data) > self._capacity:
            raise FrameEncodingError("buffer capacity exceeded")
        buf.extend(data)

    def push_uint8(self, v: int) -> None:
        if self._capacity is None:
            buf = self._data
            if type(buf) is not bytearray:
                buf = self._writable()
            buf.append(v & 0xFF)
        else:
            self.push_bytes(bytes([v & 0xFF]))

    def push_uint16(self, v: int) -> None:
        self.push_bytes((v & 0xFFFF).to_bytes(2, "big"))

    def push_uint32(self, v: int) -> None:
        self.push_bytes((v & 0xFFFFFFFF).to_bytes(4, "big"))

    def push_uint64(self, v: int) -> None:
        self.push_bytes(v.to_bytes(8, "big"))

    def push_varint(self, v: int) -> None:
        if self._capacity is not None:
            self.push_bytes(encode_varint(v))
            return
        # Inline encode straight into the backing bytearray: varints
        # dominate frame serialization, and the intermediate bytes objects
        # of encode_varint() show up in per-packet allocation profiles.
        data = self._data
        if type(data) is not bytearray:
            data = self._writable()
        if 0 <= v < 64:
            data.append(v)
        elif v < 0 or v > VARINT_MAX:
            raise ValueError(f"varint out of range: {v}")
        elif v < 1 << 14:
            data.append(0x40 | (v >> 8))
            data.append(v & 0xFF)
        elif v < 1 << 30:
            data.extend((0x8000_0000 | v).to_bytes(4, "big"))
        else:
            data.extend(((0xC0 << 56) | v).to_bytes(8, "big"))

    def push_varint_prefixed_bytes(self, data: bytes) -> None:
        self.push_varint(len(data))
        self.push_bytes(data)

    def data(self) -> bytes:
        data = self._data
        return data if type(data) is bytes else bytes(data)

    def view(self) -> memoryview:
        """A zero-copy view over the whole backing store."""
        return memoryview(self._data)

    def __len__(self) -> int:
        return len(self._data)


class RangeSet:
    """An ordered set of disjoint half-open integer ranges [start, end).

    Used for received packet numbers (ACK generation) and stream byte
    reassembly.  Ranges are kept sorted ascending and coalesced.
    """

    def __init__(self, ranges: Iterable[range] = ()):
        self._ranges: list[range] = []
        for r in ranges:
            self.add(r.start, r.stop)

    def add(self, start: int, stop: Optional[int] = None) -> None:
        """Add [start, stop); ``add(n)`` adds the single integer n."""
        if stop is None:
            stop = start + 1
        if stop <= start:
            raise ValueError(f"empty range [{start}, {stop})")
        ranges = self._ranges
        # Fast paths: append after, or extend, the last range.
        if ranges:
            last = ranges[-1]
            if start > last.stop:
                ranges.append(range(start, stop))
                return
            if start >= last.start and stop > last.stop:
                ranges[-1] = range(last.start, stop)
                return
            if start >= last.start and stop <= last.stop:
                return
        else:
            ranges.append(range(start, stop))
            return
        # General case: find the window of overlapping/adjacent ranges
        # with bisect and splice once.
        starts = [r.start for r in ranges]
        lo = bisect.bisect_left(starts, start)
        # A range before lo may still touch [start, stop).
        if lo > 0 and ranges[lo - 1].stop >= start:
            lo -= 1
        hi = lo
        while hi < len(ranges) and ranges[hi].start <= stop:
            hi += 1
        if lo < hi:
            start = min(start, ranges[lo].start)
            stop = max(stop, ranges[hi - 1].stop)
        ranges[lo:hi] = [range(start, stop)]

    def subtract(self, start: int, stop: int) -> None:
        """Remove [start, stop) from the set."""
        if stop <= start:
            return
        new: list[range] = []
        for r in self._ranges:
            if r.stop <= start or r.start >= stop:
                new.append(r)
                continue
            if r.start < start:
                new.append(range(r.start, start))
            if r.stop > stop:
                new.append(range(stop, r.stop))
        self._ranges = new

    def chop_first(self, stop: int) -> None:
        """Remove ``[first.start, stop)`` from the first range in O(1).

        The fast path for sequential consumers that always take a prefix
        of the lowest pending range (``SendStream.next_chunk``); callers
        must not pass ``stop`` beyond the first range's end.
        """
        ranges = self._ranges
        if not ranges:
            return
        first = ranges[0]
        if stop >= first.stop:
            del ranges[0]
        elif stop > first.start:
            ranges[0] = range(stop, first.stop)

    def copy(self) -> "RangeSet":
        out = RangeSet()
        out._ranges = list(self._ranges)
        return out

    def tail(self, max_ranges: int) -> "RangeSet":
        """A copy keeping only the ``max_ranges`` highest ranges (ACK
        frames bound how much history they report)."""
        out = RangeSet()
        out._ranges = list(self._ranges[-max_ranges:])
        return out

    def prune_below(self, bound: int) -> int:
        """Drop ranges lying entirely below ``bound``; the range
        containing ``bound`` (if any) is kept whole, so the retained
        tail is unchanged.  Returns the number of ranges dropped."""
        ranges = self._ranges
        keep = 0
        while keep < len(ranges) and ranges[keep].stop <= bound:
            keep += 1
        if keep:
            del ranges[:keep]
        return keep

    def __contains__(self, value: int) -> bool:
        ranges = self._ranges
        if not ranges:
            return False
        idx = bisect.bisect_right([r.start for r in ranges], value) - 1
        return idx >= 0 and ranges[idx].start <= value < ranges[idx].stop

    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self) -> Iterator[range]:
        return iter(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._ranges == other._ranges

    def bounds(self) -> range:
        if not self._ranges:
            raise ValueError("empty RangeSet")
        return range(self._ranges[0].start, self._ranges[-1].stop)

    def largest(self) -> int:
        """Largest integer contained in the set."""
        if not self._ranges:
            raise ValueError("empty RangeSet")
        return self._ranges[-1].stop - 1

    def smallest(self) -> int:
        if not self._ranges:
            raise ValueError("empty RangeSet")
        return self._ranges[0].start

    def covered(self) -> int:
        """Total number of integers contained."""
        return sum(r.stop - r.start for r in self._ranges)

    def descending(self) -> list[range]:
        """Ranges from highest to lowest (ACK frame order)."""
        return list(reversed(self._ranges))

    def __repr__(self) -> str:
        inner = ", ".join(f"[{r.start},{r.stop})" for r in self._ranges)
        return f"RangeSet({inner})"
