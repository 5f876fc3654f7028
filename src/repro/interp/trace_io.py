"""Binary serialisation for execution traces.

Traces are the expensive artefact of the functional pass (hundreds of
thousands of dynamic blocks); persisting them lets every later process
replay timing simulations without re-interpreting the program.  The
format is a small header plus ``array`` dumps:

.. code-block:: text

    magic  b"RTRC"            4 bytes
    version u32               format revision
    exit_code i32
    retired u64, discarded u64
    n_labels u32, then each label as u16 length + utf-8 bytes
    n_blocks u32, then block_ids as u32[n]
    outcomes as u8[n]
    fault_indices as i32[n]
    n_addresses u32, then addresses as u64[n]
    n_load_values u32, then load_values as i64[n]

Version 2 added the per-load value stream (value-prediction
verification).  Only the current version loads: ``PREPARE_CACHE_VERSION``
is hashed into every artifact digest, so the store never opens a trace
written by an older format.
"""

from __future__ import annotations

import struct
from array import array
from typing import BinaryIO

from .trace import Trace

_MAGIC = b"RTRC"
_VERSION = 2


class TraceFormatError(Exception):
    """Raised for unreadable or mismatched trace files."""


def _read_exact(stream: BinaryIO, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`TraceFormatError`.

    Truncation is the common corruption mode (a killed writer, a partial
    copy); every load-path read goes through here so it always surfaces
    as a typed format error rather than a bare ``struct.error``.
    """
    data = stream.read(count)
    if len(data) != count:
        raise TraceFormatError(
            f"truncated trace: expected {count} byte(s) of {what},"
            f" got {len(data)}"
        )
    return data


def _read_array(stream: BinaryIO, typecode: str, count: int,
                what: str) -> array:
    """Read ``count`` array items, mapping EOF to :class:`TraceFormatError`.

    ``array.fromfile`` raises ``EOFError`` when the stream runs dry on an
    item boundary and ``ValueError`` when the leftover byte count is not
    a multiple of the item size; both are the same truncation to us.
    """
    values = array(typecode)
    try:
        values.fromfile(stream, count)
    except (EOFError, ValueError):
        raise TraceFormatError(
            f"truncated trace: expected {count} {what} item(s),"
            f" got {len(values)}"
        ) from None
    return values


def save_trace(trace: Trace, stream: BinaryIO) -> None:
    """Write ``trace`` to a binary stream."""
    stream.write(_MAGIC)
    stream.write(struct.pack("<IiQQ", _VERSION, trace.exit_code,
                             trace.retired_nodes, trace.discarded_nodes))
    stream.write(struct.pack("<I", len(trace.labels)))
    for label in trace.labels:
        encoded = label.encode("utf-8")
        stream.write(struct.pack("<H", len(encoded)))
        stream.write(encoded)
    stream.write(struct.pack("<I", len(trace.block_ids)))
    array("I", trace.block_ids).tofile(stream)
    array("B", trace.outcomes).tofile(stream)
    array("i", trace.fault_indices).tofile(stream)
    stream.write(struct.pack("<I", len(trace.addresses)))
    array("Q", trace.addresses).tofile(stream)
    stream.write(struct.pack("<I", len(trace.load_values)))
    array("q", trace.load_values).tofile(stream)


def load_trace(stream: BinaryIO) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    Raises:
        TraceFormatError: bad magic, unsupported version, or a stream
            that ends before the header-declared payload does.
    """
    if _read_exact(stream, 4, "magic") != _MAGIC:
        raise TraceFormatError("not a trace file (bad magic)")
    version, exit_code, retired, discarded = struct.unpack(
        "<IiQQ", _read_exact(stream, struct.calcsize("<IiQQ"), "header")
    )
    if version != _VERSION:
        raise TraceFormatError(f"unsupported trace version {version}")
    trace = Trace()
    trace.exit_code = exit_code
    trace.retired_nodes = retired
    trace.discarded_nodes = discarded

    (n_labels,) = struct.unpack("<I", _read_exact(stream, 4, "label count"))
    for _ in range(n_labels):
        (length,) = struct.unpack(
            "<H", _read_exact(stream, 2, "label length")
        )
        try:
            label = _read_exact(stream, length, "label").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"undecodable label: {exc}") from None
        trace.intern(label)

    (n_blocks,) = struct.unpack("<I", _read_exact(stream, 4, "block count"))
    block_ids = _read_array(stream, "I", n_blocks, "block id")
    outcomes = _read_array(stream, "B", n_blocks, "outcome")
    faults = _read_array(stream, "i", n_blocks, "fault index")
    (n_addresses,) = struct.unpack(
        "<I", _read_exact(stream, 4, "address count")
    )
    addresses = _read_array(stream, "Q", n_addresses, "address")
    (n_values,) = struct.unpack(
        "<I", _read_exact(stream, 4, "load-value count")
    )
    load_values = _read_array(stream, "q", n_values, "load value")

    trace.block_ids = list(block_ids)
    trace.outcomes = list(outcomes)
    trace.fault_indices = list(faults)
    trace.addresses = list(addresses)
    trace.load_values = list(load_values)
    return trace


def save_trace_file(trace: Trace, path: str) -> None:
    """Write a trace to ``path``."""
    with open(path, "wb") as handle:
        save_trace(trace, handle)


def load_trace_file(path: str) -> Trace:
    """Read a trace from ``path``."""
    with open(path, "rb") as handle:
        return load_trace(handle)
