"""Length-prefixed wire framing over the canonical codec.

A TCP/UDS byte stream has no message boundaries, so every envelope is
shipped as one *frame*::

    MAGIC (2 bytes) | payload length (4 bytes, big-endian)
    | CRC32 of payload (4 bytes, big-endian) | payload

where the payload is the canonical codec encoding
(:mod:`repro.dag.codec`) of the envelope.  The format deliberately
mirrors the WAL's CRC-framed records: the codec already guarantees an
injective, cross-process-stable byte form for every wire dataclass, so
framing only has to solve boundaries and corruption.

:class:`FrameDecoder` is a streaming decoder: feed it arbitrary byte
chunks (however the socket sliced them) and it yields complete decoded
values.  It resynchronizes on garbage — a partial write from a killed
peer, line noise, a bad CRC — by scanning forward to the next MAGIC,
so one damaged frame never poisons the rest of the stream.

The codec registry is per-process: the *receiving* process must know
every dataclass that can appear on the wire before decoding it.
:func:`register_wire_types` registers the gossip envelopes and the
handshake; protocol request types self-register when the protocol
module is imported (the node entrypoint resolves the protocol before
opening any socket).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

from repro.dag import codec
from repro.dag.block import Block
from repro.errors import CodecError
from repro.net.message import BlockEnvelope, FwdRequestEnvelope

#: Frame start marker.  Two bytes that never begin a codec value (codec
#: tags are ASCII letters), so a scan-for-magic resync cannot lock onto
#: the interior of a well-formed payload's first bytes.
MAGIC = b"\xc4\x11"

#: MAGIC + length (4) + CRC32 (4).
HEADER_SIZE = 10

#: Refuse frames larger than this (a corrupt length field must not make
#: the decoder buffer gigabytes while waiting for a frame that never
#: completes).
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class Hello:
    """The connection handshake: the dialing server introduces itself.

    TCP/UDS connections identify an address, not a server; gossip
    handlers want ``(source server, envelope)``.  The first frame on
    every outbound connection is a ``Hello`` naming the dialer, and the
    accepting side attributes all later frames on that connection to
    it.  Identity is still *not* trusted from the handshake alone —
    block signatures are verified by gossip regardless of who relayed
    them, exactly as in the simulator.
    """

    server: str


@dataclass(frozen=True)
class Goodbye:
    """The last frame of an orderly stop: the sender is leaving on purpose.

    A server that stops in order sends it on every outbound connection
    before closing any socket, so its peers do not count the closed
    connections that follow as losses.  A crashed (SIGKILLed) server
    cannot send it, so its silence is what marks a real loss.
    """

    server: str


def register_wire_types() -> None:
    """Register every dataclass that crosses the wire for decoding.

    Idempotent; call it in any process that will *receive* frames.
    (Encoding auto-registers, which is why the simulator never needed
    this — sender and receiver were the same process.)
    """
    codec.register_dataclass(Block)
    codec.register_dataclass(BlockEnvelope)
    codec.register_dataclass(FwdRequestEnvelope)
    codec.register_dataclass(Hello)
    codec.register_dataclass(Goodbye)


def encode_frame(value: Any) -> bytes:
    """One complete frame carrying ``value``."""
    payload = codec.encode(value)
    return b"".join(
        (
            MAGIC,
            len(payload).to_bytes(4, "big"),
            (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big"),
            payload,
        )
    )


@dataclass
class FrameStats:
    """What a :class:`FrameDecoder` saw, for transport metrics."""

    frames_decoded: int = 0
    bytes_skipped: int = 0
    resyncs: int = 0
    crc_failures: int = 0
    decode_failures: int = 0


class FrameDecoder:
    """Streaming frame decoder tolerant of partial frames and garbage.

    ``feed(chunk)`` buffers arbitrary byte chunks and returns the list
    of values whose frames completed; incomplete tails stay buffered.
    Damage handling:

    * bytes before the next MAGIC are skipped (counted in
      ``stats.bytes_skipped``; each skip run is one resync);
    * an implausible length or failed CRC skips one byte and rescans —
      a frame boundary misread as MAGIC cannot swallow real frames;
    * a CRC-valid payload the codec rejects is dropped whole
      (``stats.decode_failures``) — the framing was intact, the content
      was not ours.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self.stats = FrameStats()
        self._buffer = bytearray()

    def pending_bytes(self) -> int:
        """Buffered bytes not yet consumed by a complete frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[Any]:
        """Buffer ``chunk``; return all newly completed values."""
        self._buffer += chunk
        values: list[Any] = []
        while True:
            value = self._next_frame()
            if value is _NEED_MORE:
                return values
            if value is not _SKIPPED:
                values.append(value)

    def _skip(self, count: int) -> None:
        del self._buffer[:count]
        self.stats.bytes_skipped += count
        self.stats.resyncs += 1

    def _next_frame(self) -> Any:
        buffer = self._buffer
        start = buffer.find(MAGIC)
        if start == -1:
            # No frame start in sight: drop everything except a
            # possible first magic byte dangling at the very end.
            keep = 1 if buffer.endswith(MAGIC[:1]) else 0
            if len(buffer) > keep:
                self._skip(len(buffer) - keep)
            return _NEED_MORE
        if start > 0:
            self._skip(start)
        if len(buffer) < HEADER_SIZE:
            return _NEED_MORE
        length = int.from_bytes(buffer[2:6], "big")
        if length > self.max_frame_bytes:
            # Corrupt length (or not really a frame start): advance one
            # byte so the scan can find the true next MAGIC.
            self._skip(1)
            return _SKIPPED
        end = HEADER_SIZE + length
        if len(buffer) < end:
            return _NEED_MORE
        crc = int.from_bytes(buffer[6:HEADER_SIZE], "big")
        payload = bytes(buffer[HEADER_SIZE:end])
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            self.stats.crc_failures += 1
            self._skip(1)
            return _SKIPPED
        del buffer[:end]
        try:
            value = codec.decode(payload)
        except CodecError:
            self.stats.decode_failures += 1
            return _SKIPPED
        self.stats.frames_decoded += 1
        return value


#: Sentinels distinguishing "wait for more bytes" from "frame consumed
#: but produced nothing" — both distinct from any decodable value.
_NEED_MORE = object()
_SKIPPED = object()
