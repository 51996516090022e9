"""Real-time PoA streaming (the §IV-B alternative the paper declined).

The drone pushes each encrypted signed sample to the Auditor as soon as it
is taken; the Auditor acknowledges cumulatively and the drone retransmits
unacknowledged entries after a timeout.  Reliability is
cumulative-ACK/go-back-style: simple, and adequate for the low rates
involved.

The point of building this is the energy ablation: every transmitted byte
costs radio air time, which :mod:`repro.net.energy` converts to joules and
compares against the store-and-upload-later baseline.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.poa import EncryptedPoaRecord
from repro.crypto.schemes import SCHEME_RSA, scheme_ids
from repro.errors import EncodingError, ProtocolError
from repro.net.framing import FrameType, decode_frame, encode_frame
from repro.net.link import SimulatedLink
from repro.obs.trace import get_tracer

_RECORD_HEADER = struct.Struct(">HH")


def _encode_record(record: EncryptedPoaRecord) -> bytes:
    return (_RECORD_HEADER.pack(len(record.ciphertext), len(record.signature))
            + record.ciphertext + record.signature)


def _decode_record(payload: bytes) -> EncryptedPoaRecord:
    if len(payload) < _RECORD_HEADER.size:
        raise EncodingError("truncated streamed record")
    ct_len, sig_len = _RECORD_HEADER.unpack_from(payload)
    body = payload[_RECORD_HEADER.size:]
    if len(body) != ct_len + sig_len:
        raise EncodingError("streamed record length mismatch")
    return EncryptedPoaRecord(ciphertext=body[:ct_len], signature=body[ct_len:])


def _encode_flight_end(scheme: str, finalizer: bytes) -> bytes:
    """FLIGHT_END payload: ``u8 len ‖ scheme id ‖ finalizer``.

    An ``rsa-v15`` flight without a finalizer sends the empty payload.
    """
    if scheme == SCHEME_RSA and not finalizer:
        return b""
    name = scheme.encode()
    return bytes([len(name)]) + name + finalizer


def _decode_flight_end(payload: bytes) -> tuple[str, bytes]:
    """``(scheme id, finalizer)`` from a FLIGHT_END payload."""
    if not payload:
        return SCHEME_RSA, b""
    end = 1 + payload[0]
    scheme = payload[1:end].decode("ascii", errors="replace")
    if len(payload) < end or scheme not in scheme_ids():
        raise EncodingError("FLIGHT_END payload names no known scheme")
    return scheme, payload[end:]


@dataclass
class StreamingStats:
    """Uploader-side counters for the energy model."""

    entries_pushed: int = 0
    frames_sent: int = 0
    retransmissions: int = 0
    bytes_sent: int = 0
    air_time_s: float = 0.0
    acked_through: int = -1


class Outbox:
    """The uploader's bounded, duplicate-safe send buffer.

    Entries live in the outbox from push until cumulative acknowledgement;
    acknowledged payloads are freed immediately, so memory is bounded by
    the in-flight window rather than the flight length.  An optional
    ``limit`` caps the unacknowledged window — with a lossy link and no
    bound, a long flight would buffer its entire PoA.
    """

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 1:
            raise ProtocolError("outbox limit must be >= 1 (or None)")
        self.limit = limit
        self._pending: dict[int, bytes] = {}  # sequence -> payload
        self.total = 0                        # sequences ever assigned
        self.acked_through = -1

    @property
    def pending(self) -> int:
        """Unacknowledged entries currently buffered."""
        return len(self._pending)

    @property
    def full(self) -> bool:
        """Whether a push would exceed the bound."""
        return self.limit is not None and len(self._pending) >= self.limit

    def add(self, payload: bytes) -> int:
        """Buffer one payload; returns its sequence number.

        Raises:
            ProtocolError: the unacked window is at its bound — the caller
                must poll for ACKs (draining the window) before pushing.
        """
        if self.full:
            raise ProtocolError(
                f"outbox full ({self.limit} unacked entries); "
                "poll for ACKs before pushing more")
        sequence = self.total
        self.total += 1
        self._pending[sequence] = payload
        return sequence

    def ack_through(self, sequence: int) -> list[int]:
        """Apply a cumulative ACK; returns the sequences freed."""
        if sequence <= self.acked_through:
            return []
        freed = [s for s in self._pending if s <= sequence]
        for s in freed:
            del self._pending[s]
        self.acked_through = max(self.acked_through, sequence)
        return freed

    def unacked(self) -> list[tuple[int, bytes]]:
        """Unacknowledged ``(sequence, payload)`` pairs, ascending."""
        return sorted(self._pending.items())


class StreamingUploader:
    """Drone-side streaming endpoint.

    Args:
        uplink, downlink: the two link directions.
        flight_id: stream identifier.
        retransmit_timeout_s: per-entry retransmission timeout.
        outbox_limit: bound on unacknowledged buffered entries (None =
            unbounded, the historical behaviour).
    """

    def __init__(self, uplink: SimulatedLink, downlink: SimulatedLink,
                 flight_id: str, retransmit_timeout_s: float = 0.5,
                 outbox_limit: int | None = None):
        if retransmit_timeout_s <= 0:
            raise ProtocolError("retransmit timeout must be positive")
        self.uplink = uplink
        self.downlink = downlink
        self.flight_id = flight_id
        self.rto = float(retransmit_timeout_s)
        self.stats = StreamingStats()
        self.outbox = Outbox(outbox_limit)
        self._last_sent_at: dict[int, float] = {}
        self._begun = False
        self._ended = False

    def _send(self, frame_type: FrameType, sequence: int, payload: bytes,
              now: float) -> None:
        frame = encode_frame(frame_type, sequence, payload)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(frame)
        self.stats.air_time_s += self.uplink.send(frame, now)

    def begin_flight(self, now: float) -> None:
        """Open the stream (retransmitted implicitly by entry frames)."""
        self._begun = True
        self._send(FrameType.FLIGHT_BEGIN, 0, self.flight_id.encode(), now)

    @property
    def can_push(self) -> bool:
        """Whether the outbox has room for another entry."""
        return not self.outbox.full

    def push(self, record: EncryptedPoaRecord, now: float) -> None:
        """Stream one PoA entry; assigns the next sequence number.

        Raises:
            ProtocolError: the stream is closed, or the bounded outbox is
                full (poll for ACKs first; re-pushing after a drain is
                duplicate-safe because sequences never change).
        """
        if not self._begun or self._ended:
            raise ProtocolError("stream is not open")
        payload = _encode_record(record)
        sequence = self.outbox.add(payload)
        self.stats.entries_pushed += 1
        self._last_sent_at[sequence] = now
        with get_tracer().span("net.stream.push", sequence=sequence,
                               bytes=len(payload), virtual_t=now):
            self._send(FrameType.POA_ENTRY, sequence, payload, now)

    def poll(self, now: float) -> None:
        """Process ACKs and retransmit anything stale.

        Retransmission walks only the unacknowledged outbox window, and a
        re-send reuses the original sequence number, so the receiver can
        deduplicate arbitrarily many copies of the same entry.
        """
        for message in self.downlink.receive(now):
            try:
                frame = decode_frame(message)
            except EncodingError:
                continue
            if frame.frame_type is FrameType.ACK:
                (acked,) = struct.unpack(">q", frame.payload)
                for freed in self.outbox.ack_through(acked):
                    self._last_sent_at.pop(freed, None)
                self.stats.acked_through = self.outbox.acked_through
        for sequence, payload in self.outbox.unacked():
            if now - self._last_sent_at[sequence] >= self.rto:
                self.stats.retransmissions += 1
                self._last_sent_at[sequence] = now
                self._send(FrameType.POA_ENTRY, sequence, payload, now)

    def end_flight(self, now: float, scheme: str = SCHEME_RSA,
                   finalizer: bytes = b"") -> None:
        """Close the stream, naming the flight's scheme and finalizer.

        Entries may still need :meth:`poll` retries.
        """
        self._ended = True
        self._send(FrameType.FLIGHT_END, self.outbox.total,
                   _encode_flight_end(scheme, finalizer), now)

    @property
    def fully_acked(self) -> bool:
        """Whether every pushed entry has been acknowledged."""
        return self.outbox.acked_through >= self.outbox.total - 1


class StreamingAuditorEndpoint:
    """Auditor-side streaming endpoint: collects entries, sends ACKs."""

    def __init__(self, uplink: SimulatedLink, downlink: SimulatedLink):
        self.uplink = uplink
        self.downlink = downlink
        self.flight_id: str | None = None
        self.ended = False
        self.expected_entries: int | None = None
        #: The flight's scheme id and finalizer, from FLIGHT_END.
        self.scheme = SCHEME_RSA
        self.finalizer = b""
        self._received: dict[int, EncryptedPoaRecord] = {}
        self.corrupt_frames = 0
        #: Entry frames whose sequence had already been received — the
        #: duplicate-safety counter (retransmissions and duplicate faults
        #: both land here; the dict keyed by sequence absorbs them).
        self.duplicate_frames = 0

    def poll(self, now: float) -> None:
        """Drain the uplink, record entries, emit a cumulative ACK."""
        progressed = False
        for message in self.uplink.receive(now):
            try:
                frame = decode_frame(message)
            except EncodingError:
                self.corrupt_frames += 1
                continue
            progressed = True
            if frame.frame_type is FrameType.FLIGHT_BEGIN:
                self.flight_id = frame.payload.decode()
            elif frame.frame_type is FrameType.POA_ENTRY:
                try:
                    record = _decode_record(frame.payload)
                except EncodingError:
                    self.corrupt_frames += 1
                    continue
                if frame.sequence in self._received:
                    self.duplicate_frames += 1
                self._received[frame.sequence] = record
            elif frame.frame_type is FrameType.FLIGHT_END:
                try:
                    self.scheme, self.finalizer = _decode_flight_end(
                        frame.payload)
                except EncodingError:
                    self.corrupt_frames += 1
                    continue
                self.ended = True
                self.expected_entries = frame.sequence
        if progressed:
            ack = encode_frame(FrameType.ACK, 0,
                               struct.pack(">q", self._contiguous_through()))
            self.downlink.send(ack, now)

    def _contiguous_through(self) -> int:
        acked = -1
        while acked + 1 in self._received:
            acked += 1
        return acked

    @property
    def complete(self) -> bool:
        """Whether the whole flight has arrived gap-free."""
        return (self.ended and self.expected_entries is not None
                and self._contiguous_through() == self.expected_entries - 1)

    def records(self) -> list[EncryptedPoaRecord]:
        """The in-order entries received so far (gap-free prefix)."""
        return [self._received[i]
                for i in range(self._contiguous_through() + 1)]

    def to_submission(self, drone_id: str, claimed_start: float,
                      claimed_end: float):
        """Wrap the completed stream as a standard PoA submission.

        This closes the real-time-auditing loop: the Auditor can feed the
        result straight into ``AliDroneServer.receive_poa`` and verify the
        flight the moment it ends.

        Raises:
            ProtocolError: the stream is not yet complete.
        """
        from repro.core.protocol import PoaSubmission

        if not self.complete:
            raise ProtocolError("stream incomplete: cannot build submission")
        return PoaSubmission(drone_id=drone_id,
                             flight_id=self.flight_id or "streamed-flight",
                             records=self.records(),
                             claimed_start=claimed_start,
                             claimed_end=claimed_end,
                             scheme=self.scheme, finalizer=self.finalizer)
