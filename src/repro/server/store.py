"""The durable flight store: a SQLite/WAL-backed PoA submission ledger.

The in-process :class:`repro.server.engine.AuditEngine` audits whatever a
caller hands it and forgets everything at process exit; a fleet-scale
auditor service has to survive restarts with its intake intact.  The
:class:`FlightStore` is that durability layer, shaped like the FAA
Remote-ID serial-lookup exemplar: a local indexed SQLite database in WAL
mode, written incrementally as submissions arrive, read back selectively
by drone / zone-region / epoch.

Three tables:

* ``drones`` — the registered ``(id_drone, D+, T+)`` rows, with a unique
  TEE-key fingerprint (one physical device, one license plate) so the
  registry survives restarts with its invariants.
* ``submissions`` — one row per accepted PoA upload: the envelope fields
  in columns (indexed by ``drone_id`` and ``(region, epoch)``) and the
  encrypted records as one length-prefixed blob.  A unique ``dedup_key``
  (SHA-256 over the canonical submission encoding) makes re-submission
  idempotent: the duplicate upload maps onto the original row instead of
  queueing a second audit.
* ``verdicts`` — the audit outcome per submission, keyed by the same
  ``seq``.  A submission with no verdict row is *unaudited*; after a
  crash, :meth:`FlightStore.pending` is exactly the replay set.

Every write commits immediately; WAL journaling makes a torn process
leave either the pre-write or post-write state, never a half row.  All
timestamps are caller-supplied (sim-clock) values — the store never
reads a wall clock, so recovery tests replay bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sqlite3
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.poa import EncryptedPoaRecord
from repro.core.protocol import PoaSubmission
from repro.core.verification import (
    RejectionReason,
    VerificationReport,
    VerificationStatus,
)
from repro.crypto.keys import (
    key_fingerprint,
    public_key_to_bytes,
    public_key_from_bytes,
)
from repro.crypto.rsa import RsaPublicKey
from repro.errors import ConfigurationError, EncodingError, RegistrationError

#: Submissions are bucketed into daily epochs for the ``(region, epoch)``
#: index: incident adjudication and retention sweeps are day-granular.
EPOCH_BUCKET_S = 86_400.0

#: Verdict status recorded when intake itself failed (unknown drone) —
#: there is no :class:`VerificationReport` to reconstruct for these rows.
INTAKE_ERROR_STATUS = "intake_error"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS drones (
    drone_id        TEXT PRIMARY KEY,
    tee_fingerprint TEXT NOT NULL UNIQUE,
    operator_public BLOB NOT NULL,
    tee_public      BLOB NOT NULL,
    operator_name   TEXT NOT NULL DEFAULT '',
    registered_at   REAL NOT NULL DEFAULT 0.0
);

CREATE TABLE IF NOT EXISTS submissions (
    seq           INTEGER PRIMARY KEY AUTOINCREMENT,
    dedup_key     TEXT NOT NULL UNIQUE,
    drone_id      TEXT NOT NULL,
    flight_id     TEXT NOT NULL,
    region        TEXT NOT NULL DEFAULT '',
    epoch         INTEGER NOT NULL,
    scheme        TEXT NOT NULL,
    finalizer     BLOB NOT NULL,
    claimed_start REAL NOT NULL,
    claimed_end   REAL NOT NULL,
    received_at   REAL NOT NULL,
    records       BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_submissions_drone
    ON submissions (drone_id);
CREATE INDEX IF NOT EXISTS idx_submissions_region_epoch
    ON submissions (region, epoch);
CREATE INDEX IF NOT EXISTS idx_submissions_scheme
    ON submissions (scheme);

CREATE TABLE IF NOT EXISTS verdicts (
    seq                  INTEGER PRIMARY KEY
                             REFERENCES submissions (seq),
    status               TEXT NOT NULL,
    reason               TEXT,
    sample_count         INTEGER NOT NULL DEFAULT 0,
    message              TEXT NOT NULL DEFAULT '',
    bad_indices          TEXT NOT NULL DEFAULT '[]',
    infeasible_indices   TEXT NOT NULL DEFAULT '[]',
    insufficient_indices TEXT NOT NULL DEFAULT '[]',
    audited_at           REAL NOT NULL
);
"""


# --- record blob codec ------------------------------------------------------

def encode_records(records: Sequence[EncryptedPoaRecord]) -> bytes:
    """Length-prefixed wire form of a submission's encrypted records."""
    parts = [struct.pack(">I", len(records))]
    for record in records:
        parts.append(struct.pack(">I", len(record.ciphertext)))
        parts.append(record.ciphertext)
        parts.append(struct.pack(">I", len(record.signature)))
        parts.append(record.signature)
    return b"".join(parts)


def decode_records(blob: bytes) -> tuple[EncryptedPoaRecord, ...]:
    """Inverse of :func:`encode_records`; raises on a torn blob."""
    def take(offset: int, length: int) -> tuple[bytes, int]:
        if offset + length > len(blob):
            raise EncodingError("truncated record blob")
        return blob[offset:offset + length], offset + length

    if len(blob) < 4:
        raise EncodingError("truncated record blob (count)")
    (count,) = struct.unpack_from(">I", blob, 0)
    offset = 4
    records = []
    for _ in range(count):
        raw, offset = take(offset, 4)
        ciphertext, offset = take(offset, struct.unpack(">I", raw)[0])
        raw, offset = take(offset, 4)
        signature, offset = take(offset, struct.unpack(">I", raw)[0])
        records.append(EncryptedPoaRecord(ciphertext=ciphertext,
                                          signature=signature))
    if offset != len(blob):
        raise EncodingError("trailing bytes after record blob")
    return tuple(records)


def submission_dedup_key(submission: PoaSubmission) -> str:
    """The idempotency key: SHA-256 over the canonical submission form.

    Two uploads with the same drone, flight, window, scheme, finalizer,
    and record bytes are the *same* submission — retransmissions after a
    lost ack, duplicated link frames, crash-replayed uploads — and must
    map onto one stored row and one audit.
    """
    return _dedup_key(submission, encode_records(submission.records))


def _dedup_key(submission: PoaSubmission, records_blob: bytes) -> str:
    """:func:`submission_dedup_key` over an already-encoded record blob."""
    digest = hashlib.sha256()
    digest.update(submission.drone_id.encode())
    digest.update(b"\x00")
    digest.update(submission.flight_id.encode())
    digest.update(b"\x00")
    digest.update(submission.scheme.encode())
    digest.update(b"\x00")
    digest.update(struct.pack(">dd", submission.claimed_start,
                              submission.claimed_end))
    digest.update(submission.finalizer)
    digest.update(records_blob)
    return digest.hexdigest()


# --- row views --------------------------------------------------------------

@dataclass(frozen=True)
class StoredSubmission:
    """One ``submissions`` row, decoded back into the protocol object."""

    seq: int
    submission: PoaSubmission
    region: str
    received_at: float


@dataclass(frozen=True)
class StoredVerdict:
    """One ``verdicts`` row."""

    seq: int
    status: str
    reason: str | None
    sample_count: int
    message: str
    bad_indices: tuple[int, ...]
    infeasible_indices: tuple[int, ...]
    insufficient_indices: tuple[int, ...]
    audited_at: float

    def to_report(self) -> VerificationReport:
        """Reconstruct the :class:`VerificationReport` this row recorded.

        Raises :class:`~repro.errors.ConfigurationError` for intake-error
        rows, which never had a report.
        """
        if self.status == INTAKE_ERROR_STATUS:
            raise ConfigurationError(
                "intake-error verdicts carry no verification report")
        return VerificationReport(
            status=VerificationStatus(self.status),
            bad_signature_indices=list(self.bad_indices),
            infeasible_pair_indices=list(self.infeasible_indices),
            insufficient_pair_indices=list(self.insufficient_indices),
            sample_count=self.sample_count,
            message=self.message,
            reason=(RejectionReason(self.reason)
                    if self.reason is not None else None))


@dataclass(frozen=True)
class StoredDrone:
    """One ``drones`` row."""

    drone_id: str
    operator_public_key: RsaPublicKey
    tee_public_key: RsaPublicKey
    operator_name: str
    registered_at: float


class FlightStore:
    """The durable drone / submission / verdict ledger.

    Args:
        path: database file, or ``":memory:"`` for an ephemeral store
            (used by tests and the default ``alidrone serve`` smoke
            mode; obviously not crash-safe).
    """

    def __init__(self, path: str | pathlib.Path = ":memory:"):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "FlightStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --- drones -------------------------------------------------------------

    def register_drone(self, operator_public_key: RsaPublicKey,
                       tee_public_key: RsaPublicKey,
                       operator_name: str = "",
                       registered_at: float = 0.0) -> str:
        """Issue an ``id_drone`` and persist the registration row.

        This is the Auditor's one drone registry: a TEE key already
        registered (by fingerprint) is rejected — one physical device,
        one license plate — and identifiers are issued sequentially so a
        restarted service keeps counting where it left off.
        """
        fingerprint = key_fingerprint(tee_public_key)
        row = self._conn.execute(
            "SELECT drone_id FROM drones WHERE tee_fingerprint = ?",
            (fingerprint,)).fetchone()
        if row is not None:
            raise RegistrationError(
                f"TEE key already registered as drone {row[0]!r}")
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM drones").fetchone()
        drone_id = f"drone-{count + 1:06d}"
        self._conn.execute(
            "INSERT INTO drones (drone_id, tee_fingerprint, operator_public,"
            " tee_public, operator_name, registered_at)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (drone_id, fingerprint, public_key_to_bytes(operator_public_key),
             public_key_to_bytes(tee_public_key), operator_name,
             float(registered_at)))
        self._conn.commit()
        return drone_id

    def get_drone(self, drone_id: str) -> StoredDrone:
        """The stored registration row; raises for an unknown id."""
        row = self._conn.execute(
            "SELECT drone_id, operator_public, tee_public, operator_name,"
            " registered_at FROM drones WHERE drone_id = ?",
            (drone_id,)).fetchone()
        if row is None:
            raise RegistrationError(f"unknown drone id {drone_id!r}")
        return StoredDrone(
            drone_id=row[0],
            operator_public_key=public_key_from_bytes(row[1]),
            tee_public_key=public_key_from_bytes(row[2]),
            operator_name=row[3], registered_at=row[4])

    def find_drone_by_tee(self,
                          tee_public_key: RsaPublicKey) -> StoredDrone | None:
        """The registration row holding this TEE key, or None.

        This is how a restarted provisioning flow recognises an
        already-registered device instead of tripping the uniqueness
        constraint.
        """
        row = self._conn.execute(
            "SELECT drone_id FROM drones WHERE tee_fingerprint = ?",
            (key_fingerprint(tee_public_key),)).fetchone()
        return self.get_drone(row[0]) if row is not None else None

    def load_drones(self) -> list[StoredDrone]:
        """Every registered drone, in registration order."""
        rows = self._conn.execute(
            "SELECT drone_id, operator_public, tee_public, operator_name,"
            " registered_at FROM drones ORDER BY drone_id").fetchall()
        return [StoredDrone(drone_id=row[0],
                            operator_public_key=public_key_from_bytes(row[1]),
                            tee_public_key=public_key_from_bytes(row[2]),
                            operator_name=row[3], registered_at=row[4])
                for row in rows]

    def drone_count(self) -> int:
        """Number of registered drones."""
        return self._conn.execute("SELECT COUNT(*) FROM drones").fetchone()[0]

    # --- submissions --------------------------------------------------------

    def put_submission(self, submission: PoaSubmission, *,
                       region: str = "",
                       received_at: float = 0.0) -> tuple[int, bool]:
        """Persist one submission; returns ``(seq, inserted)``.

        ``inserted`` is False when the dedup key already exists — the
        returned ``seq`` is then the original row's, so callers can treat
        a retransmission as an ack of the first upload rather than a new
        unit of audit work.
        """
        records = encode_records(submission.records)
        dedup = _dedup_key(submission, records)
        epoch = int(submission.claimed_start // EPOCH_BUCKET_S)
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO submissions (dedup_key, drone_id,"
            " flight_id, region, epoch, scheme, finalizer, claimed_start,"
            " claimed_end, received_at, records)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (dedup, submission.drone_id, submission.flight_id, region, epoch,
             submission.scheme, submission.finalizer,
             submission.claimed_start, submission.claimed_end,
             float(received_at), records))
        self._conn.commit()
        if cursor.rowcount == 1:
            return cursor.lastrowid, True
        (seq,) = self._conn.execute(
            "SELECT seq FROM submissions WHERE dedup_key = ?",
            (dedup,)).fetchone()
        return seq, False

    _SUBMISSION_COLS = ("seq, drone_id, flight_id, region, scheme,"
                        " finalizer, claimed_start, claimed_end,"
                        " received_at, records")
    _VERDICT_COLS = ("seq, status, reason, sample_count, message,"
                     " bad_indices, infeasible_indices, insufficient_indices,"
                     " audited_at")
    #: Both column lists qualified for ``submissions s JOIN verdicts v``.
    _JOINED_SUBMISSION_COLS = ", ".join(
        "s." + col.strip() for col in _SUBMISSION_COLS.split(","))
    _JOINED_VERDICT_COLS = ", ".join(
        "v." + col.strip() for col in _VERDICT_COLS.split(","))

    def _row_to_submission(self, row) -> StoredSubmission:
        submission = PoaSubmission(
            drone_id=row[1], flight_id=row[2],
            records=decode_records(row[9]),
            claimed_start=row[6], claimed_end=row[7],
            scheme=row[4], finalizer=row[5])
        return StoredSubmission(seq=row[0], submission=submission,
                                region=row[3], received_at=row[8])

    def get_submission(self, seq: int) -> StoredSubmission:
        """The stored submission with this ``seq``; raises if absent."""
        row = self._conn.execute(
            f"SELECT {self._SUBMISSION_COLS} FROM submissions"
            " WHERE seq = ?", (seq,)).fetchone()
        if row is None:
            raise ConfigurationError(f"no stored submission with seq {seq}")
        return self._row_to_submission(row)

    def submissions_for_drone(self, drone_id: str) -> list[StoredSubmission]:
        """Every stored submission from one drone (indexed lookup)."""
        rows = self._conn.execute(
            f"SELECT {self._SUBMISSION_COLS} FROM submissions"
            " WHERE drone_id = ? ORDER BY seq", (drone_id,)).fetchall()
        return [self._row_to_submission(row) for row in rows]

    def submissions_in_region(self, region: str,
                              epoch: int | None = None,
                              ) -> list[StoredSubmission]:
        """Submissions tagged with a zone-region, optionally one epoch."""
        if epoch is None:
            rows = self._conn.execute(
                f"SELECT {self._SUBMISSION_COLS} FROM submissions"
                " WHERE region = ? ORDER BY seq", (region,)).fetchall()
        else:
            rows = self._conn.execute(
                f"SELECT {self._SUBMISSION_COLS} FROM submissions"
                " WHERE region = ? AND epoch = ? ORDER BY seq",
                (region, epoch)).fetchall()
        return [self._row_to_submission(row) for row in rows]

    def submission_count(self) -> int:
        """Total stored submissions (audited or not)."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM submissions").fetchone()[0]

    def submission_counts_by_scheme(self) -> dict[str, int]:
        """Stored submissions per authentication scheme (indexed scan).

        The per-scheme mix is an operational signal: a fleet migrating
        from per-sample RSA to an amortized scheme shows up here first.
        """
        rows = self._conn.execute(
            "SELECT scheme, COUNT(*) FROM submissions"
            " GROUP BY scheme ORDER BY scheme").fetchall()
        return {row[0]: row[1] for row in rows}

    # --- verdicts -----------------------------------------------------------

    def record_verdict(self, seq: int, report: VerificationReport, *,
                       audited_at: float) -> None:
        """Persist the audit outcome for one submission (idempotent)."""
        self._conn.execute(
            "INSERT OR REPLACE INTO verdicts (seq, status, reason,"
            " sample_count, message, bad_indices, infeasible_indices,"
            " insufficient_indices, audited_at)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (seq, report.status.value,
             report.reason.value if report.reason is not None else None,
             report.sample_count, report.message,
             json.dumps(report.bad_signature_indices),
             json.dumps(report.infeasible_pair_indices),
             json.dumps(report.insufficient_pair_indices),
             float(audited_at)))
        self._conn.commit()

    def record_intake_error(self, seq: int, message: str, *,
                            audited_at: float) -> None:
        """Mark a submission as terminally unprocessable (unknown drone).

        Without this row the submission would be replayed after every
        restart and fail every time.
        """
        self._conn.execute(
            "INSERT OR REPLACE INTO verdicts (seq, status, reason,"
            " sample_count, message, bad_indices, infeasible_indices,"
            " insufficient_indices, audited_at)"
            " VALUES (?, ?, NULL, 0, ?, '[]', '[]', '[]', ?)",
            (seq, INTAKE_ERROR_STATUS, message, float(audited_at)))
        self._conn.commit()

    def get_verdict(self, seq: int) -> StoredVerdict | None:
        """The recorded verdict for a submission, or None if unaudited."""
        row = self._conn.execute(
            f"SELECT {self._VERDICT_COLS} FROM verdicts WHERE seq = ?",
            (seq,)).fetchone()
        return _row_to_verdict(row) if row is not None else None

    def verdict_count(self) -> int:
        """Number of audited submissions."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM verdicts").fetchone()[0]

    # --- replay -------------------------------------------------------------

    def pending(self, limit: int | None = None) -> list[StoredSubmission]:
        """Stored submissions with no verdict yet, in arrival order.

        After a crash this is exactly the set of accepted-but-unaudited
        uploads the restarted service must replay.
        """
        sql = (f"SELECT {self._JOINED_SUBMISSION_COLS}"
               " FROM submissions s LEFT JOIN verdicts v ON v.seq = s.seq"
               " WHERE v.seq IS NULL ORDER BY s.seq")
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [self._row_to_submission(row)
                for row in self._conn.execute(sql).fetchall()]

    def pending_count(self) -> int:
        """How many stored submissions still await a verdict."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM submissions s"
            " LEFT JOIN verdicts v ON v.seq = s.seq"
            " WHERE v.seq IS NULL").fetchone()[0]

    def audited(self, drone_id: str | None = None,
                ) -> Iterator[tuple[StoredSubmission, StoredVerdict]]:
        """Every (submission, verdict) pair, in arrival order.

        This is the conformance-replay feed: an independent verifier can
        re-derive each decision from the stored ciphertext and compare it
        to the recorded verdict.  ``drone_id`` narrows it to one drone's
        rows (indexed lookup), which is how retained evidence is read.
        """
        where, params = ("", ()) if drone_id is None else (
            " WHERE s.drone_id = ?", (drone_id,))
        rows = self._conn.execute(
            f"SELECT {self._JOINED_SUBMISSION_COLS},"
            f" {self._JOINED_VERDICT_COLS}"
            " FROM submissions s JOIN verdicts v ON v.seq = s.seq"
            f"{where} ORDER BY s.seq", params).fetchall()
        for row in rows:
            yield self._row_to_submission(row[:10]), _row_to_verdict(row[10:])

    def purge_audited(self, now: float,
                      retention_s: float) -> list[StoredVerdict]:
        """Delete audited rows received more than ``retention_s`` ago.

        A row is kept while ``now - received_at <= retention_s``.  Pending
        rows are never deleted, however old: an unaudited upload still
        owes a verdict, which :meth:`pending` hands to the replay.
        Returns the deleted rows' verdicts, in arrival order.
        """
        rows = self._conn.execute(
            f"SELECT {self._VERDICT_COLS} FROM verdicts WHERE seq IN"
            " (SELECT seq FROM submissions WHERE ? - received_at > ?)"
            " ORDER BY seq", (float(now), float(retention_s))).fetchall()
        seqs = [(row[0],) for row in rows]
        self._conn.executemany("DELETE FROM verdicts WHERE seq = ?", seqs)
        self._conn.executemany("DELETE FROM submissions WHERE seq = ?", seqs)
        self._conn.commit()
        return [_row_to_verdict(row) for row in rows]


def _row_to_verdict(row) -> StoredVerdict:
    """Decode one ``verdicts`` row (columns as in ``_VERDICT_COLS``)."""
    return StoredVerdict(
        seq=row[0], status=row[1], reason=row[2], sample_count=row[3],
        message=row[4],
        bad_indices=tuple(json.loads(row[5])),
        infeasible_indices=tuple(json.loads(row[6])),
        insufficient_indices=tuple(json.loads(row[7])),
        audited_at=row[8])
