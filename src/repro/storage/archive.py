"""Auditor state snapshots: registries, zones, and retained evidence.

A single JSON document captures everything the AliDrone Server needs to
survive a restart: registered drones (public keys only), registered
zones, the server's encryption keypair (this *is* the server's secret
store), retained submissions with their verification reports, and the
violation ledger.  Drones and evidence are read from the server's
:class:`~repro.server.store.FlightStore`; evidence is restored through
:meth:`AliDroneServer.receive_poa`, the one intake path, so every
restored verdict is re-derived rather than trusted.
"""

from __future__ import annotations

import json
import pathlib

from repro.core.nfz import NoFlyZone
from repro.core.poa import EncryptedPoaRecord
from repro.core.protocol import PoaSubmission
from repro.crypto.keys import (
    private_key_from_bytes,
    private_key_to_bytes,
    public_key_from_bytes,
    public_key_to_bytes,
)
from repro.crypto.schemes import SCHEME_RSA
from repro.errors import EncodingError
from repro.server.auditor import AliDroneServer
from repro.server.violations import (
    LedgerEntry,
    ViolationFinding,
    ViolationKind,
)

_FORMAT_VERSION = 1


def _key_hex(key) -> str:
    return public_key_to_bytes(key).hex()


def save_server_state(server: AliDroneServer,
                      path: pathlib.Path | str) -> None:
    """Snapshot the server to a JSON file."""
    registered = server.store.load_drones()
    drones = [{
        "drone_id": drone.drone_id,
        "operator_public_key": _key_hex(drone.operator_public_key),
        "tee_public_key": _key_hex(drone.tee_public_key),
        "operator_name": drone.operator_name,
    } for drone in registered]
    zones = []
    for record in server.zones.all_zones():
        zones.append({
            "zone_id": record.zone_id,
            "lat": record.zone.lat,
            "lon": record.zone.lon,
            "radius_m": record.zone.radius_m,
            "owner_name": record.owner_name,
        })
    retained = []
    for drone in registered:
        for item in server.retained_for(drone.drone_id):
            submission = item.submission
            retained.append({
                "drone_id": submission.drone_id,
                "flight_id": submission.flight_id,
                "claimed_start": submission.claimed_start,
                "claimed_end": submission.claimed_end,
                "received_at": item.received_at,
                "status": item.report.status.value,
                "scheme": submission.scheme,
                "finalizer": submission.finalizer.hex(),
                "records": [{"ciphertext": r.ciphertext.hex(),
                             "signature": r.signature.hex()}
                            for r in submission.records],
            })
    ledger = [{
        "drone_id": entry.finding.drone_id,
        "zone_id": entry.finding.zone_id,
        "incident_time": entry.finding.incident_time,
        "kind": entry.finding.kind.value,
        "detail": entry.finding.detail,
        "fine": entry.fine,
    } for entry in server.ledger]

    document = {
        "version": _FORMAT_VERSION,
        "frame_origin": {"lat": server.frame.origin.lat,
                         "lon": server.frame.origin.lon},
        "encryption_key": private_key_to_bytes(
            server.engine.encryption_key).hex(),
        "drone_counter": len(registered),
        "zone_counter": server.zones._counter,
        "drones": drones,
        "zones": zones,
        "retained": retained,
        "ledger": ledger,
    }
    pathlib.Path(path).write_text(json.dumps(document, indent=1))


def load_server_state(path: pathlib.Path | str,
                      server: AliDroneServer) -> AliDroneServer:
    """Restore a snapshot into a freshly constructed server.

    The caller supplies a server built with the same frame origin; the
    snapshot's registries, keys, evidence, and ledger replace the fresh
    server's state.  Raises :class:`EncodingError` on malformed input.
    """
    try:
        document = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise EncodingError(f"unreadable server snapshot: {exc}") from exc
    if document.get("version") != _FORMAT_VERSION:
        raise EncodingError("unsupported server snapshot version")
    origin = document["frame_origin"]
    if (abs(origin["lat"] - server.frame.origin.lat) > 1e-9
            or abs(origin["lon"] - server.frame.origin.lon) > 1e-9):
        raise EncodingError("snapshot frame origin does not match the server")

    try:
        key = private_key_from_bytes(bytes.fromhex(document["encryption_key"]))
        server.service._encryption_key = key
        for engine in server.service.engines:
            engine.encryption_key = key
        for entry in document["drones"]:
            drone_id = server.store.register_drone(
                public_key_from_bytes(
                    bytes.fromhex(entry["operator_public_key"])),
                public_key_from_bytes(bytes.fromhex(entry["tee_public_key"])),
                entry["operator_name"])
            if drone_id != entry["drone_id"]:
                raise EncodingError("drone id sequence mismatch in snapshot")
        for entry in document["zones"]:
            record = server.zones.register(
                NoFlyZone(entry["lat"], entry["lon"], entry["radius_m"]),
                owner_name=entry["owner_name"],
                proof_of_ownership="<restored>")
            if record.zone_id != entry["zone_id"]:
                raise EncodingError("zone id sequence mismatch in snapshot")
        server.zones._counter = document["zone_counter"]

        for entry in document["retained"]:
            records = tuple(
                EncryptedPoaRecord(ciphertext=bytes.fromhex(r["ciphertext"]),
                                   signature=bytes.fromhex(r["signature"]))
                for r in entry["records"])
            # Snapshots written before schemes were recorded hold only
            # rsa-v15 evidence (the only kind that restored).
            submission = PoaSubmission(
                drone_id=entry["drone_id"], flight_id=entry["flight_id"],
                records=records, claimed_start=entry["claimed_start"],
                claimed_end=entry["claimed_end"],
                scheme=entry.get("scheme", SCHEME_RSA),
                finalizer=bytes.fromhex(entry.get("finalizer", "")))
            # Re-verify on restore, through the one intake path, rather
            # than trusting the stored verdict; the stored status is the
            # audit-trail cross-check.
            report = server.receive_poa(submission,
                                        now=entry["received_at"])
            if report.status.value != entry["status"]:
                raise EncodingError(
                    f"stored verdict {entry['status']!r} does not reproduce "
                    f"({report.status.value!r}) — snapshot tampered?")
        for entry in document["ledger"]:
            finding = ViolationFinding(
                drone_id=entry["drone_id"], zone_id=entry["zone_id"],
                incident_time=entry["incident_time"], violation=True,
                kind=ViolationKind(entry["kind"]), detail=entry["detail"])
            server.ledger._entries.append(
                LedgerEntry(finding=finding, fine=entry["fine"]))
            server.ledger._offences[entry["drone_id"]] = (
                server.ledger._offences.get(entry["drone_id"], 0) + 1)
    except (KeyError, ValueError, TypeError) as exc:
        raise EncodingError(f"corrupt server snapshot: {exc}") from exc
    return server
