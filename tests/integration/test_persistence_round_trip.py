"""Integration: fly -> vault -> restart -> submit -> Auditor restart.

A drone flies, archives the encrypted PoA on its SD card, and submits it
*after* the operator's app restarts; later the Auditor restarts over its
own store file and adjudicates identically.
"""

import random

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.protocol import IncidentReport, ZoneRegistrationRequest
from repro.core.verification import VerificationStatus
from repro.drone.client import AliDroneClient
from repro.gps.receiver import SimulatedGpsReceiver
from repro.gps.replay import WaypointSource
from repro.server.auditor import AliDroneServer
from repro.sim.clock import DEFAULT_EPOCH, SimClock
from repro.storage import PoaVault

T0 = DEFAULT_EPOCH


@pytest.fixture()
def flown(frame, make_device, tmp_path):
    server = AliDroneServer(frame, store=tmp_path / "auditor.db",
                            rng=random.Random(12), encryption_key_bits=512)
    center = frame.to_geo(300.0, 90.0)
    zone_id = server.register_zone(ZoneRegistrationRequest(
        zone=NoFlyZone(center.lat, center.lon, 25.0),
        proof_of_ownership="deed"))
    source = WaypointSource([(T0, 0.0, 0.0), (T0 + 60.0, 600.0, 0.0)])
    device = make_device(seed=21)
    clock = SimClock(T0)
    receiver = SimulatedGpsReceiver(source, frame, update_rate_hz=5.0,
                                    start_time=T0, seed=2)
    device.attach_gps(receiver, clock)
    client = AliDroneClient(device, receiver, clock, frame,
                            rng=random.Random(22))
    client.register(server)
    record = client.fly(T0 + 60.0, policy="fixed", fixed_rate_hz=2.0,
                        zones=[NoFlyZone(center.lat, center.lon, 25.0)])
    vault = PoaVault(tmp_path / "sdcard")
    client.archive_flight(vault, record, server.public_encryption_key)
    return dict(server=server, client=client, vault=vault, record=record,
                zone_id=zone_id, tmp_path=tmp_path)


class TestVaultRoundTrip:
    def test_submit_from_vault_accepted(self, flown):
        report = flown["client"].submit_archived(
            flown["server"], flown["vault"], flown["record"].flight_id)
        assert report.status is VerificationStatus.ACCEPTED

    def test_vault_preserves_flight_metadata(self, flown):
        entry = flown["vault"].load(flown["record"].flight_id)
        assert entry.policy == "fixed-2hz"
        assert entry.claimed_end - entry.claimed_start == pytest.approx(
            flown["record"].result.stats.duration)

    def test_tampered_vault_file_detected_at_verification(self, flown):
        """Flipping ciphertext bits on the SD card yields a rejected
        submission, not silent acceptance."""
        import json
        path = flown["vault"]._path_for(flown["record"].flight_id)
        document = json.loads(path.read_text())
        blob = bytearray.fromhex(document["records"][3]["ciphertext"])
        blob[7] ^= 0xFF
        document["records"][3]["ciphertext"] = bytes(blob).hex()
        path.write_text(json.dumps(document))
        report = flown["client"].submit_archived(
            flown["server"], flown["vault"], flown["record"].flight_id)
        assert report.status in (VerificationStatus.REJECTED_MALFORMED,
                                 VerificationStatus.REJECTED_BAD_SIGNATURE)

    def test_full_server_restart_round_trip(self, flown, frame):
        server, client = flown["server"], flown["client"]
        client.submit_archived(server, flown["vault"],
                               flown["record"].flight_id)
        incident = IncidentReport(zone_id=flown["zone_id"],
                                  drone_id=client.drone_id,
                                  incident_time=T0 + 30.0)
        violation = server.handle_incident(incident).violation
        server.close()
        restored = AliDroneServer(frame, store=flown["tmp_path"] / "auditor.db",
                                  rng=random.Random(13),
                                  encryption_key_bits=512)
        assert restored.handle_incident(incident).violation == violation
