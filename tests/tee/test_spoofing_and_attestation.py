"""Tests for the spoofing detector (§VII-A2) and attestation quotes."""

import random

import pytest

from repro.core.protocol import DroneRegistrationRequest
from repro.errors import (
    ConfigurationError,
    RegistrationError,
    TrustedAppError,
    WorldIsolationError,
)
from repro.gps.nmea import GpsFix
from repro.gps.replay import WaypointSource
from repro.server.auditor import AliDroneServer
from repro.sim.clock import DEFAULT_EPOCH, SimClock
from repro.tee.attestation import DeviceQuote
from repro.tee.gps_sampler_ta import (
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)
from repro.tee.spoof_detector import GpsSpoofingDetector

T0 = DEFAULT_EPOCH


@pytest.fixture()
def detector(make_device):
    device = make_device(seed=31)
    return GpsSpoofingDetector(device.monitor.state), device.monitor


def fix_at(lat, lon, t):
    return GpsFix(lat=lat, lon=lon, time=t)


class TestSpoofingDetectorUnit:
    def test_config_validation(self, detector):
        det, monitor = detector
        with pytest.raises(ConfigurationError):
            GpsSpoofingDetector(monitor.state, speed_slack=0.5)
        with pytest.raises(ConfigurationError):
            GpsSpoofingDetector(monitor.state, hold_down_s=-1.0)

    def test_normal_world_access_faults(self, detector):
        det, _ = detector
        with pytest.raises(WorldIsolationError):
            det.observe(fix_at(40.0, -88.0, T0))

    def test_plausible_track_stays_clean(self, detector):
        det, monitor = detector

        def run():
            for i in range(10):
                # ~11 m/s east.
                verdict = det.observe(fix_at(40.0, -88.0 + i * 1.3e-4,
                                             T0 + i))
                assert not verdict.suspicious
            return det.trips

        assert monitor.secure_boot_call(run) == 0

    def test_teleport_trips(self, detector):
        det, monitor = detector

        def run():
            det.observe(fix_at(40.0, -88.0, T0))
            return det.observe(fix_at(40.0, -87.0, T0 + 1.0))  # ~85 km/s

        verdict = monitor.secure_boot_call(run)
        assert verdict.suspicious
        assert "speed" in verdict.reason

    def test_time_regression_trips(self, detector):
        det, monitor = detector

        def run():
            det.observe(fix_at(40.0, -88.0, T0 + 10.0))
            return det.observe(fix_at(40.0, -88.0, T0 + 5.0))

        assert monitor.secure_boot_call(run).suspicious

    def test_frozen_clock_trips(self, detector):
        det, monitor = detector

        def run():
            det.observe(fix_at(40.0, -88.0, T0))
            return det.observe(fix_at(40.0, -87.99, T0))  # ~850 m, same t

        verdict = monitor.secure_boot_call(run)
        assert verdict.suspicious
        assert "frozen" in verdict.reason

    def test_hold_down_then_recovery(self, detector):
        det, monitor = detector

        def run():
            det.observe(fix_at(40.0, -88.0, T0))
            det.observe(fix_at(40.0, -87.0, T0 + 1.0))   # trip
            during = det.verdict(T0 + 10.0).suspicious
            after = det.verdict(T0 + 1.0 + det.hold_down_s + 1.0).suspicious
            return during, after

        during, after = monitor.secure_boot_call(run)
        assert during and not after


class TestSamplerDeclinesWhenSpoofed:
    def test_ta_refuses_to_sign_after_teleport(self, make_device, frame):
        # A trajectory that teleports 50 km at t = +5 s.
        source = WaypointSource([(T0, 0.0, 0.0), (T0 + 4.9, 25.0, 0.0),
                                 (T0 + 5.0, 50_000.0, 0.0),
                                 (T0 + 20.0, 50_100.0, 0.0)])
        from repro.gps.receiver import SimulatedGpsReceiver
        clock = SimClock(T0)
        receiver = SimulatedGpsReceiver(source, frame, update_rate_hz=5.0,
                                        start_time=T0, seed=1)
        device = make_device(seed=32)
        device.attach_gps(receiver, clock, spoof_detection=True)
        sid = device.client.open_session(GPS_SAMPLER_UUID)
        device.client.invoke(sid, CMD_START_FLIGHT)

        clock.advance(1.0)
        device.client.invoke(sid, CMD_GET_GPS_AUTH)      # clean: signs
        clock.advance_to(T0 + 6.0)                        # after the jump
        with pytest.raises(TrustedAppError):
            device.client.invoke(sid, CMD_GET_GPS_AUTH)
        assert device.core.op_counters["spoof_declines"] == 1

    def test_detector_off_by_default(self, make_platform):
        device, receiver, clock = make_platform(seed=33)
        sid = device.client.open_session(GPS_SAMPLER_UUID)
        device.client.invoke(sid, CMD_START_FLIGHT)
        clock.advance(1.0)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        assert "signature" in out


class TestAttestationQuotes:
    def test_quote_issued_at_provisioning(self, make_device, vendor_key):
        device = make_device(seed=34)
        assert device.quote is not None
        assert device.quote.verify(vendor_key.public_key)
        assert device.quote.tee_public_key == device.tee_public_key

    def test_quote_rejects_wrong_manufacturer(self, make_device, other_key):
        device = make_device(seed=35)
        assert not device.quote.verify(other_key.public_key)

    def test_server_enforces_attestation(self, frame, make_device,
                                          vendor_key, other_key):
        server = AliDroneServer(frame, rng=random.Random(1),
                                encryption_key_bits=512)
        server.require_attestation = True
        server.trust_manufacturer(vendor_key.public_key)
        device = make_device(seed=36)
        # A valid, quoted registration passes.
        drone_id = server.register_drone(DroneRegistrationRequest(
            operator_public_key=other_key.public_key,
            tee_public_key=device.tee_public_key, quote=device.quote))
        assert drone_id in server.drones

    def test_server_rejects_missing_quote(self, frame, make_device,
                                          vendor_key, other_key):
        server = AliDroneServer(frame, rng=random.Random(2),
                                encryption_key_bits=512)
        server.require_attestation = True
        server.trust_manufacturer(vendor_key.public_key)
        device = make_device(seed=37)
        with pytest.raises(RegistrationError):
            server.register_drone(DroneRegistrationRequest(
                operator_public_key=other_key.public_key,
                tee_public_key=device.tee_public_key))

    def test_server_rejects_key_substitution(self, frame, make_device,
                                             vendor_key, other_key,
                                             signing_key):
        """An attacker presents a genuine quote but their own 'TEE' key."""
        server = AliDroneServer(frame, rng=random.Random(3),
                                encryption_key_bits=512)
        server.require_attestation = True
        server.trust_manufacturer(vendor_key.public_key)
        device = make_device(seed=38)
        with pytest.raises(RegistrationError):
            server.register_drone(DroneRegistrationRequest(
                operator_public_key=other_key.public_key,
                tee_public_key=signing_key.public_key,  # attacker key
                quote=device.quote))

    def test_server_rejects_untrusted_manufacturer(self, frame, make_device,
                                                   other_key):
        server = AliDroneServer(frame, rng=random.Random(4),
                                encryption_key_bits=512)
        server.require_attestation = True   # nobody trusted
        device = make_device(seed=39)
        with pytest.raises(RegistrationError):
            server.register_drone(DroneRegistrationRequest(
                operator_public_key=other_key.public_key,
                tee_public_key=device.tee_public_key, quote=device.quote))

    def test_forged_quote_rejected(self, frame, make_device, vendor_key,
                                   other_key, signing_key):
        """An attacker self-issues a quote for their own key."""
        server = AliDroneServer(frame, rng=random.Random(5),
                                encryption_key_bits=512)
        server.require_attestation = True
        server.trust_manufacturer(vendor_key.public_key)
        forged = DeviceQuote.issue("evil-dev", signing_key.public_key,
                                   b"\x00" * 32, manufacturer_key=other_key)
        with pytest.raises(RegistrationError):
            server.register_drone(DroneRegistrationRequest(
                operator_public_key=other_key.public_key,
                tee_public_key=signing_key.public_key, quote=forged))
