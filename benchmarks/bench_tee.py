"""Micro-benchmarks of the TEE substrate: world switches and GetGPSAuth.

The adaptive sampler exists because "signature and world-switching
operations are costly" (§IV-C3); these benches quantify both halves in the
simulator.
"""

from __future__ import annotations

import random
import uuid

import pytest

from repro.gps.receiver import SimulatedGpsReceiver
from repro.gps.replay import WaypointSource
from repro.sim.clock import DEFAULT_EPOCH, SimClock
from repro.tee.attestation import provision_device
from repro.tee.gps_sampler_ta import (
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)
from repro.tee.trusted_app import PseudoTrustedApplication

T0 = DEFAULT_EPOCH


class _NopPTA(PseudoTrustedApplication):
    UUID = uuid.UUID(int=0xBE7C)

    def invoke_command(self, command, params):
        return None


@pytest.fixture(scope="module")
def device():
    from repro.geo.geodesy import GeoPoint, LocalFrame
    dev = provision_device("bench", key_bits=1024, rng=random.Random(9))
    frame = LocalFrame(GeoPoint(40.1, -88.22))
    source = WaypointSource([(T0, 0.0, 0.0), (T0 + 100_000.0, 1000.0, 0.0)])
    receiver = SimulatedGpsReceiver(source, frame, update_rate_hz=5.0,
                                    start_time=T0, seed=1)
    clock = SimClock(T0 + 1.0)
    dev.attach_gps(receiver, clock)
    dev.core.register_pta(_NopPTA())
    return dev, clock


def test_smc_round_trip(benchmark, device):
    """One empty secure-monitor call (two world switches)."""
    dev, _ = device
    sid = dev.client.open_session(_NopPTA.UUID)
    benchmark(dev.client.invoke, sid, "nop")


def test_get_gps_auth_end_to_end(benchmark, device):
    """Full GetGPSAuth: SMC + driver NMEA read/parse + RSA-1024 sign."""
    dev, clock = device

    sid = dev.client.open_session(GPS_SAMPLER_UUID)
    dev.client.invoke(sid, CMD_START_FLIGHT)

    def call():
        clock.advance(0.2)
        return dev.client.invoke(sid, CMD_GET_GPS_AUTH)

    result = benchmark(call)
    assert "signature" in result


def test_ta_load_and_session_open(benchmark, device):
    """Session open includes TA signature verification and key unseal."""
    dev, _ = device

    def open_close():
        sid = dev.client.open_session(GPS_SAMPLER_UUID)
        dev.client.close_session(sid)

    benchmark(open_close)


def test_device_provisioning(benchmark):
    """Manufacture-time provisioning (dominated by RSA keygen)."""
    counter = iter(range(10_000))

    def provision():
        return provision_device(f"bench-{next(counter)}", key_bits=512,
                                rng=random.Random(7))

    benchmark.pedantic(provision, rounds=3, iterations=1)
