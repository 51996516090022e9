"""The one GPS Sampler TA, flown under every registered scheme.

Every scheme runs ``StartFlight`` → ``GetGPSAuth``… → ``FinalizeFlight``
through the same TA; only the session's ``scheme`` parameter differs.
"""

from __future__ import annotations

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.sampling import FixRateSampler
from repro.core.verification import PoaVerifier, VerificationStatus
from repro.crypto.schemes import (
    SCHEME_BATCH,
    SCHEME_CHAIN,
    SCHEME_MERKLE,
    SCHEME_RSA,
    get_scheme,
    scheme_ids,
)
from repro.drone.adapter import Adapter
from repro.errors import TrustedAppError
from repro.tee.gps_sampler_ta import (
    CMD_FINALIZE_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)
from repro.workloads import build_random_scenario, run_policy

#: Auth-blob bytes per sample with the 512-bit test key.
BLOB_BYTES = {SCHEME_RSA: 64, SCHEME_BATCH: 0, SCHEME_CHAIN: 32,
              SCHEME_MERKLE: 0}


def rsa_signs_per_flight(scheme_id: str, samples: int) -> int:
    """n, 1, 2 and 1 RSA signatures for a flight of n samples."""
    return {SCHEME_RSA: samples, SCHEME_BATCH: 1, SCHEME_CHAIN: 2,
            SCHEME_MERKLE: 1}[scheme_id]


@pytest.fixture(params=scheme_ids())
def scheme_id(request) -> str:
    return request.param


@pytest.fixture()
def platform(make_platform):
    return make_platform()


def _open(device, scheme_id, seed=99):
    return device.client.open_session(
        GPS_SAMPLER_UUID, {"scheme": scheme_id, "signer_seed": seed})


def _fly(device, clock, scheme_id, samples=5, session=None):
    """One flight over a direct session: (GetGPSAuth outputs, finalize output)."""
    sid = session if session is not None else _open(device, scheme_id)
    device.client.invoke(sid, CMD_START_FLIGHT)
    outputs = []
    for _ in range(samples):
        clock.advance(1.0)
        outputs.append(device.client.invoke(sid, CMD_GET_GPS_AUTH))
    final = device.client.invoke(sid, CMD_FINALIZE_FLIGHT)
    if session is None:
        device.client.close_session(sid)
    return outputs, final


def _entries(outputs):
    return [(out["payload"], out["signature"]) for out in outputs]


class TestOneSamplerTA:
    def test_one_ta_image_installed(self, make_device):
        images = make_device().core.ta_store._images
        assert list(images) == [GPS_SAMPLER_UUID]

    def test_unknown_scheme_rejected_at_open(self, platform):
        device, _, _ = platform
        with pytest.raises(TrustedAppError, match="unknown authentication"):
            device.client.open_session(GPS_SAMPLER_UUID,
                                       {"scheme": "rsa-v16"})


class TestEveryScheme:
    def test_policy_flight_accepted(self, scheme_id):
        scenario = build_random_scenario(seed=3, n_zones=2, area_m=600.0)
        run = run_policy(scenario, "adaptive", key_bits=512, seed=3,
                         scheme=scheme_id)
        poa = run.result.poa
        assert poa.scheme == scheme_id
        assert bool(poa.finalizer) == (scheme_id != SCHEME_RSA)
        report = PoaVerifier(scenario.frame).verify(
            poa, run.device.tee_public_key, scenario.zones)
        assert report.status is VerificationStatus.ACCEPTED

    def test_direct_flight_verifies(self, platform, scheme_id):
        device, _, clock = platform
        outputs, final = _fly(device, clock, scheme_id, samples=6)
        assert {out["scheme"] for out in outputs} == {scheme_id}
        assert {len(out["signature"]) for out in outputs} == {
            BLOB_BYTES[scheme_id]}
        assert final["scheme"] == scheme_id
        assert get_scheme(scheme_id).verify(
            device.tee_public_key, _entries(outputs),
            final["finalizer"]) == []

    def test_counters_per_flight(self, platform, scheme_id):
        device, _, clock = platform
        counters = device.core.op_counters
        before = counters.copy()
        _fly(device, clock, scheme_id, samples=8)
        delta = counters - before
        assert delta["rsa_sign_512"] == rsa_signs_per_flight(scheme_id, 8)
        assert delta["gps_auth_samples"] == 8
        assert delta[f"{scheme_id}.flights"] == 1
        assert delta[f"{scheme_id}.finalizations"] == 1

    def test_outside_flight_raises(self, platform, scheme_id):
        device, _, clock = platform
        sid = _open(device, scheme_id)
        clock.advance(1.0)
        for command in (CMD_GET_GPS_AUTH, CMD_FINALIZE_FLIGHT):
            with pytest.raises(TrustedAppError, match="StartFlight"):
                device.client.invoke(sid, command)
        _fly(device, clock, scheme_id, samples=1, session=sid)
        for command in (CMD_FINALIZE_FLIGHT, CMD_GET_GPS_AUTH):
            with pytest.raises(TrustedAppError, match="StartFlight"):
                device.client.invoke(sid, command)
        device.client.close_session(sid)

    def test_next_flight_starts_fresh(self, platform, scheme_id):
        device, _, clock = platform
        sid = _open(device, scheme_id)
        _fly(device, clock, scheme_id, samples=2, session=sid)
        outputs, final = _fly(device, clock, scheme_id, samples=3,
                              session=sid)
        device.client.close_session(sid)
        assert get_scheme(scheme_id).verify(
            device.tee_public_key, _entries(outputs),
            final["finalizer"]) == []

    def test_empty_flight_rejected_empty(self, platform, frame, scheme_id):
        device, receiver, clock = platform
        adapter = Adapter(device, receiver, clock, scheme=scheme_id)
        result = adapter.fly(FixRateSampler(1.0), clock.now - 1.0)
        assert len(result.poa) == 0
        center = frame.to_geo(0.0, 5_000.0)
        zone = NoFlyZone(center.lat, center.lon, 50.0)
        report = PoaVerifier(frame).verify(result.poa, device.tee_public_key,
                                           [zone])
        assert report.status is VerificationStatus.REJECTED_EMPTY

    def test_seeded_flight_deterministic(self, make_platform, scheme_id):
        def one_flight():
            device, _, clock = make_platform()
            return _fly(device, clock, scheme_id, samples=4)

        assert one_flight() == one_flight()
