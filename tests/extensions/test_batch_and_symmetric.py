"""Tests for §VII-A1's signing-cost answers on the one GPS Sampler TA.

Sign-once batching is the ``rsa-batch`` scheme; per-sample HMAC is the
``hash-chain`` scheme, whose chain key the TA discloses at flight end.
"""

import pytest

from repro.core.samples import GpsSample, Trace
from repro.crypto.digest import framed_sha256
from repro.crypto.schemes import SCHEME_BATCH, SCHEME_CHAIN, get_scheme
from repro.errors import TrustedAppError
from repro.tee.gps_sampler_ta import (
    CMD_FINALIZE_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
    GpsSamplerTA,
)
from repro.tee.optee import sign_trusted_app


@pytest.fixture()
def batch_platform(make_platform):
    device, receiver, clock = make_platform()
    sid = device.client.open_session(GPS_SAMPLER_UUID,
                                     {"scheme": SCHEME_BATCH})
    return device, clock, sid


@pytest.fixture()
def sym_platform(make_platform):
    device, receiver, clock = make_platform()
    sid = device.client.open_session(GPS_SAMPLER_UUID,
                                     {"scheme": SCHEME_CHAIN,
                                      "signer_seed": 1234})
    return device, clock, sid


def _flight(device, clock, sid, samples, step=1.0):
    """One flight over ``sid``: (entries, finalizer)."""
    device.client.invoke(sid, CMD_START_FLIGHT)
    entries = []
    for _ in range(samples):
        clock.advance(step)
        out = device.client.invoke(sid, CMD_GET_GPS_AUTH)
        entries.append((out["payload"], out["signature"]))
    return entries, device.client.invoke(sid, CMD_FINALIZE_FLIGHT)["finalizer"]


def _flip_last_byte(payload: bytes) -> bytes:
    return payload[:-1] + bytes([payload[-1] ^ 1])


class TestBatchSigning:
    def test_record_and_finalize(self, batch_platform):
        device, clock, sid = batch_platform
        entries, finalizer = _flight(device, clock, sid, samples=4)
        assert [blob for _payload, blob in entries] == [b""] * 4
        assert get_scheme(SCHEME_BATCH).verify(
            device.tee_public_key, entries, finalizer) == []
        trace = Trace(GpsSample.from_signed_payload(payload)
                      for payload, _blob in entries)
        assert trace.duration == pytest.approx(3.0, abs=0.05)

    def test_single_signature_for_whole_flight(self, batch_platform):
        device, clock, sid = batch_platform
        _flight(device, clock, sid, samples=10, step=0.5)
        assert device.core.op_counters["rsa_sign_512"] == 1
        assert device.core.op_counters["gps_auth_samples"] == 10

    def test_tampered_payload_fails(self, batch_platform):
        device, clock, sid = batch_platform
        entries, finalizer = _flight(device, clock, sid, samples=1)
        payload, blob = entries[0]
        assert get_scheme(SCHEME_BATCH).verify(
            device.tee_public_key, [(_flip_last_byte(payload), blob)],
            finalizer) != []

    def test_dropped_payload_fails(self, batch_platform):
        device, clock, sid = batch_platform
        entries, finalizer = _flight(device, clock, sid, samples=3)
        assert get_scheme(SCHEME_BATCH).verify(
            device.tee_public_key, entries[:-1], finalizer) != []

    def test_buffer_resets_between_flights(self, batch_platform):
        device, clock, sid = batch_platform
        _flight(device, clock, sid, samples=1)
        entries, finalizer = _flight(device, clock, sid, samples=1)
        assert get_scheme(SCHEME_BATCH).verify(
            device.tee_public_key, entries, finalizer) == []

    def test_digest_length_framing(self):
        """Adjacent payloads cannot be re-split without detection."""
        assert framed_sha256((b"ab", b"c")) != framed_sha256((b"a", b"bc"))


class TestSymmetricSigning:
    def test_tampered_payload_rejected(self, sym_platform):
        device, clock, sid = sym_platform
        entries, finalizer = _flight(device, clock, sid, samples=1)
        payload, link = entries[0]
        assert get_scheme(SCHEME_CHAIN).verify(
            device.tee_public_key, [(_flip_last_byte(payload), link)],
            finalizer) == [0]

    def test_sampling_before_handshake_rejected(self, sym_platform):
        device, clock, sid = sym_platform
        clock.advance(1.0)
        with pytest.raises(TrustedAppError, match="StartFlight"):
            device.client.invoke(sid, CMD_GET_GPS_AUTH)

    def test_wrong_flight_key_rejected(self, sym_platform):
        """Links made under one flight's key fail under another flight's."""
        device, clock, sid = sym_platform
        entries_a, _ = _flight(device, clock, sid, samples=2)
        _, finalizer_b = _flight(device, clock, sid, samples=2)
        assert get_scheme(SCHEME_CHAIN).verify(
            device.tee_public_key, entries_a, finalizer_b) != []

    def test_hmac_counter_tracked(self, sym_platform):
        """An HMAC-linked sample is counted but signs nothing under RSA."""
        device, clock, sid = sym_platform
        device.client.invoke(sid, CMD_START_FLIGHT)
        clock.advance(1.0)
        device.client.invoke(sid, CMD_GET_GPS_AUTH)
        counters = device.core.op_counters
        assert counters["gps_auth_samples"] == 1
        assert counters[f"{SCHEME_CHAIN}.flights"] == 1
        assert counters["rsa_sign_512"] == 1  # the chain commitment only

    def test_unsigned_vendor_extension_rejected(self, make_platform,
                                                other_key):
        """Only the manufacturer can install a sampler TA image."""
        device, _, _ = make_platform()
        device.core.ta_store.install(
            sign_trusted_app(GpsSamplerTA, GPS_SAMPLER_UUID, other_key))
        with pytest.raises(TrustedAppError):
            device.client.open_session(GPS_SAMPLER_UUID,
                                       {"scheme": SCHEME_CHAIN})
