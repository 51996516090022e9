"""The GPS Sampler Trusted Application (paper §IV-C2, §V-B).

A normal (non-privileged, dynamically loaded) TA.  Its one job: produce
*authenticated* GPS samples under the TEE sign key ``T-`` unsealed from
secure storage — the key never leaves the secure world.

The session chooses a sample-authentication scheme from
:mod:`repro.crypto.schemes` (the paper's per-sample RSA by default), and
every scheme runs the same flight lifecycle — the commit-then-disclose
shape of TESLA-style broadcast authentication:

* ``StartFlight`` creates the scheme's flight-scoped signer (the
  hash-chain scheme commits to its chain anchor here);
* ``GetGPSAuth`` reads the latest fix from the secure-world GPS driver,
  encodes it as the canonical signed payload, and returns the signer's
  auth blob for it (an RSA signature under ``rsa-v15``);
* ``FinalizeFlight`` returns the flight finalizer (empty under
  ``rsa-v15``) and retires the signer.

The prototype signs with ``TEE_ALG_RSASSA_PKCS1_V1_5_SHA1``; the hash is
selectable at session-open for the modern-deployment variant.
"""

from __future__ import annotations

import random
import uuid as uuid_module
from collections import Counter
from typing import Any

from repro.core.samples import GpsSample
from repro.crypto.keys import private_key_from_bytes, public_key_to_bytes
from repro.crypto.rsa import RsaPrivateKey
from repro.crypto.schemes import SCHEME_RSA, AuthScheme, SampleSigner, get_scheme
from repro.errors import SchemeError, TeeError, TrustedAppError
from repro.obs.trace import get_tracer
from repro.tee.gps_driver import SecureGpsDriver
from repro.tee.spoof_detector import GpsSpoofingDetector
from repro.tee.trusted_app import TrustedApplication
from repro.tee.worlds import SecureKeyHandle

#: Command: begin a flight; returns ``{"scheme": str}``.
CMD_START_FLIGHT = "StartFlight"
#: Command: sample the GPS and return
#: ``{"payload": bytes, "signature": bytes, "scheme": str}``.
CMD_GET_GPS_AUTH = "GetGPSAuth"
#: Command: end the flight; returns ``{"finalizer": bytes, "scheme": str}``.
CMD_FINALIZE_FLIGHT = "FinalizeFlight"
#: Command: return the TEE verification key ``T+`` (public, freely shareable).
CMD_GET_PUBLIC_KEY = "GetPublicKey"

#: Sealed-storage entry name for the TEE sign key.
SIGN_KEY_ENTRY = "tee-sign-key"

GPS_SAMPLER_UUID = uuid_module.UUID("8aaaf200-2450-11e4-abe2-0002a5d5c51b")


class _CountedSignKey:
    """``T-`` as a scheme's signer sees it: every RSA signature is counted.

    The TA does not know when a scheme signs (per sample, at flight start,
    at flight end), so it counts the private-key operations themselves
    into ``rsa_sign_<bits>``.  Only the handle is held, so the key is
    reachable only while the secure world executes.
    """

    def __init__(self, handle: SecureKeyHandle, counters: Counter[str]):
        key: RsaPrivateKey = handle.reveal()
        self._handle = handle
        self._counters = counters
        self._counter = f"rsa_sign_{key.bits}"
        self.bits = key.bits
        self.byte_length = key.byte_length

    def raw_sign(self, m: int) -> int:
        self._counters[self._counter] += 1
        return self._handle.reveal().raw_sign(m)


class GpsSamplerTA(TrustedApplication):
    """Authenticated GPS sampling behind the ``GetGPSAuth`` interface.

    Session parameters: ``hash_name`` (``"sha1"`` or ``"sha256"``),
    ``scheme`` (a registered scheme id, ``rsa-v15`` by default) and an
    optional ``signer_seed`` (int) that makes the signers' randomness —
    the hash-chain key — deterministic.  The seed is test and benchmark
    plumbing only; a real device always draws from the secure RNG.
    """

    UUID = GPS_SAMPLER_UUID

    def __init__(self) -> None:
        super().__init__()
        self._sign_key: SecureKeyHandle | None = None
        self._hash_name = "sha1"
        self._scheme: AuthScheme = get_scheme(SCHEME_RSA)
        self._rng: random.Random | None = None
        self._signer: SampleSigner | None = None

    def open_session(self, params: dict[str, Any]) -> None:
        """Unseal the sign key; runs in the secure world at session open."""
        hash_name = params.get("hash_name", "sha1")
        if hash_name not in ("sha1", "sha256"):
            raise TrustedAppError(f"unsupported signing hash: {hash_name!r}")
        try:
            self._scheme = get_scheme(params.get("scheme", SCHEME_RSA))
        except SchemeError as exc:
            raise TrustedAppError(str(exc)) from None
        self._hash_name = hash_name
        seed = params.get("signer_seed")
        self._rng = None if seed is None else random.Random(seed)
        storage = self.core.sealed_storage
        if storage is None:
            raise TrustedAppError("device has no sealed storage provisioned")
        key = private_key_from_bytes(storage.unseal(SIGN_KEY_ENTRY))
        self._sign_key = SecureKeyHandle(key, self.core.monitor.state,
                                         "TEE sign key T-")

    def close_session(self) -> None:
        self._signer = None
        self._sign_key = None

    def invoke_command(self, command: str, params: dict[str, Any]) -> Any:
        if self._sign_key is None:
            raise TrustedAppError("GPS Sampler session not opened")
        if command == CMD_START_FLIGHT:
            return self._start_flight()
        if command == CMD_GET_GPS_AUTH:
            return self._get_gps_auth()
        if command == CMD_FINALIZE_FLIGHT:
            return self._finalize_flight()
        if command == CMD_GET_PUBLIC_KEY:
            return public_key_to_bytes(self._sign_key.reveal().public_key)
        raise TrustedAppError(f"GPS Sampler: unknown command {command!r}")

    def _flight_signer(self) -> SampleSigner:
        if self._signer is None:
            raise TrustedAppError(
                "GPS Sampler: no flight started (StartFlight first)")
        return self._signer

    def _consult_spoof_detector(self, fix) -> None:
        """Decline to sign in a suspicious GPS environment (§VII-A2)."""
        try:
            detector = self.kernel_service(GpsSpoofingDetector.SERVICE_NAME)
        except TeeError:
            return  # detector not provisioned on this device
        verdict = detector.observe(fix)
        if verdict.suspicious:
            self.core.op_counters["spoof_declines"] += 1
            raise TrustedAppError(
                f"GPS environment suspicious ({verdict.reason}); "
                "declining to provide authenticity services")

    def _start_flight(self) -> dict[str, str]:
        scheme_id = self._scheme.id
        key = _CountedSignKey(self._sign_key, self.core.op_counters)
        with get_tracer().span("tee.gps_sampler_ta.start_flight",
                               scheme=scheme_id, key_bits=key.bits,
                               hash=self._hash_name):
            self._signer = self._scheme.new_signer(key, self._hash_name,
                                                   self._rng)
        self.core.op_counters[f"{scheme_id}.flights"] += 1
        return {"scheme": scheme_id}

    def _get_gps_auth(self) -> dict[str, Any]:
        signer = self._flight_signer()
        tracer = get_tracer()
        with tracer.span("gps.receiver.get_fix"):
            fix = self.kernel_service(SecureGpsDriver.SERVICE_NAME).get_gps()
        self._consult_spoof_detector(fix)
        sample = GpsSample(lat=fix.lat, lon=fix.lon, t=fix.time,
                           alt=fix.altitude_m)
        payload = sample.to_signed_payload()
        with tracer.span("tee.gps_sampler_ta.sign", scheme=self._scheme.id,
                         hash=self._hash_name, t=sample.t):
            blob = signer.sign_sample(payload)
        self.core.op_counters["gps_auth_samples"] += 1
        return {"payload": payload, "signature": blob,
                "scheme": self._scheme.id}

    def _finalize_flight(self) -> dict[str, Any]:
        signer = self._flight_signer()
        scheme_id = self._scheme.id
        with get_tracer().span("tee.gps_sampler_ta.finalize_flight",
                               scheme=scheme_id):
            finalizer = signer.finalize_flight()
        self._signer = None  # one finalizer per flight
        self.core.op_counters[f"{scheme_id}.finalizations"] += 1
        return {"finalizer": finalizer, "scheme": scheme_id}
