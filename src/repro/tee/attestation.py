"""Manufacture-time provisioning of a TrustZone device (paper §III-B, §IV-B).

The threat model requires that the TEE sign keypair ``T = (T+, T-)`` is
generated at manufacturing time, with ``T-`` born inside the secure world
and ``T+`` handed to the device owner for registration with the Auditor.
:func:`provision_device` performs exactly that sequence: boot the core,
mint a device root key, generate ``T`` under a secure-boot call, seal
``T-``, and install the vendor-signed GPS Sampler TA.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import hashlib

from repro.crypto.keys import private_key_to_bytes, public_key_to_bytes
from repro.crypto.pkcs1 import sign_pkcs1_v15, verify_pkcs1_v15
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_rsa_keypair
from repro.errors import TeeError
from repro.gps.receiver import SimulatedGpsReceiver
from repro.tee.gps_driver import SecureGpsDriver
from repro.tee.gps_sampler_ta import SIGN_KEY_ENTRY, GpsSamplerTA
from repro.tee.monitor import SecureMonitor
from repro.tee.optee import OpTeeCore, TeeClient, sign_trusted_app
from repro.tee.secure_storage import SealedStorage
from repro.tee.worlds import SecureKeyHandle


@dataclass(frozen=True, slots=True)
class DeviceQuote:
    """A manufacturer-signed binding of device identity to its keys.

    The paper assumes the Auditor simply receives ``T+`` at registration;
    a real deployment needs evidence that ``T+`` belongs to a genuine TEE
    rather than to software an attacker controls.  The quote — signed by
    the manufacturer at provisioning time — binds the device serial, the
    TEE verification key, and the measurement (code digest) of the GPS
    Sampler TA image shipped on the device.
    """

    device_id: str
    tee_public_key: RsaPublicKey
    ta_measurement: bytes
    signature: bytes

    @staticmethod
    def _payload(device_id: str, tee_public_key: RsaPublicKey,
                 ta_measurement: bytes) -> bytes:
        return (b"ADQ1|" + device_id.encode() + b"|"
                + public_key_to_bytes(tee_public_key) + b"|" + ta_measurement)

    @classmethod
    def issue(cls, device_id: str, tee_public_key: RsaPublicKey,
              ta_measurement: bytes,
              manufacturer_key: RsaPrivateKey) -> "DeviceQuote":
        """Sign a quote (manufacturer provisioning step)."""
        payload = cls._payload(device_id, tee_public_key, ta_measurement)
        return cls(device_id=device_id, tee_public_key=tee_public_key,
                   ta_measurement=ta_measurement,
                   signature=sign_pkcs1_v15(manufacturer_key, payload,
                                            "sha256"))

    def verify(self, manufacturer_public_key: RsaPublicKey) -> bool:
        """Whether the quote was signed by this manufacturer."""
        payload = self._payload(self.device_id, self.tee_public_key,
                                self.ta_measurement)
        return verify_pkcs1_v15(manufacturer_public_key, payload,
                                self.signature, "sha256")


@dataclass
class TrustZoneDevice:
    """A provisioned TrustZone platform, ready to run the AliDrone client.

    Attributes:
        device_id: manufacturer serial (not the protocol's ``id_drone``).
        core: the OP-TEE core (secure world).
        monitor: the secure monitor between the worlds.
        client: the normal world's TEE Client API.
        sealed_storage: the device's sealed store.
        tee_public_key: ``T+``, exported at manufacture for registration.
    """

    device_id: str
    core: OpTeeCore
    monitor: SecureMonitor
    client: TeeClient
    sealed_storage: SealedStorage
    tee_public_key: RsaPublicKey
    quote: "DeviceQuote | None" = None
    _gps_attached: bool = field(default=False, repr=False)

    def attach_gps(self, receiver: SimulatedGpsReceiver,
                   now: Callable[[], float],
                   spoof_detection: bool = False) -> None:
        """Wire a GPS receiver peripheral into the secure world.

        Registers the receiver in the device tree and the secure GPS
        driver as a kernel service.  Must happen before the GPS Sampler TA
        is used.

        Args:
            spoof_detection: also provision the §VII-A2 spoofing detector;
                the GPS Sampler then refuses to sign while the fix stream
                looks implausible.
        """
        if self._gps_attached:
            raise TeeError("a GPS receiver is already attached")
        self.core.register_device("gps-uart", receiver)
        driver = SecureGpsDriver(receiver, self.monitor.state, now)
        self.core.register_kernel_service(SecureGpsDriver.SERVICE_NAME, driver)
        if spoof_detection:
            from repro.tee.spoof_detector import GpsSpoofingDetector

            detector = GpsSpoofingDetector(self.monitor.state)
            self.core.register_kernel_service(
                GpsSpoofingDetector.SERVICE_NAME, detector)
        self._gps_attached = True

    @property
    def gps_driver(self) -> SecureGpsDriver:
        """The secure GPS driver (for instrumentation in tests/benchmarks)."""
        return self.core._kernel_services[SecureGpsDriver.SERVICE_NAME]


def provision_device(device_id: str, *, key_bits: int = 1024,
                     rng: random.Random | None = None,
                     vendor_key: RsaPrivateKey | None = None,
                     hash_name: str = "sha1") -> TrustZoneDevice:
    """Manufacture a TrustZone device with a fresh TEE keypair.

    Args:
        device_id: manufacturer serial number.
        key_bits: TEE sign key size (the paper benchmarks 1024 and 2048).
        rng: randomness source; seed it for reproducible devices.
        vendor_key: TA-signing vendor key; generated if omitted.
        hash_name: kept for symmetry with the client (unused here).

    Returns:
        A fully provisioned :class:`TrustZoneDevice` whose private key
        exists only sealed inside the device.
    """
    del hash_name  # sessions choose their hash at open time
    rng = rng or random.SystemRandom()
    if vendor_key is None:
        # The vendor key only authenticates TA images; a small-but-valid
        # key keeps provisioning cheap without touching the measured path.
        vendor_key = generate_rsa_keypair(max(512, min(key_bits, 1024)), rng=rng)

    core = OpTeeCore(ta_verification_key=vendor_key.public_key)
    monitor = SecureMonitor(core)

    # Device root key: burned into fuses at manufacture, secure world only.
    root_material = rng.randbytes(32)
    root_handle = SecureKeyHandle(root_material, monitor.state,
                                  f"device root key ({device_id})")
    storage = SealedStorage(root_handle, monitor.state)
    core.sealed_storage = storage

    # Generate T inside the secure world and seal T-; only T+ escapes.
    def _mint_tee_keypair() -> RsaPublicKey:
        keypair = generate_rsa_keypair(key_bits, rng=rng)
        storage.seal(SIGN_KEY_ENTRY, private_key_to_bytes(keypair))
        return keypair.public_key

    tee_public_key = monitor.secure_boot_call(_mint_tee_keypair)

    # Build, sign, and install the GPS Sampler TA image: the one signing
    # TA, serving every registered authentication scheme.
    core.ta_store.install(sign_trusted_app(GpsSamplerTA, GpsSamplerTA.UUID,
                                           vendor_key))

    # Issue the attestation quote: manufacturer-signed binding of the
    # device serial, T+, and the shipped TA image measurement.
    from repro.tee.optee import _ta_code_bytes

    measurement = hashlib.sha256(
        _ta_code_bytes(GpsSamplerTA, GpsSamplerTA.UUID)).digest()
    quote = DeviceQuote.issue(device_id, tee_public_key, measurement,
                              vendor_key)

    return TrustZoneDevice(device_id=device_id, core=core, monitor=monitor,
                           client=TeeClient(monitor), sealed_storage=storage,
                           tee_public_key=tee_public_key, quote=quote)
