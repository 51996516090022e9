"""Software Trusted Execution Environment modelled on ARM TrustZone/OP-TEE.

The paper's security argument rests on one hardware property: the TEE sign
key ``T-`` is reachable only through the GPS Sampler TA's ``GetGPSAuth``
interface, never as raw bytes in the normal world.  This package turns that
property into an executable contract:

* :class:`~repro.tee.monitor.SecureMonitor` is the only door between the
  worlds (the Secure Monitor Call of Fig. 1); it tracks which world is
  currently executing and counts world switches for the cost model.
* :class:`~repro.tee.worlds.SecureKeyHandle` wraps private key material and
  refuses to reveal it unless the secure world is executing — touching it
  from the normal world raises :class:`~repro.errors.WorldIsolationError`,
  the simulator's analogue of a TrustZone bus fault.
* :class:`~repro.tee.optee.OpTeeCore` loads signature-verified Trusted
  Applications by UUID from untrusted storage (the tee-supplicant flow) and
  hosts statically built-in Pseudo TAs with peripheral access.
* :mod:`~repro.tee.attestation` provisions the device keypair at
  "manufacture time" so the private key is born inside the secure world.
"""

from repro.tee.worlds import World, SecureKeyHandle
from repro.tee.monitor import SecureMonitor, SmcStats
from repro.tee.optee import OpTeeCore, TaStore, sign_trusted_app
from repro.tee.trusted_app import TrustedApplication, PseudoTrustedApplication, TaSession
from repro.tee.secure_storage import SealedStorage
from repro.tee.gps_driver import SecureGpsDriver
from repro.tee.gps_sampler_ta import (
    GpsSamplerTA,
    CMD_START_FLIGHT,
    CMD_GET_GPS_AUTH,
    CMD_FINALIZE_FLIGHT,
    CMD_GET_PUBLIC_KEY,
)
from repro.tee.attestation import TrustZoneDevice, provision_device

__all__ = [
    "World",
    "SecureKeyHandle",
    "SecureMonitor",
    "SmcStats",
    "OpTeeCore",
    "TaStore",
    "sign_trusted_app",
    "TrustedApplication",
    "PseudoTrustedApplication",
    "TaSession",
    "SealedStorage",
    "SecureGpsDriver",
    "GpsSamplerTA",
    "CMD_START_FLIGHT",
    "CMD_GET_GPS_AUTH",
    "CMD_FINALIZE_FLIGHT",
    "CMD_GET_PUBLIC_KEY",
    "TrustZoneDevice",
    "provision_device",
]
