"""Run a sampling policy over a scenario through the full real pipeline.

Every run provisions a TrustZone device (real keys, real TA, real sealed
storage), attaches a fresh receiver, and drives either sampler through the
Adapter.  Nothing on the measured path is stubbed; the only modelled
quantity is per-operation *cost* (see :mod:`repro.perf`), because this
machine is not a Raspberry Pi.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.sampling import AdaptiveSampler, FixRateSampler, SamplingResult
from repro.crypto.schemes import SCHEME_RSA
from repro.drone.adapter import Adapter
from repro.errors import ConfigurationError
from repro.gps.receiver import SimulatedGpsReceiver
from repro.obs.trace import get_tracer
from repro.sim.clock import SimClock
from repro.tee.attestation import TrustZoneDevice, provision_device
from repro.units import FAA_MAX_SPEED_MPS
from repro.workloads.scenario import Scenario


@dataclass
class PolicyRun:
    """One policy execution over a scenario, with its platform objects."""

    scenario: Scenario
    policy_label: str
    key_bits: int
    result: SamplingResult
    device: TrustZoneDevice
    receiver: SimulatedGpsReceiver

    @property
    def sample_count(self) -> int:
        """Authenticated samples taken."""
        return self.result.stats.auth_samples

    @property
    def sample_times(self) -> list[float]:
        """Instants at which authenticated samples were taken."""
        return list(self.result.stats.sample_times)


def provision_run_device(key_bits: int, seed: int) -> TrustZoneDevice:
    """A deterministic TrustZone device for workload runs."""
    return provision_device(f"workload-dev-{key_bits}-{seed}",
                            key_bits=key_bits, rng=random.Random(seed))


def run_policy(scenario: Scenario, policy: str,
               fixed_rate_hz: float | None = None, *,
               update_rate_hz: float = 5.0, key_bits: int = 1024,
               seed: int = 0, hash_name: str = "sha1",
               margin_updates: float = 2.0,
               vmax_mps: float = FAA_MAX_SPEED_MPS,
               device: TrustZoneDevice | None = None,
               use_index: bool = True,
               degraded_mode: bool = False,
               injector=None,
               tee_retry_policy=None,
               scheme: str = SCHEME_RSA) -> PolicyRun:
    """Execute one sampling policy over ``scenario``.

    Args:
        policy: ``"adaptive"`` or ``"fixed"``.
        fixed_rate_hz: sampler wake rate for the fixed policy.
        update_rate_hz: GPS receiver update rate (paper hardware: 1-5 Hz).
        key_bits: TEE sign key size.
        seed: seeds device provisioning and receiver randomness.
        device: reuse an already provisioned device (it must not have a
            GPS attached yet).
        use_index: adaptive policy only — drive the per-update zone scan
            through the spatial index (decisions are identical either way).
        degraded_mode: adaptive policy only — inflate the safety margin
            across GPS dropout gaps (see the sampler docstring).
        injector: optional fault injector wired into the receiver
            (``gps.update``) and the device's secure monitor (``tee.smc``).
        tee_retry_policy: retry transient TEE entry failures inside the
            adapter (required for flights to survive ``tee.smc`` faults).
        scheme: sample-authentication scheme id; the resulting PoA is
            sealed with the flight finalizer for flight-level schemes.
    """
    clock = SimClock(scenario.t_start)
    receiver = scenario.make_receiver(update_rate_hz=update_rate_hz,
                                      seed=seed, injector=injector)
    if device is None:
        device = provision_run_device(key_bits, seed)
    device.attach_gps(receiver, clock)
    if injector is not None:
        device.monitor.attach_injector(injector)
    adapter = Adapter(device, receiver, clock, hash_name=hash_name,
                      retry_policy=tee_retry_policy,
                      retry_rng=random.Random(seed),
                      scheme=scheme, signer_seed=seed)

    if policy == "adaptive":
        sampler = AdaptiveSampler(scenario.zones, scenario.frame,
                                  vmax_mps=vmax_mps,
                                  gps_rate_hz=update_rate_hz,
                                  margin_updates=margin_updates,
                                  use_index=use_index,
                                  degraded_mode=degraded_mode)
        label = "adaptive"
    elif policy == "fixed":
        if fixed_rate_hz is None:
            raise ConfigurationError("fixed policy requires fixed_rate_hz")
        sampler = FixRateSampler(fixed_rate_hz)
        label = f"fixed-{fixed_rate_hz:g}hz"
    else:
        raise ConfigurationError(f"unknown policy {policy!r}")

    with get_tracer().span("flight", policy=label, key_bits=key_bits,
                           scenario=scenario.description) as span:
        result = adapter.fly(sampler, scenario.t_end)
        span.set_attribute("auth_samples", result.stats.auth_samples)
    return PolicyRun(scenario=scenario, policy_label=label,
                     key_bits=key_bits, result=result,
                     device=device, receiver=receiver)
