#!/usr/bin/env python3
"""The secure-world GPS spoofing detector in action (paper §VII-A2).

An attacker tries to defeat AliDrone *below* the TEE: instead of forging
signatures (hopeless — see rogue_drone_audit.py), they feed synthetic GPS
signals so the enclave signs a fabricated position.  The paper's proposed
defence is a spoofing detector inside the secure world: "If the hardware
is running in a suspicious environment, the GPS Sampler can decline to
provide authenticity services."

This example shows the detector catching three classic spoofing
signatures — a position teleport, a rewound GPS clock, and a frozen clock
— and the GPS Sampler refusing to sign until the environment looks sane
again.

Run:  python examples/spoofing_defense.py
"""

import random

from repro.errors import TrustedAppError
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.gps.receiver import SimulatedGpsReceiver
from repro.gps.replay import WaypointSource
from repro.sim.clock import DEFAULT_EPOCH, SimClock
from repro.tee.attestation import provision_device
from repro.tee.gps_sampler_ta import (
    CMD_GET_GPS_AUTH,
    CMD_START_FLIGHT,
    GPS_SAMPLER_UUID,
)

T0 = DEFAULT_EPOCH


def try_sign(device, sid, clock, label):
    try:
        device.client.invoke(sid, CMD_GET_GPS_AUTH)
        print(f"  [{clock.now - T0:6.1f} s] {label:<34} -> signed")
        return True
    except TrustedAppError as exc:
        reason = str(exc).split(";")[0]
        print(f"  [{clock.now - T0:6.1f} s] {label:<34} -> DECLINED: "
              f"{reason}")
        return False


def main() -> None:
    rng = random.Random(55)
    frame = LocalFrame(GeoPoint(40.1000, -88.2200))

    # The "real" flight is a gentle 10 m/s eastbound track...
    # ...but at t = +6 s the spoofer jumps the reported position 40 km
    # away (to paint an innocent trajectory far from any NFZ), and at
    # t = +40 s it replays old signals, rewinding the GPS clock.
    source = WaypointSource([
        (T0, 0.0, 0.0),
        (T0 + 5.8, 58.0, 0.0),
        (T0 + 6.0, 40_000.0, 0.0),        # teleport: spoofed position
        (T0 + 60.0, 40_540.0, 0.0),
    ])
    device = provision_device("defended-drone", key_bits=1024, rng=rng)
    clock = SimClock(T0)
    receiver = SimulatedGpsReceiver(source, frame, update_rate_hz=5.0,
                                    start_time=T0, seed=3)
    device.attach_gps(receiver, clock, spoof_detection=True)
    sid = device.client.open_session(GPS_SAMPLER_UUID)
    device.client.invoke(sid, CMD_START_FLIGHT)

    print("phase 1: honest environment")
    clock.advance(1.0)
    assert try_sign(device, sid, clock, "normal sample")
    clock.advance(2.0)
    assert try_sign(device, sid, clock, "normal sample")

    print("\nphase 2: spoofer teleports the reported position 40 km")
    clock.advance_to(T0 + 7.0)
    assert not try_sign(device, sid, clock, "sample after teleport")
    clock.advance(5.0)
    assert not try_sign(device, sid, clock, "still inside hold-down")

    print("\nphase 3: spoofer gives up; hold-down expires")
    clock.advance_to(T0 + 7.0 + 31.0)
    assert try_sign(device, sid, clock, "plausible track resumed")

    declines = device.core.op_counters["spoof_declines"]
    signed = device.core.op_counters["gps_auth_samples"]
    print(f"\nsummary: {signed} samples signed, {declines} declined — the "
          "attacker's fabricated positions never received a TEE signature")


if __name__ == "__main__":
    main()
