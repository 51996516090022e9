#!/usr/bin/env python3
"""A delivery fleet under one Auditor: mixed compliance over a day.

Three drones operated by the same company run missions through a shared
zone map on one virtual timeline (the :class:`repro.sim.World`
orchestrator).  One pilot cuts a corner through a protected zone; the
Auditor's evidence retention and penalty ledger single them out while the
compliant drones accumulate clean audits.

Run:  python examples/fleet_compliance.py
"""

from repro.sim.world import World


def main() -> None:
    world = World(seed=11, key_bits=1024)

    # The shared zone map: a hospital helipad, a school, two backyards.
    zones = {
        "hospital": world.register_zone(600.0, 200.0, 80.0,
                                        owner_name="county hospital"),
        "school": world.register_zone(1400.0, -100.0, 60.0,
                                      owner_name="school district"),
        "yard-1": world.register_zone(950.0, 60.0, 25.0, owner_name="carol"),
        "yard-2": world.register_zone(1900.0, 150.0, 25.0, owner_name="dan"),
    }
    print(f"zone map: {len(zones)} NFZs registered")

    for name, home in [("falcon", (0.0, 0.0)), ("heron", (100.0, -50.0)),
                       ("osprey", (50.0, 50.0))]:
        world.add_drone(name, home=home)
    print(f"fleet: {', '.join(world.drones)} registered "
          f"({world.server.store.drone_count()} drones)\n")

    # --- morning missions: everyone flies wide of the zones ---------------
    print("morning missions (compliant):")
    for name, waypoints in [("falcon", [(800.0, -250.0), (2200.0, -300.0)]),
                            ("heron", [(1000.0, 400.0), (2100.0, 420.0)]),
                            ("osprey", [(500.0, -400.0), (1200.0, -450.0)])]:
        record = world.fly_mission(name, waypoints)
        stats = record.result.stats
        print(f"  {name:<7} {stats.duration:5.0f} s, "
              f"{stats.auth_samples:3d} signed samples")

    # --- afternoon: all three fly again; osprey cuts straight through the
    # hospital zone.  Synchronize the fleet clocks so every afternoon PoA
    # covers the incident instant (a drone with no PoA at the reported
    # time is found in violation by burden of proof).
    sync = max(actor.clock.now for actor in world.drones.values()) + 10.0
    for actor in world.drones.values():
        actor.clock.advance_to(sync)
    print("\nafternoon: osprey cuts a corner through the hospital zone")
    world.fly_mission("falcon", [(0.0, -250.0)])
    world.fly_mission("heron", [(0.0, 400.0)])
    rogue = world.fly_mission("osprey", [(600.0, 200.0), (30.0, 30.0)],
                              policy="fixed", fixed_rate_hz=2.0)

    # The Zone Owner spots the drone while it is actually inside the zone:
    # scan osprey's ground-truth timeline for the incursion instant.
    hospital_circle = None
    for record_id, zone_record in world.server.zones._zones.items():
        if record_id == zones["hospital"]:
            hospital_circle = zone_record.zone.to_circle(world.frame)
    t = rogue.result.stats.start_time
    incident_time = None
    while t <= rogue.result.stats.end_time:
        if hospital_circle.contains(
                world.drones["osprey"].timeline.position_at(t)):
            incident_time = t
            break
        t += 0.5
    assert incident_time is not None, "osprey never entered the zone?"

    # --- incident reports come in for everyone near the hospital ----------
    print("\nincident reports against all three drones at the same instant:")
    for name in world.drones:
        finding = world.report_incident(zones["hospital"], name,
                                        incident_time,
                                        description="drone over the helipad")
        verdict = (f"VIOLATION ({finding.kind.value})" if finding.violation
                   else "cleared")
        print(f"  {name:<7} -> {verdict}")

    # --- the ledger singles out the offender --------------------------------
    print("\npenalty ledger:")
    for name, actor in world.drones.items():
        offences = world.server.ledger.offences(actor.drone_id)
        fines = world.server.ledger.total_fines(actor.drone_id)
        print(f"  {name:<7} offences={offences} fines=${fines:,.0f}")

    osprey = world.drones["osprey"]
    assert world.server.ledger.offences(osprey.drone_id) == 1
    assert all(world.server.ledger.offences(a.drone_id) == 0
               for n, a in world.drones.items() if n != "osprey")


if __name__ == "__main__":
    main()
