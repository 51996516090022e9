"""The Auditor's no-fly-zone registry.

The NFZ database backs the zone query with a spatial index so rectangle
lookups stay fast with many registered zones.  The drone table of §IV-B
step 0 (``(id_drone, D+, T+)``) lives in the durable
:class:`repro.server.store.FlightStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.nfz import NoFlyZone
from repro.errors import RegistrationError
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.geo.spatial_index import GridIndex


@dataclass(frozen=True, slots=True)
class RegisteredZone:
    """One row of the NFZ table: ``(id_zone, z)`` plus ownership metadata."""

    zone_id: str
    zone: NoFlyZone
    owner_name: str = ""


class NfzDatabase:
    """Spatially indexed NFZ registry."""

    def __init__(self, frame: LocalFrame, cell_size_m: float = 500.0):
        self.frame = frame
        self._index: GridIndex[str] = GridIndex(cell_size_m)
        self._zones: dict[str, RegisteredZone] = {}
        self._counter = 0
        #: Memo of :meth:`zone_set`; every mutator drops it.
        self._zone_set: tuple[NoFlyZone, ...] | None = None

    def register(self, zone: NoFlyZone, owner_name: str = "",
                 proof_of_ownership: str = "") -> RegisteredZone:
        """Add a zone after a (modelled) ownership check."""
        if not proof_of_ownership:
            raise RegistrationError("zone registration requires proof of ownership")
        self._counter += 1
        zone_id = f"zone-{self._counter:06d}"
        record = RegisteredZone(zone_id=zone_id, zone=zone,
                                owner_name=owner_name)
        self._zones[zone_id] = record
        self._index.insert(zone_id, zone.to_circle(self.frame))
        self._zone_set = None
        return record

    def lookup(self, zone_id: str) -> RegisteredZone:
        """The record for ``zone_id``; raises if unregistered."""
        record = self._zones.get(zone_id)
        if record is None:
            raise RegistrationError(f"unknown zone id {zone_id!r}")
        return record

    def deregister(self, zone_id: str) -> RegisteredZone:
        """Remove a zone (the owner withdrew it); returns the old record."""
        record = self.lookup(zone_id)
        del self._zones[zone_id]
        self._index.remove(zone_id)
        self._zone_set = None
        return record

    def update(self, zone_id: str, zone: NoFlyZone) -> RegisteredZone:
        """Replace a zone's geometry (e.g. a corrected survey).

        The identifier and ownership metadata are preserved.
        """
        old = self.lookup(zone_id)
        record = RegisteredZone(zone_id=zone_id, zone=zone,
                                owner_name=old.owner_name)
        self._zones[zone_id] = record
        self._index.insert(zone_id, zone.to_circle(self.frame))
        self._zone_set = None
        return record

    def query_rect(self, corner_a: GeoPoint,
                   corner_b: GeoPoint) -> list[RegisteredZone]:
        """All zones whose circle intersects the geographic rectangle."""
        ax, ay = self.frame.to_local(corner_a)
        bx, by = self.frame.to_local(corner_b)
        ids = self._index.query_rect(min(ax, bx), min(ay, by),
                                     max(ax, bx), max(ay, by))
        return [self._zones[zone_id] for zone_id in ids]

    def zone_set(self) -> tuple[NoFlyZone, ...]:
        """Every registered zone's geometry, as one immutable tuple.

        The same tuple object is returned until a zone is registered,
        updated or deregistered, so its identity versions the zone set:
        the audit engine reuses its zone index for as long as it keeps
        receiving the same object.
        """
        if self._zone_set is None:
            self._zone_set = tuple(r.zone for r in self._zones.values())
        return self._zone_set

    def all_zones(self) -> Iterator[RegisteredZone]:
        """Every registered zone."""
        return iter(self._zones.values())

    def __len__(self) -> int:
        return len(self._zones)

    def __contains__(self, zone_id: str) -> bool:
        return zone_id in self._zones
