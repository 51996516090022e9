"""The Auditor's no-fly-zone registry.

The NFZ database backs the zone query with a spatial index so rectangle
lookups stay fast with many registered zones.  Its rows, like the drone
table of §IV-B step 0 (``(id_drone, D+, T+)``), live in the durable
:class:`repro.server.store.FlightStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.nfz import NoFlyZone
from repro.errors import RegistrationError
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.geo.spatial_index import GridIndex
from repro.server.store import FlightStore

#: Cell edge of the zone query's grid index, in metres.
ZONE_INDEX_CELL_M = 500.0


@dataclass(frozen=True, slots=True)
class RegisteredZone:
    """One row of the NFZ table: ``(id_zone, z)`` plus ownership metadata."""

    zone_id: str
    zone: NoFlyZone
    owner_name: str = ""


class NfzDatabase:
    """Spatially indexed NFZ registry over a store's ``zones`` table.

    The zones are loaded in id order when the database is built, and
    every change is written through to ``store`` (a private in-memory
    one when omitted); the grid index and :meth:`zone_set` are views.
    """

    def __init__(self, frame: LocalFrame, store: FlightStore | None = None):
        self.frame = frame
        self.store = store if store is not None else FlightStore()
        self._index: GridIndex[str] = GridIndex(ZONE_INDEX_CELL_M)
        self._zones: dict[str, RegisteredZone] = {}
        #: ``(zone, owner_name) -> zone_id`` of the live zones, so that a
        #: registration already held is found without a store read.
        self._ids: dict[tuple[NoFlyZone, str], str] = {}
        #: Memo of :meth:`zone_set`; every mutator drops it.
        self._zone_set: tuple[NoFlyZone, ...] | None = None
        for zone_id, zone, owner_name in self.store.load_zones():
            self._put(RegisteredZone(zone_id, zone, owner_name))

    def _put(self, record: RegisteredZone) -> RegisteredZone:
        self._zones[record.zone_id] = record
        self._ids.setdefault((record.zone, record.owner_name), record.zone_id)
        self._index.insert(record.zone_id, record.zone.to_circle(self.frame))
        self._zone_set = None
        return record

    def _forget(self, record: RegisteredZone) -> None:
        key = (record.zone, record.owner_name)
        if self._ids.get(key) == record.zone_id:
            del self._ids[key]

    def register(self, zone: NoFlyZone, owner_name: str = "",
                 proof_of_ownership: str = "") -> RegisteredZone:
        """Add a zone after a (modelled) ownership check.

        Registering a live zone again under the same owner returns its
        existing record and changes nothing, so a restarted caller can
        register its zones unconditionally.
        """
        if not proof_of_ownership:
            raise RegistrationError("zone registration requires proof of ownership")
        zone_id = self._ids.get((zone, owner_name))
        if zone_id is not None:
            return self._zones[zone_id]
        return self._put(RegisteredZone(self.store.add_zone(zone, owner_name),
                                        zone, owner_name))

    def lookup(self, zone_id: str) -> RegisteredZone:
        """The record for ``zone_id``; raises if unregistered."""
        record = self._zones.get(zone_id)
        if record is None:
            raise RegistrationError(f"unknown zone id {zone_id!r}")
        return record

    def deregister(self, zone_id: str) -> RegisteredZone:
        """Remove a zone (the owner withdrew it); returns the old record."""
        record = self.lookup(zone_id)
        self.store.delete_zone(zone_id)
        self._forget(record)
        del self._zones[zone_id]
        self._index.remove(zone_id)
        self._zone_set = None
        return record

    def update(self, zone_id: str, zone: NoFlyZone) -> RegisteredZone:
        """Replace a zone's geometry (e.g. a corrected survey).

        The identifier and ownership metadata are preserved.
        """
        old = self.lookup(zone_id)
        self.store.update_zone(zone_id, zone)
        self._forget(old)
        return self._put(RegisteredZone(zone_id=zone_id, zone=zone,
                                        owner_name=old.owner_name))

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
