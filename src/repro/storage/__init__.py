"""Persistence on the drone: the local PoA vault.

The prototype "persists the ciphertext along with the signature in the
local storage" (§V-C): an append-only, restart-safe flight vault.  The
Auditor's durable state is :class:`repro.server.store.FlightStore`.
"""

from repro.storage.vault import PoaVault, VaultEntry

__all__ = ["PoaVault", "VaultEntry"]
