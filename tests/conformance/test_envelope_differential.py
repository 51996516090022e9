"""Differential conformance for the sealed PoA envelope.

Every authentication scheme crossed with every traffic shape the fleet
simulator produces — honest flights, the five adversary attacks, chaos
drop/duplicate/corrupt and flood junk — goes through the
:class:`AuditEngine`.  Two things must hold on every row:

* the engine's report equals the independent path, which opens the
  envelope with :func:`reference_open` and judges it with
  :func:`reference_verify` (an envelope that does not open must verdict
  ``decrypt_failed``);
* :func:`decrypt_poa` opens exactly the payloads :func:`reference_open`
  opens, or both fail — and a failure carries the one envelope message.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.conformance import reference_open, reference_verify
from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample, decrypt_poa, encrypt_poa
from repro.core.verification import (
    PoaVerifier,
    RejectionReason,
    VerificationStatus,
)
from repro.crypto.envelope import OPEN_FAILED
from repro.crypto.rsa import RsaPrivateKey, generate_rsa_keypair
from repro.crypto.schemes import scheme_ids
from repro.errors import EncryptionError
from repro.faults.plan import FaultPlan, FaultRule
from repro.fleetsim.traffic import (
    ATTACK_CLASSES,
    POINT_FLEET_UPLINK,
    adversary_stream,
    chaos_stream,
    flood_stream,
    honest_stream,
)
from repro.server.engine import AuditEngine
from repro.workloads.fleet import FleetDrone

CHAOS_ACTIONS = ("drop", "duplicate", "corrupt")
#: Rows kept per traffic shape (each shape's stream is cut to this).
PER_SHAPE = 3


@pytest.fixture(scope="module")
def world(frame):
    auditor = generate_rsa_keypair(512, rng=random.Random(7101))
    fleet = [FleetDrone(
        drone_id=f"drone-{i}",
        tee_key=generate_rsa_keypair(512, rng=random.Random(7200 + i)),
        operator_key=generate_rsa_keypair(512, rng=random.Random(7300 + i)),
        region=f"region-{i % 2}") for i in range(3)]
    center = frame.to_geo(0.0, 0.0)
    zones = [NoFlyZone(center.lat, center.lon, 50.0)]
    return auditor, fleet, zones


def traffic_rows(scheme, auditor, fleet, frame):
    """(shape, submission, must_reject) for every shape under ``scheme``."""
    enc = auditor.public_key
    scheme_of = {drone.drone_id: scheme for drone in fleet}
    common = dict(frame=frame, scheme_of=scheme_of, duration_s=30.0)
    shapes = {"honest": honest_stream(fleet, enc, seed=1, rate_hz=1.0,
                                      **common)}
    for attack in ATTACK_CLASSES:
        shapes[attack] = adversary_stream(fleet, enc, seed=2, rate_hz=1.0,
                                          attacks=(attack,), **common)
    for action in CHAOS_ACTIONS:
        plan = FaultPlan(name=f"chaos-{action}", seed=3, rules=(
            FaultRule(point=POINT_FLEET_UPLINK, action=action,
                      probability=0.4),))
        shapes[f"chaos_{action}"] = chaos_stream(
            fleet, enc, seed=3, rate_hz=1.0, plan=plan, **common)
    shapes["flood_junk"] = [
        dataclasses.replace(event, submission=dataclasses.replace(
            event.submission, scheme=scheme))
        for event in flood_stream(fleet[:1], enc, frame=frame, seed=4,
                                  burst_per_s=2 * PER_SHAPE,
                                  duration_s=3.0)
        if event.must_reject]
    rows = []
    for shape, events in shapes.items():
        assert len(events) >= PER_SHAPE, shape
        rows += [(shape, event.submission, event.must_reject)
                 for event in events[:PER_SHAPE]]
    return rows


@pytest.fixture(scope="module", params=scheme_ids())
def audited(request, world, frame):
    auditor, fleet, zones = world
    keys = {drone.drone_id: drone.tee_key.public_key for drone in fleet}
    rows = traffic_rows(request.param, auditor, fleet, frame)
    engine = AuditEngine(PoaVerifier(frame), tee_key_lookup=keys.__getitem__,
                         encryption_key=auditor,
                         zones_provider=lambda: zones)
    result = engine.audit_batch([submission for _, submission, _ in rows])
    return auditor, keys, zones, rows, result.reports


def test_engine_verdict_equals_reference_open_and_verify(audited, frame):
    auditor, keys, zones, rows, reports = audited
    opened = failed = 0
    for (shape, submission, must_reject), got in zip(rows, reports):
        payloads = reference_open(submission.records, auditor)
        if payloads is None:
            failed += 1
            assert (got.status, got.reason) == (
                VerificationStatus.REJECTED_MALFORMED,
                RejectionReason.DECRYPT_FAILED), shape
            assert got.message == f"PoA decryption failed: {OPEN_FAILED}"
        else:
            opened += 1
            poa = ProofOfAlibi(
                (SignedSample(payload=payload, signature=record.signature,
                              scheme=submission.scheme)
                 for payload, record in zip(payloads, submission.records)),
                scheme=submission.scheme, finalizer=submission.finalizer)
            want = reference_verify(poa, keys[submission.drone_id], zones,
                                    frame)
            assert got == want, shape
        if must_reject:
            assert got.status is not VerificationStatus.ACCEPTED, shape
    assert opened and failed


def test_decrypt_poa_opens_what_reference_open_opens(audited):
    auditor, _keys, _zones, rows, _reports = audited
    for shape, submission, _must_reject in rows:
        want = reference_open(submission.records, auditor)
        try:
            got = [entry.payload
                   for entry in decrypt_poa(submission.records, auditor)]
        except EncryptionError as exc:
            assert str(exc) == OPEN_FAILED, shape
            got = None
        assert got == want, shape


def test_reference_open_shares_no_crt_code(monkeypatch):
    """The oracle unwraps with ``pow(c, d, n)``: it still opens a sealed
    three-prime submission while the key's own private operation is
    broken, which the implementation's path cannot."""
    auditor = generate_rsa_keypair(1024, rng=random.Random(7102))
    payloads = [b"sample-%d" % i for i in range(3)]
    poa = ProofOfAlibi(SignedSample(payload=payload, signature=b"sig")
                       for payload in payloads)
    records = encrypt_poa(poa, auditor.public_key, rng=random.Random(1))

    def broken(key, value):
        raise AssertionError("the private-key CRT path was used")

    monkeypatch.setattr(RsaPrivateKey, "raw_decrypt", broken)
    with pytest.raises(AssertionError):
        decrypt_poa(records, auditor)
    assert reference_open(records, auditor) == payloads
