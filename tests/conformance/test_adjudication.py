"""The §IV-C2 adjudication predicate and the one auditor decision path.

:func:`repro.core.sufficiency.bracketing_pair_clears` is the predicate
both incident adjudicators call (the server's and the §VII-B3 private
one).  On a feasible signed pair it must clear the accused drone exactly
when the pair brackets the incident and the independent
:func:`repro.conformance.reference_verify` accepts the pair as a
two-sample PoA against the accusing zone.  The guard tests keep every
verdict on the staged pipeline and every evaluation of eq. (1) in
:mod:`repro.core.sufficiency`.
"""

from __future__ import annotations

import ast
import importlib
import math
import pathlib
import random

import pytest

import repro
from repro.conformance import reference_verify
from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.samples import GpsSample
from repro.core.sufficiency import bracketing_pair_clears
from repro.core.verification import VerificationStatus
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.sim.clock import DEFAULT_EPOCH
from repro.units import FAA_MAX_SPEED_MPS

SRC = pathlib.Path(repro.__file__).parent


def signed(key, frame, x, y, t) -> SignedSample:
    point = frame.to_geo(x, y)
    payload = GpsSample(lat=point.lat, lon=point.lon, t=t).to_signed_payload()
    return SignedSample(payload=payload,
                        signature=sign_pkcs1_v15(key, payload, "sha1"))


def random_case(rng, frame, key):
    """A feasible signed pair and a zone near it.

    The zone centre lies within one focal sum (plus its radius) of the
    pair's midpoint, so about half the pairs clear it and half do not.
    """
    dt = rng.uniform(0.5, 20.0)
    reach = FAA_MAX_SPEED_MPS * dt
    t0 = DEFAULT_EPOCH + rng.uniform(0.0, 3_600.0)
    ax, ay = rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    step = rng.uniform(0.0, 0.95) * reach
    bx, by = ax + step * math.cos(heading), ay + step * math.sin(heading)
    radius = rng.uniform(5.0, 150.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    distance = rng.uniform(0.0, radius + reach)
    center = frame.to_geo((ax + bx) / 2.0 + distance * math.cos(angle),
                          (ay + by) / 2.0 + distance * math.sin(angle))
    poa = ProofOfAlibi([signed(key, frame, ax, ay, t0),
                        signed(key, frame, bx, by, t0 + dt)])
    return poa, NoFlyZone(center.lat, center.lon, radius)


@pytest.mark.parametrize("seed", range(4))
def test_conservative_clear_is_reference_acceptance_inside_the_interval(
        frame, signing_key, seed):
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(25):
        poa, zone = random_case(rng, frame, signing_key)
        want = reference_verify(poa, signing_key.public_key, [zone], frame)
        assert want.status in (VerificationStatus.ACCEPTED,
                               VerificationStatus.INSUFFICIENT)
        accepted = want.status is VerificationStatus.ACCEPTED
        verdicts.add(accepted)
        samples = [entry.sample for entry in poa]
        first, last = samples[0].t, samples[1].t
        inside = [first, last, rng.uniform(first, last)]
        outside = [first - rng.uniform(0.01, 10.0),
                   last + rng.uniform(0.01, 10.0)]
        for instant in inside + outside:
            conservative = bracketing_pair_clears(samples, zone, instant,
                                                  frame)
            assert conservative is (accepted and instant in inside)
            if conservative:
                assert bracketing_pair_clears(samples, zone, instant, frame,
                                              method="exact")
    assert verdicts == {True, False}


def test_streaming_verifier_is_gone():
    """A completed stream is audited by the pipeline, not a second
    verifier."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.incremental")


_PREDICATE_NAMES = frozenset({"pair_is_sufficient", "TravelRangeEllipse",
                              "min_pair_distance"})


def _predicate_uses(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if (name in _PREDICATE_NAMES
                or name.startswith("ellipse_disk_disjoint_")):
            found.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    return found


def test_adjudicators_and_disclosure_reach_eq1_only_through_sufficiency():
    modules = [path for package in ("server", "privacy", "cli")
               for path in sorted((SRC / package).rglob("*.py"))]
    modules.append(SRC / "extensions" / "privacy.py")
    assert len(modules) > 3
    uses = [use for path in modules for use in _predicate_uses(path)]
    assert uses == []
