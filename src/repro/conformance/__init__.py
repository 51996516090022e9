"""Differential conformance harness for the verification pipeline.

An independent, deliberately naive reference verifier
(:mod:`repro.conformance.reference`) re-implements the Auditor's
specification straight from the paper — no stages, no caches, no spatial
index — and the harness (:mod:`repro.conformance.harness`) runs randomized
trajectories (honest and mutated) through both implementations, asserting
report-for-report agreement.  A disagreement means one of the two strayed
from the specification; the staged pipeline never gets to drift silently.
"""

from repro.conformance.harness import (
    ConformanceReport,
    run_differential,
    run_sampler_equivalence,
)
from repro.conformance.reference import reference_open, reference_verify

__all__ = [
    "ConformanceReport",
    "reference_open",
    "reference_verify",
    "run_differential",
    "run_sampler_equivalence",
]
