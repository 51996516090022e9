"""Auditor-side Proof-of-Alibi verification as a staged pipeline.

The checks the AliDrone Server runs on every submission (paper §IV-C2):

1. **Authenticity** — every sample's TEE signature verifies under the
   drone's registered ``T+``.  A single bad signature rejects the PoA:
   either the trace was tampered with, or it was signed by something other
   than this drone's TEE (forgery, relay).
2. **Well-formedness** — payloads decode, timestamps are non-decreasing.
3. **Physical feasibility** — no consecutive pair implies motion above
   ``v_max``.  An infeasible pair means spliced or fabricated data (the
   travel-range ellipse would be empty).
4. **Disclosure** — Merkle-committed flights only (docs/PROTOCOL.md §8):
   the revealed subset must pin both flight endpoints and every
   undisclosed interval between adjacent revealed fixes must be
   infeasible-to-violate under ``v_max``, judged by the conservative
   sufficiency predicate on the gap pair.
5. **Sufficiency** — equation (1) against the zone set.  Insufficiency is
   not proof of violation, but under the burden-of-proof model the Auditor
   treats it as non-compliance.

Each check is a :class:`VerificationStage` operating on a shared
:class:`VerificationContext`.  The :class:`VerificationPipeline` runs the
stages in order and stops at the first failure, the paper's behaviour.
Per-stage wall time and sample counts are recorded into a
:class:`repro.perf.meter.StageMetrics` when one is supplied, which is how
the batch audit engine (:mod:`repro.server.engine`) accounts for where its
time goes.

Apart from the independent oracle in :mod:`repro.conformance.reference`,
this is the only code that turns a PoA into a verdict: the batch engine,
the real-time path (a completed stream becomes an ordinary submission) and
``alidrone simulate`` all run it.  Both geometric stages evaluate eq. (1)
through :func:`repro.core.sufficiency.insufficient_pairs`.
:class:`PoaVerifier` is the single-submission facade.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi
from repro.core.samples import GpsSample
from repro.core.sufficiency import (
    ZONE_INDEX_MIN_ZONES,
    Method,
    insufficient_pairs,
)
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.schemes import SCHEME_MERKLE, MerkleFinalizer, get_scheme
from repro.errors import EncodingError, SchemeError
from repro.privacy.merkle import MembershipProof
from repro.geo.circle import Circle
from repro.geo.geodesy import LocalFrame
from repro.geo.proximity import ZoneProximityIndex
from repro.obs.trace import get_tracer
from repro.perf.meter import StageMetrics
from repro.units import FAA_MAX_SPEED_MPS

#: Multiplicative tolerance on the speed bound that absorbs GPS noise: an
#: honest drone at the limit is not rejected for metre-level jitter.
FEASIBILITY_SLACK = 1.02


class VerificationStatus(enum.Enum):
    """Outcome of PoA verification, ordered by severity."""

    ACCEPTED = "accepted"
    INSUFFICIENT = "insufficient"           # cannot rule out NFZ entrance
    REJECTED_INFEASIBLE = "infeasible"      # physically impossible motion
    REJECTED_MALFORMED = "malformed"        # undecodable / out-of-order
    REJECTED_BAD_SIGNATURE = "bad_signature"
    REJECTED_EMPTY = "empty"


class RejectionReason(enum.Enum):
    """The stable rejection taxonomy (finer-grained than the status).

    A status can be reached from more than one check — ``REJECTED_MALFORMED``
    covers undecodable payloads, out-of-order timestamps, and (at the
    engine's intake) undecryptable records.  Downstream tooling (the
    adversary matrix, the conformance harness, incident dashboards) needs
    to distinguish them without parsing free-text messages, so every
    non-accepted report carries exactly one of these values.  The string
    values are a wire/report format: never rename them.
    """

    BAD_SIGNATURE = "bad_signature"
    MALFORMED_PAYLOAD = "malformed_payload"
    OUT_OF_ORDER = "out_of_order"
    SPEED_INFEASIBLE = "speed_infeasible"
    INSUFFICIENT_COVERAGE = "insufficient_coverage"
    INSUFFICIENT_DISCLOSURE = "insufficient_disclosure"
    EMPTY_POA = "empty_poa"
    DECRYPT_FAILED = "decrypt_failed"


@dataclass
class VerificationReport:
    """Everything the Auditor learns from one verification run."""

    status: VerificationStatus
    bad_signature_indices: list[int] = field(default_factory=list)
    infeasible_pair_indices: list[int] = field(default_factory=list)
    insufficient_pair_indices: list[int] = field(default_factory=list)
    sample_count: int = 0
    message: str = ""
    #: Why the PoA was not accepted (None exactly when ACCEPTED).
    reason: RejectionReason | None = None

    @property
    def compliant(self) -> bool:
        """Whether the PoA proves compliance."""
        return self.status is VerificationStatus.ACCEPTED


@dataclass(frozen=True, slots=True)
class StageFinding:
    """One failed check: which stage, what outcome, which indices."""

    stage: str
    status: VerificationStatus
    message: str
    indices: tuple[int, ...] = ()
    reason: RejectionReason | None = None


@dataclass
class VerificationContext:
    """Shared state the stages read and extend.

    The immutable inputs (PoA, key, zones, physical parameters) are set up
    front; stages populate the derived fields as they run.  The
    ``zone_circles``, ``zone_index`` and ``bad_signature_indices`` fields
    can be pre-seeded by the batch audit engine so work already done for
    other submissions in the batch is not repeated.
    """

    poa: ProofOfAlibi
    tee_public_key: RsaPublicKey
    zones: Sequence[NoFlyZone]
    frame: LocalFrame
    vmax_mps: float = FAA_MAX_SPEED_MPS
    hash_name: str = "sha1"
    method: Method = "conservative"
    #: When False the sufficiency stage always takes the exhaustive
    #: projected scan, regardless of zone count — the reference arm of the
    #: conformance harness's index/exhaustive decision-equivalence check.
    use_zone_index: bool = True

    #: Decoded samples (set by :class:`DecodeStage`).
    samples: list[GpsSample] | None = None
    #: Local-frame projections parallel to ``samples``.
    positions: list[tuple[float, float]] | None = None
    #: Zone disks projected into the frame (shared across a batch).
    zone_circles: list[Circle] | None = None
    #: Proximity index over ``zone_circles`` (shared across a batch).
    zone_index: ZoneProximityIndex | None = None
    #: Signature results; pre-seeded by the batch audit engine.
    bad_signature_indices: list[int] | None = None

    def ensure_positions(self) -> list[tuple[float, float]]:
        """Project all decoded samples (once)."""
        if self.positions is None:
            if self.samples is None:
                raise RuntimeError("DecodeStage has not run")
            self.positions = [s.local_position(self.frame)
                              for s in self.samples]
        return self.positions

    def ensure_zone_circles(self) -> list[Circle]:
        """Project the zone set once (or reuse the batch-shared list)."""
        if self.zone_circles is None:
            self.zone_circles = [zone.to_circle(self.frame)
                                 for zone in self.zones]
        return self.zone_circles

    def ensure_zone_index(self) -> ZoneProximityIndex | None:
        """The shared proximity index, built on demand for large zone sets.

        Returns the pre-seeded index when the batch engine supplied one;
        otherwise builds one over :meth:`ensure_zone_circles` once the
        zone count justifies the construction cost.  ``None`` means the
        sufficiency stage should fall back to the plain projected scan —
        both paths produce identical verdicts.
        """
        if not self.use_zone_index:
            return None
        if self.zone_index is None and len(self.zones) >= ZONE_INDEX_MIN_ZONES:
            self.zone_index = ZoneProximityIndex.from_circles(
                self.ensure_zone_circles())
        return self.zone_index

    def insufficient_pairs(self, method: Method) -> list[int]:
        """Indices of decoded pairs that fail eq. (1) under ``method``."""
        return insufficient_pairs(
            self.ensure_positions(), [s.t for s in self.samples],
            self.ensure_zone_circles(), self.ensure_zone_index(),
            self.vmax_mps, method)


class VerificationStage:
    """One check of the Auditor pipeline.

    Subclasses set :attr:`name` and implement :meth:`run` returning a
    :class:`StageFinding` on failure (or ``None``).
    """

    name = "stage"

    def run(self, ctx: VerificationContext) -> StageFinding | None:
        raise NotImplementedError

    def sample_count(self, ctx: VerificationContext) -> int:
        """How many samples this stage processed (for metrics)."""
        return len(ctx.poa)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class SignatureStage(VerificationStage):
    """Authenticity: every entry's TEE signature verifies under ``T+``.

    Honours a pre-seeded ``ctx.bad_signature_indices`` so the batch audit
    engine can fan the expensive RSA work out across a worker pool (or
    screen the whole batch with one exponentiation) and feed the result
    back through the unchanged pipeline.
    """

    name = "signature"

    def run(self, ctx: VerificationContext) -> StageFinding | None:
        if ctx.bad_signature_indices is None:
            ctx.bad_signature_indices = get_scheme(ctx.poa.scheme).verify(
                ctx.tee_public_key,
                [(entry.payload, entry.signature) for entry in ctx.poa],
                ctx.poa.finalizer, ctx.hash_name)
        bad = ctx.bad_signature_indices
        if bad:
            return StageFinding(
                stage=self.name,
                status=VerificationStatus.REJECTED_BAD_SIGNATURE,
                message=f"{len(bad)} of {len(ctx.poa)} signatures failed",
                indices=tuple(bad),
                reason=RejectionReason.BAD_SIGNATURE)
        return None


class DecodeStage(VerificationStage):
    """Well-formedness: every payload decodes to a GPS sample."""

    name = "decode"

    def run(self, ctx: VerificationContext) -> StageFinding | None:
        try:
            ctx.samples = [entry.sample for entry in ctx.poa]
        except EncodingError as exc:
            return StageFinding(stage=self.name,
                                status=VerificationStatus.REJECTED_MALFORMED,
                                message=str(exc),
                                reason=RejectionReason.MALFORMED_PAYLOAD)
        return None


class OrderingStage(VerificationStage):
    """Well-formedness: timestamps are non-decreasing."""

    name = "ordering"

    def run(self, ctx: VerificationContext) -> StageFinding | None:
        samples = ctx.samples or []
        if all(b.t >= a.t for a, b in zip(samples, samples[1:])):
            return None
        return StageFinding(
            stage=self.name, status=VerificationStatus.REJECTED_MALFORMED,
            message="sample timestamps are not non-decreasing",
            reason=RejectionReason.OUT_OF_ORDER)


class FeasibilityStage(VerificationStage):
    """Physical feasibility: no pair implies motion above ``v_max``.

    A pair with ``dt == 0`` but distinct positions is flagged explicitly:
    two samples cannot be taken at the same instant in different places,
    regardless of any epsilon on the speed bound.
    """

    name = "feasibility"

    def run(self, ctx: VerificationContext) -> StageFinding | None:
        failures = self.infeasible_pairs(ctx)
        if failures:
            return StageFinding(
                stage=self.name,
                status=VerificationStatus.REJECTED_INFEASIBLE,
                message=f"{len(failures)} pairs exceed v_max",
                indices=tuple(failures),
                reason=RejectionReason.SPEED_INFEASIBLE)
        return None

    @staticmethod
    def infeasible_pairs(ctx: VerificationContext) -> list[int]:
        """Indices of pairs implying motion above the slackened bound."""
        samples = ctx.samples or []
        positions = ctx.ensure_positions()
        limit = ctx.vmax_mps * FEASIBILITY_SLACK
        failures = []
        for i in range(len(samples) - 1):
            dt = samples[i + 1].t - samples[i].t
            ax, ay = positions[i]
            bx, by = positions[i + 1]
            distance = math.hypot(bx - ax, by - ay)
            if dt <= 0.0:
                # Same-instant samples at different positions are spliced
                # data — infeasible by definition, no epsilon involved.
                if distance > 0.0:
                    failures.append(i)
            elif distance > limit * dt + 1e-9:
                failures.append(i)
        return failures

    def sample_count(self, ctx: VerificationContext) -> int:
        return max(0, len(ctx.samples or []) - 1)


class DisclosureStage(VerificationStage):
    """Selective disclosure: every undisclosed gap must be provably clear.

    Applies only to Merkle-committed flights (``merkle-disclosure``); for
    every other scheme the stage is a no-op.  The revealed subset must
    (1) pin both flight endpoints — proven leaf 0 and leaf ``count - 1``
    — so neither end of the flight can be silently cut off, (2) carry
    the signed epoch as its first timestamp, binding the commitment to
    this flight, and (3) leave no gap between adjacent revealed fixes
    that the *conservative* sufficiency predicate cannot clear against
    every zone.  Conservative is deliberate regardless of ``ctx.method``:
    the verifier never sees what happened inside a gap, so it grants the
    hidden interval no benefit of the doubt.

    Structurally broken disclosures (unparseable finalizer or proofs,
    out-of-order leaf indices) are not re-reported here — the signature
    stage already condemned the flight for those.
    """

    name = "disclosure"

    def run(self, ctx: VerificationContext) -> StageFinding | None:
        view = self._disclosure_view(ctx.poa)
        if view is None:
            return None
        fin, leaves = view
        samples = ctx.samples or []
        if not samples:
            return None
        if leaves[0] != 0 or leaves[-1] != fin.count - 1:
            return StageFinding(
                stage=self.name, status=VerificationStatus.INSUFFICIENT,
                message="disclosure does not pin the flight endpoints",
                reason=RejectionReason.INSUFFICIENT_DISCLOSURE)
        if fin.epoch != samples[0].t:
            return StageFinding(
                stage=self.name, status=VerificationStatus.INSUFFICIENT,
                message=("disclosure epoch does not match the first "
                         "revealed sample"),
                reason=RejectionReason.INSUFFICIENT_DISCLOSURE)
        gaps = {i for i in range(len(leaves) - 1)
                if leaves[i + 1] - leaves[i] > 1}
        if not gaps:
            return None
        bad = sorted(gaps.intersection(ctx.insufficient_pairs("conservative")))
        if bad:
            return StageFinding(
                stage=self.name, status=VerificationStatus.INSUFFICIENT,
                message=(f"{len(bad)} undisclosed gaps cannot rule out NFZ "
                         "entrance"),
                indices=tuple(bad),
                reason=RejectionReason.INSUFFICIENT_DISCLOSURE)
        return None

    @staticmethod
    def _disclosure_view(poa: ProofOfAlibi,
                         ) -> tuple[MerkleFinalizer, list[int]] | None:
        """``(finalizer, proven leaf indices)``, or ``None`` off-path.

        ``None`` covers both "not a Merkle flight" and "structurally
        broken disclosure" — the latter is the signature stage's failure
        to report, not this stage's.
        """
        if poa.scheme != SCHEME_MERKLE:
            return None
        try:
            fin = MerkleFinalizer.from_bytes(poa.finalizer)
        except SchemeError:
            return None
        blobs = [entry.signature for entry in poa]
        if all(not blob for blob in blobs):
            # Full-trace mode: entries are the committed flight verbatim.
            if len(blobs) != fin.count or fin.count == 0:
                return None
            return fin, list(range(fin.count))
        leaves = []
        for blob in blobs:
            try:
                leaves.append(MembershipProof.from_bytes(blob).leaf_index)
            except SchemeError:
                return None
        if any(b <= a for a, b in zip(leaves, leaves[1:])):
            return None
        if leaves[-1] >= fin.count:
            return None
        return fin, leaves

    def sample_count(self, ctx: VerificationContext) -> int:
        return max(0, len(ctx.samples or []) - 1)


class SufficiencyStage(VerificationStage):
    """Equation (1): every pair's travel ellipse clears every zone."""

    name = "sufficiency"

    def run(self, ctx: VerificationContext) -> StageFinding | None:
        if len(ctx.samples or []) < 2:
            # A single sample proves nothing.
            insufficient = [0] if ctx.zones else []
        else:
            insufficient = ctx.insufficient_pairs(ctx.method)
        if insufficient:
            return StageFinding(
                stage=self.name, status=VerificationStatus.INSUFFICIENT,
                message=(f"{len(insufficient)} pairs cannot rule out NFZ "
                         "entrance"),
                indices=tuple(insufficient),
                reason=RejectionReason.INSUFFICIENT_COVERAGE)
        return None

    def sample_count(self, ctx: VerificationContext) -> int:
        return max(0, len(ctx.samples or []) - 1)


#: The stages in pipeline order.
DEFAULT_STAGES: tuple[type[VerificationStage], ...] = (
    SignatureStage, DecodeStage, OrderingStage, FeasibilityStage,
    DisclosureStage, SufficiencyStage)

_INDEX_FIELD_BY_STAGE = {
    SignatureStage.name: "bad_signature_indices",
    FeasibilityStage.name: "infeasible_pair_indices",
    DisclosureStage.name: "insufficient_pair_indices",
    SufficiencyStage.name: "insufficient_pair_indices",
}


class VerificationPipeline:
    """Runs the default stages over a context, stopping at the first failure.

    Args:
        metrics: optional :class:`StageMetrics` receiving per-stage wall
            time and sample counts.
    """

    def __init__(self, metrics: StageMetrics | None = None):
        self.metrics = metrics

    def run(self, ctx: VerificationContext) -> VerificationReport:
        """Execute the pipeline and report the outcome."""
        if len(ctx.poa) == 0:
            return VerificationReport(status=VerificationStatus.REJECTED_EMPTY,
                                      message="PoA contains no samples",
                                      reason=RejectionReason.EMPTY_POA)
        tracer = get_tracer()
        for stage_class in DEFAULT_STAGES:
            stage = stage_class()
            # Span names are the stage names so a trace reads exactly like
            # the pipeline: signature, decode, ordering, feasibility,
            # disclosure, sufficiency.
            with tracer.span(stage.name) as span:
                start = time.perf_counter()
                finding = stage.run(ctx)
                elapsed = time.perf_counter() - start
                span.set_attribute("samples", stage.sample_count(ctx))
                if finding is not None:
                    span.set_attribute("finding", finding.status.value)
            if self.metrics is not None:
                self.metrics.record(stage.name, elapsed,
                                    stage.sample_count(ctx))
            if finding is not None:
                return self._report(ctx, finding)
        return VerificationReport(status=VerificationStatus.ACCEPTED,
                                  sample_count=len(ctx.poa))

    @staticmethod
    def _report(ctx: VerificationContext,
                finding: StageFinding) -> VerificationReport:
        report = VerificationReport(status=finding.status,
                                    sample_count=len(ctx.poa),
                                    message=finding.message,
                                    reason=finding.reason)
        index_field = _INDEX_FIELD_BY_STAGE.get(finding.stage)
        if index_field is not None:
            setattr(report, index_field, list(finding.indices))
        return report


class PoaVerifier:
    """A reusable verification pipeline bound to a frame and speed limit.

    Args:
        frame: local planar frame covering the operating area.
        vmax_mps: physical speed bound (FAA 100 mph default).
        hash_name: signature hash (the prototype uses SHA-1).
        method: sufficiency predicate, ``"conservative"`` (paper) or
            ``"exact"``.
        metrics: optional :class:`StageMetrics` accumulating per-stage
            timings across every ``verify`` call.
    """

    def __init__(self, frame: LocalFrame,
                 vmax_mps: float = FAA_MAX_SPEED_MPS,
                 hash_name: str = "sha1",
                 method: Method = "conservative",
                 metrics: StageMetrics | None = None):
        self.frame = frame
        self.vmax_mps = float(vmax_mps)
        self.hash_name = hash_name
        self.method: Method = method
        self.metrics = metrics

    # --- context / pipeline construction ------------------------------------

    def context(self, poa: ProofOfAlibi, tee_public_key: RsaPublicKey,
                zones: Sequence[NoFlyZone], *,
                zone_circles: list[Circle] | None = None,
                zone_index: ZoneProximityIndex | None = None,
                bad_signature_indices: list[int] | None = None,
                use_zone_index: bool = True,
                ) -> VerificationContext:
        """A context carrying this verifier's parameters (and any caches)."""
        return VerificationContext(
            poa=poa, tee_public_key=tee_public_key, zones=zones,
            frame=self.frame, vmax_mps=self.vmax_mps,
            hash_name=self.hash_name, method=self.method,
            use_zone_index=use_zone_index, zone_circles=zone_circles,
            zone_index=zone_index,
            bad_signature_indices=bad_signature_indices)

    def pipeline(self) -> VerificationPipeline:
        """The six-stage pipeline wired to this verifier's metrics."""
        return VerificationPipeline(metrics=self.metrics)

    # --- individual stages (historic API, kept for composability) -----------

    def check_signatures(self, poa: ProofOfAlibi,
                         tee_public_key: RsaPublicKey) -> list[int]:
        """Indices of entries that fail flight authentication under ``T+``."""
        return get_scheme(poa.scheme).verify(
            tee_public_key,
            [(entry.payload, entry.signature) for entry in poa],
            poa.finalizer, self.hash_name)

    def decode_samples(self, poa: ProofOfAlibi) -> list[GpsSample]:
        """Decode all payloads; raises :class:`EncodingError` on failure."""
        return [entry.sample for entry in poa]

    def check_ordering(self, samples: Sequence[GpsSample]) -> bool:
        """Whether timestamps are non-decreasing."""
        return all(b.t >= a.t for a, b in zip(samples, samples[1:]))

    def infeasible_pairs(self, samples: Sequence[GpsSample]) -> list[int]:
        """Pairs implying motion faster than the (slackened) speed bound."""
        ctx = VerificationContext(
            poa=ProofOfAlibi(), tee_public_key=None, zones=(),
            frame=self.frame, vmax_mps=self.vmax_mps)
        ctx.samples = list(samples)
        return FeasibilityStage.infeasible_pairs(ctx)

    # --- the pipeline --------------------------------------------------------

    def verify(self, poa: ProofOfAlibi, tee_public_key: RsaPublicKey,
               zones: Sequence[NoFlyZone]) -> VerificationReport:
        """Run the staged pipeline and report the outcome."""
        return self.pipeline().run(self.context(poa, tee_public_key, zones))
