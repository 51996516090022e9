"""The traced run: span wrappers around the program's public entry points.

:class:`Probe` patches each layer's entry point with a wrapper that opens
a span named after the layer (module + function) on a real
:class:`repro.obs.trace.Tracer`, installed through ``set_tracer`` so the
program's own spans (``audit_batch``, ``audit.submission``, the stage
spans) nest with them on one stack.  ``RsaPrivateKey.raw_sign`` and
``raw_decrypt`` get counters, not spans, split by which side is running.

Nothing is installed outside :meth:`Probe.install` /
:meth:`Probe.uninstall`; the untraced run never creates a probe.

:func:`layer_profile` turns the finished spans into per-layer calls and
self time (duration minus the time its children cover).
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.core import poa as poa_layer
from repro.core import verification
from repro.crypto import schemes as scheme_layer
from repro.crypto.rsa import RsaPrivateKey
from repro.net import framing
from repro.obs.trace import Span, Tracer, set_tracer
from repro.server import engine as engine_layer
from repro.server.admission import AdmissionScheduler
from repro.server.service import AuditorService
from repro.server.store import FlightStore

#: Drone-side layers: their share is of drone busy time.
DRONE_LAYERS = ("crypto.schemes.authenticate_payloads",
                "core.poa.encrypt_poa", "net.framing.encode_frame")
STAGE_LAYERS = tuple(f"core.verification.{cls.name}"
                     for cls in verification.DEFAULT_STAGES)
#: Auditor-side layers: their share is of auditor busy time.
AUDITOR_LAYERS = ("server.admission.admit",
                  "server.store.put_submission",
                  "server.store.record_verdict", "server.store.pending",
                  "server.service.open", "server.engine.decrypt",
                  "server.engine.zone_index", "crypto.schemes.verify",
                  *STAGE_LAYERS)
OTHER = "other"
#: Root span of the drone side; its own self time (PoA and submission
#: construction) is not a layer.
DRONE_ROOT = "drone.prepare"
#: Harness root around one upload: decode frames, rebuild, submit.  Frame
#: decoding costs about as much as a span would, so it stays in this
#: root's self time (``other``) instead of tripling the spans of every
#: flood upload.
INTAKE_ROOT = "auditor.intake"
#: ``AuditEngine`` re-attaches pooled crypto time as a synthetic span
#: placed "ending now"; inline, that interval overlaps work the decrypt
#: and verify spans already cover, so it is dropped.
SYNTHETIC = frozenset({"crypto"})


class Probe:
    """Span wrappers for one traced pass; install around traced work only."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: Which side ``raw_sign``/``raw_decrypt`` calls are charged to.
        self.side = "auditor"
        self.private_ops = {"drone": 0, "auditor": 0}
        self._saved: list[tuple[object, str, object, bool]] = []
        self._previous_tracer = None

    def _targets(self) -> Iterable[tuple[object, str, str]]:
        yield scheme_layer, "authenticate_payloads", DRONE_LAYERS[0]
        yield poa_layer, "encrypt_poa", DRONE_LAYERS[1]
        yield framing, "encode_frame", DRONE_LAYERS[2]
        yield AdmissionScheduler, "admit", "server.admission.admit"
        yield FlightStore, "put_submission", "server.store.put_submission"
        yield FlightStore, "record_verdict", "server.store.record_verdict"
        yield (FlightStore, "record_intake_error",
               "server.store.record_verdict")
        yield FlightStore, "pending", "server.store.pending"
        # ``submit`` runs under the harness's intake root, so it needs no
        # span of its own; ``drain`` and ``recover`` are roots.
        yield AuditorService, "drain", "server.service.drain"
        yield AuditorService, "recover", "server.service.recover"
        # The engine resolves this module global at call time.
        yield engine_layer, "decrypt_pkcs1_v15", "server.engine.decrypt"
        yield (engine_layer.AuditEngine, "zone_index_for",
               "server.engine.zone_index")
        for scheme_id in scheme_layer.scheme_ids():
            scheme = scheme_layer.get_scheme(scheme_id)
            yield scheme, "screen", "crypto.schemes.verify"
            yield scheme, "verify", "crypto.schemes.verify"
        for cls, layer in zip(verification.DEFAULT_STAGES, STAGE_LAYERS):
            yield cls, "run", layer

    def install(self) -> None:
        """Patch every entry point and make this probe's tracer current."""
        for owner, attr, layer in self._targets():
            self._patch(owner, attr, self._spanned(getattr(owner, attr),
                                                   layer))
        for attr in ("raw_sign", "raw_decrypt"):
            self._patch(RsaPrivateKey, attr,
                        self._counted(getattr(RsaPrivateKey, attr)))
        self._previous_tracer = set_tracer(self.tracer)

    def uninstall(self) -> None:
        """Restore every patched attribute and the previous tracer."""
        set_tracer(self._previous_tracer)
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, owner, attr: str, wrapper) -> None:
        owned = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, layer: str):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            span = tracer.start_span(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end_span(span)
        return wrapper

    def _counted(self, fn):
        ops = self.private_ops

        def wrapper(key, value):
            ops[self.side] += 1
            return fn(key, value)
        return wrapper

    # --- harness-created roots -----------------------------------------------

    def begin(self, name: str, **attributes) -> Span:
        """Open a root span; ``drone.prepare`` charges RSA ops to the drone."""
        if name == DRONE_ROOT:
            self.side = "drone"
        return self.tracer.start_span(name, attributes=attributes)

    def end(self, span: Span, **attributes) -> None:
        span.attributes.update(attributes)
        self.tracer.end_span(span)
        self.side = "auditor"


def drone_trees(spans: list[Span]) -> list[Span]:
    """The spans under ``drone.prepare`` roots, dropping everything else."""
    by_id = {s.span_id: s for s in spans}

    def root(span: Span) -> Span:
        while span.parent_id is not None:
            span = by_id[span.parent_id]
        return span

    return [s for s in spans if root(s).name == DRONE_ROOT]


def _covered(children: list[Span], start: float, end: float) -> float:
    """Length of the union of child intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for child in sorted(children, key=lambda s: s.start_s):
        lo, hi = max(child.start_s, reach), min(child.end_s, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_profile(spans: list[Span]) -> dict:
    """Per-layer calls and self time, plus the root busy totals.

    Every span's self time goes to its layer when it has one, else to
    ``other`` (program spans, ``submit``/``drain``/``recover`` glue and
    the harness intake root) — except the drone root, whose glue is not
    a layer.  Self times therefore sum to the root durations exactly.
    """
    spans = [s for s in spans if s.name not in SYNTHETIC]
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    layers = {name: {"calls": 0, "self_s": 0.0}
              for name in (*DRONE_LAYERS, *AUDITOR_LAYERS, OTHER)}
    busy = {"drone": 0.0, "auditor": 0.0}
    drone_glue = 0.0
    drains = 0
    for span in spans:
        drains += span.name == "server.service.drain"
        duration = span.end_s - span.start_s
        own = duration - _covered(children.get(span.span_id, []),
                                  span.start_s, span.end_s)
        if span.parent_id is None:
            busy["drone" if span.name == DRONE_ROOT else "auditor"] += duration
        if span.name == DRONE_ROOT:
            drone_glue += own
            continue
        entry = layers.get(span.name, layers[OTHER])
        if span.name in layers:
            entry["calls"] += 1
        entry["self_s"] += own
    return {"layers": layers, "busy_s": busy, "drone_glue_s": drone_glue,
            "drains": drains}


def write_spans(spans: list[Span], path, seq_of_flight: dict[str, int]) -> int:
    """Write ``spans.jsonl``: name, start, end, parent and submission seq.

    A span's seq is its own ``seq`` attribute, else the one resolved from
    the nearest ancestor carrying a ``seq`` or a ``flight_id``.
    """
    by_id = {s.span_id: s for s in spans}

    def seq_of(span: Span | None):
        while span is not None:
            if "seq" in span.attributes:
                return span.attributes["seq"]
            flight = span.attributes.get("flight_id")
            if flight is not None:
                return seq_of_flight.get(flight)
            span = by_id.get(span.parent_id)
        return None

    rows = 0
    with open(path, "w") as out:
        for span in sorted(spans, key=lambda s: s.start_s):
            if span.name in SYNTHETIC:
                continue
            out.write(json.dumps({
                "name": span.name, "id": span.span_id,
                "parent": span.parent_id, "start": span.start_s,
                "end": span.end_s, "seq": seq_of(span)}) + "\n")
            rows += 1
    return rows
