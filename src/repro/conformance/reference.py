"""An independent, naive re-implementation of the Auditor's verdict.

This is the reference arm of the differential harness.  It re-derives the
paper's checks (§IV-C2) from first principles as one straight-line
function: no pipeline stages, no batch caches, no memoized projections,
no spatial index — just per-entry signature checks, a decode loop, an
ordering scan, per-pair speed arithmetic, an independent Merkle
replay with its disclosure gap scan, and the conservative sufficiency
inequality written out with :func:`math.hypot`.  Because it shares no
execution path with :class:`repro.core.verification.VerificationPipeline`
beyond the public-key primitives and the projection formula, agreement
between the two is strong evidence that neither has drifted from the spec.

Reports are field-for-field comparable (``==``) with the pipeline's,
including messages, rejection reasons, and failure indices.
:func:`reference_open` opens the sealed record envelope the same way,
from its wire layout rather than through the envelope module, and unwraps
its key with a plain ``pow(c, d, n)`` rather than the key's CRT path.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
import math
import struct
from typing import Sequence

from repro.core.nfz import NoFlyZone
from repro.core.poa import EncryptedPoaRecord, ProofOfAlibi
from repro.core.verification import (
    RejectionReason,
    VerificationReport,
    VerificationStatus,
)
from repro.crypto.pkcs1 import verify_pkcs1_v15
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import EncodingError
from repro.geo.geodesy import LocalFrame
from repro.units import FAA_MAX_SPEED_MPS

#: Mirrors the geometry module's comparison epsilon (kept as a literal on
#: purpose: the reference must not import the implementation under test).
_EPS = 1e-9


def _ref_rsaes_unwrap(encryption_key: RsaPrivateKey,
                      block: bytes) -> bytes | None:
    """RSAES-PKCS1-v1_5 decryption of one ``k``-byte block, or None.

    Exponentiates with ``pow(c, d, n)`` over the whole modulus instead of
    calling :meth:`RsaPrivateKey.raw_decrypt`, so the oracle shares no
    CRT code with the key under test.  ``EM = 00 ‖ 02 ‖ PS ‖ 00 ‖ M``
    with at least eight padding octets (RFC 8017 §7.2.2).
    """
    c = int.from_bytes(block, "big")
    if c >= encryption_key.n:
        return None
    em = pow(c, encryption_key.d, encryption_key.n).to_bytes(
        len(block), "big")
    separator = em.find(b"\x00", 2)
    if em[:2] != b"\x00\x02" or separator < 10:
        return None
    return em[separator + 1:]


def reference_open(records: Sequence[EncryptedPoaRecord],
                   encryption_key: RsaPrivateKey) -> list[bytes] | None:
    """The payloads of a sealed submission, or None if it does not open.

    Re-derives the sealed envelope (docs/PROTOCOL.md §2.5) with
    ``hashlib``/``hmac`` alone; the envelope module and the one-time
    cipher it rides on are not imported.  Record 0 is ``0x01 ‖ RSAES(K)
    ‖ c_0``; every ``c_i`` is ``u32be(i) ‖ ct ‖ tag`` under the subkey
    ``SHA-256("ADPE|rec|" ‖ K ‖ u32be(i))``.
    """
    if not records:
        return []
    k = encryption_key.byte_length
    first = records[0].ciphertext
    if len(first) < 1 + k or first[0] != 0x01:
        return None
    key = _ref_rsaes_unwrap(encryption_key, first[1:1 + k])
    if key is None or len(key) != 32:
        return None
    payloads = []
    for body in [first[1 + k:]] + [r.ciphertext for r in records[1:]]:
        if len(body) < 4 + 32:
            return None
        subkey = hashlib.sha256(b"ADPE|rec|" + key + body[:4]).digest()
        ciphertext, tag = body[4:-32], body[-32:]
        mac_key = hashlib.sha256(subkey + b"|mac|").digest()
        if not hmac_module.compare_digest(
                hmac_module.new(mac_key, ciphertext, hashlib.sha256).digest(),
                tag):
            return None
        stream = b"".join(
            hashlib.sha256(subkey + b"|stream|" + struct.pack(">Q", n))
            .digest() for n in range(math.ceil(len(ciphertext) / 32)))
        payloads.append(bytes(c ^ s for c, s in zip(ciphertext, stream)))
    return payloads


def _ref_framed_sha256(chunks) -> bytes:
    """Length-framed SHA-256, re-derived here rather than imported: the
    reference arm must not share framing code with the scheme under test."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(struct.pack(">I", len(chunk)))
        h.update(chunk)
    return h.digest()


def _ref_chain_link(chain_key: bytes, previous: bytes,
                    payload: bytes) -> bytes:
    mac = hmac_module.new(chain_key, digestmod=hashlib.sha256)
    for chunk in (previous, payload):
        mac.update(struct.pack(">I", len(chunk)))
        mac.update(chunk)
    return mac.digest()


def _ref_chain_bad_indices(poa: ProofOfAlibi, tee_public_key: RsaPublicKey,
                           hash_name: str) -> list[int]:
    """Independent hash-chain replay (wire constants duplicated on purpose)."""
    all_bad = list(range(len(poa)))
    data = poa.finalizer
    # Finalizer layout: "ADC1" | count:u32 | anchor:32 | key:32
    #                   | len:u16 commit_sig | len:u16 close_sig
    if len(data) < 4 + 4 + 32 + 32 + 2 or data[:4] != b"ADC1":
        return all_bad
    (count,) = struct.unpack_from(">I", data, 4)
    anchor = data[8:40]
    chain_key = data[40:72]
    offset = 72
    sigs = []
    for _ in range(2):
        if offset + 2 > len(data):
            return all_bad
        (length,) = struct.unpack_from(">H", data, offset)
        offset += 2
        if offset + length > len(data):
            return all_bad
        sigs.append(data[offset:offset + length])
        offset += length
    if offset != len(data):
        return all_bad
    commit_sig, close_sig = sigs
    if hashlib.sha256(b"ADCH-KEY\x00" + chain_key).digest() != anchor:
        return all_bad
    if not verify_pkcs1_v15(tee_public_key, b"ADCH-COMMIT\x00" + anchor,
                            commit_sig, hash_name):
        return all_bad
    if count != len(poa):
        return all_bad
    bad = []
    previous = anchor
    for i, entry in enumerate(poa):
        if entry.signature != _ref_chain_link(chain_key, previous,
                                              entry.payload):
            bad.append(i)
        previous = entry.signature
    close_payload = (b"ADCH-CLOSE\x00" + anchor + previous
                     + struct.pack(">I", count))
    if not verify_pkcs1_v15(tee_public_key, close_payload, close_sig,
                            hash_name):
        return all_bad
    return bad


def _ref_leaf_hash(payload: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + struct.pack(">I", len(payload))
                          + payload).digest()


def _ref_node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def _ref_merkle_root(payloads: Sequence[bytes]) -> bytes:
    """Independent tree build: odd nodes promoted, never duplicated."""
    level = [_ref_leaf_hash(payload) for payload in payloads]
    if not level:
        return hashlib.sha256(b"ADMK-EMPTY").digest()
    while len(level) > 1:
        parents = [_ref_node_hash(level[i], level[i + 1])
                   for i in range(0, len(level) - 1, 2)]
        if len(level) % 2 == 1:
            parents.append(level[-1])
        level = parents
    return level[0]


def _ref_verify_membership(root: bytes, count: int, index: int,
                           payload: bytes,
                           siblings: Sequence[bytes]) -> bool:
    """Independent membership replay against the signed leaf count."""
    if count <= 0 or not 0 <= index < count:
        return False
    node = _ref_leaf_hash(payload)
    position, width, used = index, count, 0
    while width > 1:
        if position % 2 == 1:
            if used >= len(siblings):
                return False
            node = _ref_node_hash(siblings[used], node)
            used += 1
        elif position + 1 < width:
            if used >= len(siblings):
                return False
            node = _ref_node_hash(node, siblings[used])
            used += 1
        position //= 2
        width = (width + 1) // 2
    return used == len(siblings) and node == root


def _ref_merkle_finalizer(poa: ProofOfAlibi,
                          ) -> tuple[int, float, bytes, bytes] | None:
    """``(count, epoch, root, signature)`` or None when malformed.

    Finalizer layout: "ADM1" | count:u32 | epoch:f64 | root:32
                      | len:u16 root_sig
    """
    data = poa.finalizer
    if len(data) < 4 + 4 + 8 + 32 + 2 or data[:4] != b"ADM1":
        return None
    (count,) = struct.unpack_from(">I", data, 4)
    (epoch,) = struct.unpack_from(">d", data, 8)
    root = data[16:48]
    (sig_len,) = struct.unpack_from(">H", data, 48)
    if 50 + sig_len != len(data):
        return None
    return count, epoch, root, data[50:]


def _ref_merkle_leaves(poa: ProofOfAlibi, count: int) -> list[int] | None:
    """Proven leaf indices of a disclosure, or None when structurally bad.

    Proof layout: leaf_index:u32 | n:u16 | n * 32-byte siblings.
    """
    blobs = [entry.signature for entry in poa]
    if all(not blob for blob in blobs):
        if len(blobs) != count or count == 0:
            return None
        return list(range(count))
    leaves = []
    for blob in blobs:
        if len(blob) < 6:
            return None
        (index, n_siblings) = struct.unpack_from(">IH", blob, 0)
        if len(blob) != 6 + 32 * n_siblings:
            return None
        leaves.append(index)
    if any(b <= a for a, b in zip(leaves, leaves[1:])):
        return None
    if leaves[-1] >= count:
        return None
    return leaves


def _ref_merkle_bad_indices(poa: ProofOfAlibi, tee_public_key: RsaPublicKey,
                            hash_name: str) -> list[int]:
    """Independent Merkle verification (wire constants duplicated on purpose)."""
    all_bad = list(range(len(poa)))
    parts = _ref_merkle_finalizer(poa)
    if parts is None:
        return all_bad
    count, epoch, root, signature = parts
    signed = (b"ADMK-ROOT\x00" + root + struct.pack(">d", epoch)
              + struct.pack(">I", count))
    if not verify_pkcs1_v15(tee_public_key, signed, signature, hash_name):
        return all_bad
    blobs = [entry.signature for entry in poa]
    if all(not blob for blob in blobs):
        # Full-trace mode: recompute the root from the payloads.
        if len(poa) != count:
            return all_bad
        if _ref_merkle_root([entry.payload for entry in poa]) != root:
            return all_bad
        return []
    proofs = []
    for blob in blobs:
        if len(blob) < 6:
            return all_bad
        (index, n_siblings) = struct.unpack_from(">IH", blob, 0)
        if len(blob) != 6 + 32 * n_siblings:
            return all_bad
        proofs.append((index, [blob[6 + 32 * i:6 + 32 * (i + 1)]
                               for i in range(n_siblings)]))
    indices = [index for index, _siblings in proofs]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        return all_bad
    if any(index >= count for index in indices):
        return all_bad
    return [i for i, (entry, (index, siblings)) in
            enumerate(zip(poa, proofs))
            if not _ref_verify_membership(root, count, index, entry.payload,
                                          siblings)]


def _ref_bad_auth_indices(poa: ProofOfAlibi, tee_public_key: RsaPublicKey,
                          hash_name: str) -> list[int]:
    """Per-scheme flight authentication, re-derived from the wire spec."""
    scheme = poa.scheme
    if scheme == "rsa-v15":
        if poa.finalizer:
            return list(range(len(poa)))
        return [i for i, entry in enumerate(poa)
                if not verify_pkcs1_v15(tee_public_key, entry.payload,
                                        entry.signature, hash_name)]
    if scheme == "rsa-batch":
        digest = _ref_framed_sha256(entry.payload for entry in poa)
        if not verify_pkcs1_v15(tee_public_key, digest, poa.finalizer,
                                hash_name):
            return list(range(len(poa)))
        return [i for i, entry in enumerate(poa) if entry.signature]
    if scheme == "hash-chain":
        return _ref_chain_bad_indices(poa, tee_public_key, hash_name)
    if scheme == "merkle-disclosure":
        return _ref_merkle_bad_indices(poa, tee_public_key, hash_name)
    # Unknown scheme: nothing can be attributed to T+.
    return list(range(len(poa)))


def reference_verify(poa: ProofOfAlibi, tee_public_key: RsaPublicKey,
                     zones: Sequence[NoFlyZone], frame: LocalFrame,
                     vmax_mps: float = FAA_MAX_SPEED_MPS,
                     hash_name: str = "sha1",
                     feasibility_slack: float = 1.02) -> VerificationReport:
    """The specification's verdict on one PoA, computed the slow way.

    Only the paper's ``"conservative"`` sufficiency predicate is
    implemented; the exact-geometry variant belongs to the ablation
    benchmark, not the conformance baseline.
    """
    if len(poa) == 0:
        return VerificationReport(status=VerificationStatus.REJECTED_EMPTY,
                                  message="PoA contains no samples",
                                  reason=RejectionReason.EMPTY_POA)

    # 1. Authenticity: the flight authenticates under T+ per its scheme.
    bad = _ref_bad_auth_indices(poa, tee_public_key, hash_name)
    if bad:
        return VerificationReport(
            status=VerificationStatus.REJECTED_BAD_SIGNATURE,
            bad_signature_indices=bad,
            sample_count=len(poa),
            message=f"{len(bad)} of {len(poa)} signatures failed",
            reason=RejectionReason.BAD_SIGNATURE)

    # 2a. Well-formedness: payloads decode.
    samples = []
    try:
        for entry in poa:
            samples.append(entry.sample)
    except EncodingError as exc:
        return VerificationReport(
            status=VerificationStatus.REJECTED_MALFORMED,
            sample_count=len(poa), message=str(exc),
            reason=RejectionReason.MALFORMED_PAYLOAD)

    # 2b. Well-formedness: timestamps are non-decreasing.
    for a, b in zip(samples, samples[1:]):
        if b.t < a.t:
            return VerificationReport(
                status=VerificationStatus.REJECTED_MALFORMED,
                sample_count=len(poa),
                message="sample timestamps are not non-decreasing",
                reason=RejectionReason.OUT_OF_ORDER)

    positions = [frame.to_local(s.point) for s in samples]

    # 3. Physical feasibility: no pair exceeds the slackened speed bound.
    infeasible = []
    limit = vmax_mps * feasibility_slack
    for i in range(len(samples) - 1):
        dt = samples[i + 1].t - samples[i].t
        distance = math.dist(positions[i], positions[i + 1])
        if dt <= 0.0:
            if distance > 0.0:
                infeasible.append(i)
        elif distance > limit * dt + _EPS:
            infeasible.append(i)
    if infeasible:
        return VerificationReport(
            status=VerificationStatus.REJECTED_INFEASIBLE,
            infeasible_pair_indices=infeasible,
            sample_count=len(poa),
            message=f"{len(infeasible)} pairs exceed v_max",
            reason=RejectionReason.SPEED_INFEASIBLE)

    # 3b. Disclosure (merkle-disclosure only): endpoints pinned, epoch
    # matched, every undisclosed gap conservatively clear of every zone.
    if poa.scheme == "merkle-disclosure":
        parts = _ref_merkle_finalizer(poa)
        leaves = (None if parts is None
                  else _ref_merkle_leaves(poa, parts[0]))
        if parts is not None and leaves is not None:
            count, epoch, _root, _sig = parts
            if leaves[0] != 0 or leaves[-1] != count - 1:
                return VerificationReport(
                    status=VerificationStatus.INSUFFICIENT,
                    sample_count=len(poa),
                    message="disclosure does not pin the flight endpoints",
                    reason=RejectionReason.INSUFFICIENT_DISCLOSURE)
            if epoch != samples[0].t:
                return VerificationReport(
                    status=VerificationStatus.INSUFFICIENT,
                    sample_count=len(poa),
                    message=("disclosure epoch does not match the first "
                             "revealed sample"),
                    reason=RejectionReason.INSUFFICIENT_DISCLOSURE)
            gap_bad = []
            for i in range(len(leaves) - 1):
                if leaves[i + 1] - leaves[i] <= 1:
                    continue
                focal_sum = vmax_mps * (samples[i + 1].t - samples[i].t)
                ax, ay = positions[i]
                bx, by = positions[i + 1]
                for zone in zones:
                    cx, cy = frame.to_local(zone.center)
                    d1 = math.hypot(ax - cx, ay - cy) - zone.radius_m
                    d2 = math.hypot(bx - cx, by - cy) - zone.radius_m
                    if d1 + d2 <= focal_sum + _EPS:
                        gap_bad.append(i)
                        break
            if gap_bad:
                return VerificationReport(
                    status=VerificationStatus.INSUFFICIENT,
                    insufficient_pair_indices=gap_bad,
                    sample_count=len(poa),
                    message=(f"{len(gap_bad)} undisclosed gaps cannot rule "
                             "out NFZ entrance"),
                    reason=RejectionReason.INSUFFICIENT_DISCLOSURE)

    # 4. Sufficiency: paper eq. (1), conservative form — the pair clears a
    # zone when the focus-to-boundary distances satisfy D1 + D2 > vmax*dt.
    centers = [(frame.to_local(z.center), z.radius_m) for z in zones]
    if len(samples) < 2:
        insufficient = [0] if zones else []
    else:
        insufficient = []
        for i in range(len(samples) - 1):
            focal_sum = vmax_mps * (samples[i + 1].t - samples[i].t)
            ax, ay = positions[i]
            bx, by = positions[i + 1]
            for (cx, cy), r in centers:
                d1 = math.hypot(ax - cx, ay - cy) - r
                d2 = math.hypot(bx - cx, by - cy) - r
                if d1 + d2 <= focal_sum + _EPS:
                    insufficient.append(i)
                    break
    if insufficient:
        return VerificationReport(
            status=VerificationStatus.INSUFFICIENT,
            insufficient_pair_indices=insufficient,
            sample_count=len(poa),
            message=(f"{len(insufficient)} pairs cannot rule out NFZ "
                     "entrance"),
            reason=RejectionReason.INSUFFICIENT_COVERAGE)

    return VerificationReport(status=VerificationStatus.ACCEPTED,
                              sample_count=len(poa))
