"""Tests for repro.crypto.envelope: the sealed per-submission envelope."""

import random
import struct

import pytest

from repro.crypto import envelope
from repro.crypto.envelope import KEY_LENGTH, OPEN_FAILED, VERSION
from repro.crypto.pkcs1 import decrypt_pkcs1_v15, encrypt_pkcs1_v15
from repro.errors import EncryptionError

PAYLOADS = [bytes([i]) * 36 for i in range(1, 5)]


@pytest.fixture()
def sealed(other_key):
    return envelope.seal(other_key.public_key, PAYLOADS, random.Random(4))


class TestLayout:
    def test_record_zero_carries_version_and_wrapped_key(self, other_key,
                                                         sealed):
        k = other_key.byte_length
        assert sealed[0][0] == VERSION
        assert len(sealed[0]) == 1 + k + 4 + 36 + 32
        key = decrypt_pkcs1_v15(other_key, sealed[0][1:1 + k])
        assert len(key) == KEY_LENGTH

    def test_every_record_names_its_index(self, other_key, sealed):
        k = other_key.byte_length
        bodies = [sealed[0][1 + k:], *sealed[1:]]
        for i, body in enumerate(bodies):
            assert body[:4] == struct.pack(">I", i)
            assert len(body) == 4 + 36 + 32

    def test_key_is_drawn_from_the_callers_rng(self, other_key, sealed):
        k = other_key.byte_length
        assert (decrypt_pkcs1_v15(other_key, sealed[0][1:1 + k])
                == random.Random(4).randbytes(KEY_LENGTH))
        again = envelope.seal(other_key.public_key, PAYLOADS,
                              random.Random(4))
        assert again == sealed
        assert envelope.seal(other_key.public_key, PAYLOADS,
                             random.Random(5)) != sealed

    def test_payloads_do_not_appear_in_the_clear(self, sealed):
        for payload, record in zip(PAYLOADS, sealed):
            assert payload not in record

    def test_empty_flight_seals_to_nothing(self, other_key):
        assert envelope.seal(other_key.public_key, [], random.Random(1)) == []
        assert envelope.open_sealed(other_key, []) == []


class TestOpening:
    def test_round_trip(self, other_key, sealed):
        assert envelope.open_sealed(other_key, sealed) == PAYLOADS

    def test_records_open_on_their_own(self, other_key, sealed):
        parsed = envelope.parse(sealed, other_key.byte_length)
        key = envelope.unwrap(other_key, parsed.wrapped_key)
        # Dropped, duplicated and swapped records after record 0 still
        # open, each to its own payload.
        shuffled = [sealed[0], sealed[3], sealed[1], sealed[1]]
        assert envelope.open_sealed(other_key, shuffled) == [
            PAYLOADS[0], PAYLOADS[3], PAYLOADS[1], PAYLOADS[1]]
        assert [envelope.open_record(key, body)
                for body in reversed(parsed.records)] == PAYLOADS[::-1]

    def test_unwrap_goes_through_the_given_decrypt(self, other_key, sealed):
        calls = []

        def decrypt(key, block):
            calls.append(block)
            return decrypt_pkcs1_v15(key, block)

        parsed = envelope.parse(sealed, other_key.byte_length)
        envelope.unwrap(other_key, parsed.wrapped_key, decrypt)
        assert calls == [parsed.wrapped_key]

    @pytest.mark.parametrize("records", [
        lambda s: s[1:],                         # record 0 lost
        lambda s: [s[1], s[0], *s[2:]],          # record 0 moved
        lambda s: [s[0], s[0], *s[1:]],          # record 0 duplicated
        lambda s: [b"\x02" + s[0][1:], *s[1:]],  # unknown version
        lambda s: [s[0][:-1], *s[1:]],           # tag cut
        lambda s: [s[0], s[1][:3], *s[2:]],      # record shorter than index
    ])
    def test_every_failure_has_one_message(self, other_key, sealed,
                                           records):
        with pytest.raises(EncryptionError) as info:
            envelope.open_sealed(other_key, records(sealed))
        assert str(info.value) == OPEN_FAILED

    def test_wrong_key_has_the_same_message(self, signing_key, sealed):
        with pytest.raises(EncryptionError) as info:
            envelope.open_sealed(signing_key, sealed)
        assert str(info.value) == OPEN_FAILED

    def test_wrapped_key_of_wrong_length_fails(self, other_key):
        wrapped = encrypt_pkcs1_v15(other_key.public_key, b"k" * 16,
                                    random.Random(2))
        with pytest.raises(EncryptionError, match=OPEN_FAILED):
            envelope.unwrap(other_key, wrapped)


def sealed_size(records, key_bytes, payload_bytes=36):
    return 1 + key_bytes + records * (4 + payload_bytes + 32)


class TestWireSize:
    def test_sealed_size_formula(self, other_key, sealed):
        assert sum(map(len, sealed)) == sealed_size(len(PAYLOADS),
                                                    other_key.byte_length)

    def test_smaller_than_per_record_rsaes_from_three_records(self):
        """At a 1024-bit key (128-byte blocks) 36-byte payloads save 56
        bytes per record and add 129 once."""
        assert [n for n in range(1, 8)
                if sealed_size(n, 128) < n * 128] == [3, 4, 5, 6, 7]
