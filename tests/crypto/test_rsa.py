"""Tests for repro.crypto.rsa."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pkcs1 import sign_pkcs1_v15, verify_pkcs1_v15
from repro.crypto.rsa import (
    THREE_PRIME_MIN_BITS,
    RsaPrivateKey,
    RsaPublicKey,
    generate_rsa_keypair,
)
from repro.errors import CryptoError, KeyGenerationError


@pytest.fixture(scope="module", params=[1024, 2048])
def three_prime_key(request) -> RsaPrivateKey:
    """Seeded three-prime keys at the paper's two key sizes."""
    return generate_rsa_keypair(request.param,
                                rng=random.Random(request.param))


class TestKeyGeneration:
    def test_modulus_bit_length_exact(self, signing_key):
        assert signing_key.bits == 512
        assert signing_key.n.bit_length() == 512

    def test_key_consistency(self, signing_key):
        k = signing_key
        assert k.p * k.q == k.n
        lam = math.lcm(k.p - 1, k.q - 1)
        assert (k.e * k.d) % lam == 1

    def test_deterministic_given_rng(self):
        a = generate_rsa_keypair(256, rng=random.Random(42))
        b = generate_rsa_keypair(256, rng=random.Random(42))
        assert a == b

    def test_different_seeds_different_keys(self):
        a = generate_rsa_keypair(256, rng=random.Random(1))
        b = generate_rsa_keypair(256, rng=random.Random(2))
        assert a.n != b.n

    def test_too_small_modulus_rejected(self):
        with pytest.raises(KeyGenerationError):
            generate_rsa_keypair(64)

    def test_even_exponent_rejected(self):
        with pytest.raises(KeyGenerationError):
            generate_rsa_keypair(256, e=4)

    def test_inconsistent_private_key_rejected(self):
        with pytest.raises(CryptoError):
            RsaPrivateKey(n=15, e=3, d=3, p=3, q=7)
        with pytest.raises(CryptoError):
            RsaPrivateKey(n=105, e=3, d=3, p=3, q=7, r=4)
        with pytest.raises(CryptoError):
            RsaPrivateKey(n=21, e=3, d=3, p=3, q=7, r=1)


class TestThreePrimeKeyGeneration:
    def test_three_distinct_primes_exact_bits(self, three_prime_key):
        k = three_prime_key
        assert k.r is not None and len(set(k.primes)) == 3
        assert math.prod(k.primes) == k.n
        assert k.bits in (1024, 2048)  # exactly the size requested
        lam = math.lcm(*(prime - 1 for prime in k.primes))
        assert (k.e * k.d) % lam == 1

    @pytest.mark.parametrize("bits", [256, 512, THREE_PRIME_MIN_BITS - 1])
    def test_smaller_keys_have_two_primes(self, bits):
        k = generate_rsa_keypair(bits, rng=random.Random(bits))
        assert k.r is None and k.primes == (k.p, k.q)
        assert k.p * k.q == k.n and k.bits == bits

    def test_deterministic_given_rng(self):
        a = generate_rsa_keypair(1024, rng=random.Random(42))
        b = generate_rsa_keypair(1024, rng=random.Random(42))
        assert a == b and a.r is not None


class TestThreePrimeRawOperations:
    """The Garner recombination agrees with ``pow(c, d, n)`` at real sizes."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_crt_agrees_with_plain_exponentiation(self, three_prime_key,
                                                  data):
        k = three_prime_key
        c = data.draw(st.integers(min_value=0, max_value=k.n - 1))
        assert k.raw_decrypt(c) == pow(c, k.d, k.n)

    def test_edge_representatives(self, three_prime_key):
        k = three_prime_key
        edges = [0, 1, k.n - 1, *(prime * 7 for prime in k.primes)]
        for c in edges:
            assert k.raw_decrypt(c) == pow(c, k.d, k.n)
            assert k.raw_sign(c) == pow(c, k.d, k.n)

    @given(message=st.binary(max_size=256))
    @settings(max_examples=10, deadline=None)
    def test_sign_verify_round_trip(self, three_prime_key, message):
        k = three_prime_key
        signature = sign_pkcs1_v15(k, message, "sha256")
        assert len(signature) == k.byte_length
        assert verify_pkcs1_v15(k.public_key, message, signature, "sha256")


class TestRawOperations:
    def test_encrypt_decrypt_round_trip(self, signing_key):
        m = 0x1234567890ABCDEF
        c = signing_key.public_key.raw_encrypt(m)
        assert signing_key.raw_decrypt(c) == m

    def test_sign_verify_round_trip(self, signing_key):
        m = 9_876_543_210
        s = signing_key.raw_sign(m)
        assert signing_key.public_key.raw_verify(s) == m

    def test_crt_agrees_with_plain_exponentiation(self, signing_key):
        c = 123_456_789
        assert signing_key.raw_decrypt(c) == pow(c, signing_key.d,
                                                 signing_key.n)

    def test_out_of_range_rejected(self, signing_key):
        with pytest.raises(CryptoError):
            signing_key.public_key.raw_encrypt(signing_key.n)
        with pytest.raises(CryptoError):
            signing_key.raw_decrypt(-1)

    def test_byte_length(self, signing_key):
        assert signing_key.byte_length == 64
        assert signing_key.public_key.byte_length == 64

    def test_public_key_derivation(self, signing_key):
        pub = signing_key.public_key
        assert isinstance(pub, RsaPublicKey)
        assert pub.n == signing_key.n
        assert pub.e == signing_key.e


class TestCrtCache:
    def test_cache_computed_once_per_key(self, signing_key):
        first = signing_key._crt_params()
        assert signing_key._crt is not None
        assert signing_key._crt[0] == signing_key.n
        assert signing_key._crt_params() == first

    def test_stale_cache_from_rewritten_factors_recomputed(self):
        """Regression: the CRT cache is tagged with its modulus.

        A frozen key "mutated" via ``object.__setattr__`` (the only
        way to rewrite its factors, e.g. by a copy-and-patch test
        harness) used to keep decrypting with the *old* exponents; the
        modulus tag forces a recompute.
        """
        a = generate_rsa_keypair(256, rng=random.Random(11))
        b = generate_rsa_keypair(256, rng=random.Random(12))
        a._crt_params()  # warm the cache with a's exponents
        stale = a._crt
        for name in ("n", "e", "d", "p", "q"):
            object.__setattr__(a, name, getattr(b, name))
        assert a._crt == stale  # the stale cache is still planted...
        message = 0x1234
        assert a.raw_decrypt(pow(message, a.e, a.n)) == message
        assert a._crt[0] == b.n  # ...and was rebuilt for the new modulus

    def test_three_prime_cache_holds_every_garner_step(self):
        k = generate_rsa_keypair(1024, rng=random.Random(14))
        steps = k._crt_params()
        assert k._crt[0] == k.n
        assert [step[0] for step in steps] == [k.q, k.p, k.r]
        r, d_r, t_r, product = steps[2]
        assert (d_r, product) == (k.d % (k.r - 1), k.p * k.q)
        assert (t_r * product) % r == 1
        assert k._crt_params() is steps

    def test_three_prime_stale_cache_from_rewritten_factors(self):
        """The factor-rewrite regression, between three-prime keys and
        from a two-prime key to a three-prime one."""
        b = generate_rsa_keypair(1024, rng=random.Random(16))
        for a in (generate_rsa_keypair(1024, rng=random.Random(15)),
                  generate_rsa_keypair(512, rng=random.Random(17))):
            a._crt_params()
            stale = a._crt
            for name in ("n", "e", "d", "p", "q", "r"):
                object.__setattr__(a, name, getattr(b, name))
            assert a._crt == stale
            message = 0x1234
            assert a.raw_decrypt(pow(message, a.e, a.n)) == message
            assert a._crt[0] == b.n and len(a._crt[1]) == 3

    def test_planted_foreign_cache_not_trusted(self, signing_key):
        other = generate_rsa_keypair(512, rng=random.Random(13))
        other._crt_params()
        object.__setattr__(signing_key, "_crt", other._crt)
        message = 0x5678
        cipher = pow(message, signing_key.e, signing_key.n)
        assert signing_key.raw_decrypt(cipher) == message
        assert signing_key._crt[0] == signing_key.n
