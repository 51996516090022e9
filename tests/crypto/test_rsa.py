"""Tests for repro.crypto.rsa."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pkcs1 import sign_pkcs1_v15, verify_pkcs1_v15
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import (
    MULTI_POWER_MIN_BITS,
    RsaPrivateKey,
    RsaPublicKey,
    generate_rsa_keypair,
)
from repro.errors import CryptoError, KeyGenerationError

#: Small primes for exhaustive checks on toy keys: 3, 5 and 17 have
#: ``p - 1`` dividing ``65536``, so ``d - 1 ≡ 0 (mod p - 1)`` for e = 65537.
TOY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def make_three_prime_key(bits: int, rng: random.Random) -> RsaPrivateKey:
    """An RFC 8017 key of three distinct primes and exactly ``bits`` bits,
    the shape 1024-bit and larger keys had before they were multi-power;
    stores written then still hold such keys."""
    sizes = [bits // 3 + (i < bits % 3) for i in range(3)]
    while True:
        primes = [generate_prime(size, rng=rng) for size in sizes]
        lam = math.lcm(*(prime - 1 for prime in primes))
        if (len(set(primes)) == 3 and math.prod(primes).bit_length() == bits
                and math.gcd(65537, lam) == 1):
            return RsaPrivateKey(math.prod(primes), 65537,
                                 pow(65537, -1, lam), *primes)


def toy_key(factors: tuple[int, ...], e: int) -> RsaPrivateKey | None:
    """The key over ``factors`` (a prime listed twice is squared) with
    ``d = e^-1 mod λ(n)``, or None when ``e`` is not invertible."""
    lam = math.lcm(*(prime ** (factors.count(prime) - 1) * (prime - 1)
                     for prime in set(factors)))
    if math.gcd(e, lam) != 1:
        return None
    d = pow(e, -1, lam)
    return RsaPrivateKey(math.prod(factors), e, d if d > 1 else d + lam,
                         *factors)


@pytest.fixture(scope="module", params=[1024, 2048])
def three_prime_key(request) -> RsaPrivateKey:
    """Three-prime keys at the paper's two key sizes."""
    return make_three_prime_key(request.param, random.Random(request.param))


@pytest.fixture(scope="module", params=[1024, 2048])
def multi_power_key(request) -> RsaPrivateKey:
    """Seeded ``p²q`` keys at the paper's two key sizes."""
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


class TestKeyValidity:
    """A key must be usable as given: construction checks its factors and
    ``d`` against ``n`` and ``e``, and ``ADSK`` decoding inherits it."""

    def test_prime_repeated_three_times_rejected(self):
        p = generate_prime(64, rng=random.Random(1))
        lam = p * p * (p - 1)
        with pytest.raises(CryptoError, match="more than twice"):
            RsaPrivateKey(p ** 3, 65537, pow(65537, -1, lam), p, p, p)

    def test_factors_sharing_a_divisor_rejected(self):
        p, q = (generate_prime(64, rng=random.Random(seed))
                for seed in (2, 3))
        with pytest.raises(CryptoError, match="coprime"):
            RsaPrivateKey((p * q) ** 2, 65537, 3, p, q, p * q)
        with pytest.raises(CryptoError, match="coprime"):
            RsaPrivateKey(p * p * q, 65537, 3, p * q, p)

    def test_d_must_invert_e_modulo_lambda(self, multi_power_key):
        k = multi_power_key
        # The two-prime formula is wrong modulo p(p-1) for a p²q key.
        naive = pow(k.e, -1, math.lcm(k.p - 1, k.q - 1))
        with pytest.raises(CryptoError, match="lambda"):
            RsaPrivateKey(k.n, k.e, naive, k.p, k.q, k.p)
        with pytest.raises(CryptoError, match="lambda"):
            RsaPrivateKey(k.n, k.e, k.d + 1, k.p, k.q, k.p)
        with pytest.raises(CryptoError, match="lambda"):
            RsaPrivateKey(k.n, k.e, 1, k.p, k.q, k.p)

    def test_d_shifted_by_lambda_is_accepted(self, multi_power_key):
        k = multi_power_key
        lam = math.lcm(k.p * (k.p - 1), k.q - 1)
        shifted = RsaPrivateKey(k.n, k.e, k.d + lam, k.p, k.q, k.p)
        c = 0xC0FFEE
        assert shifted.raw_decrypt(c) == k.raw_decrypt(c)

    def test_squared_prime_may_be_listed_in_either_slot(self,
                                                        multi_power_key):
        k = multi_power_key
        other = RsaPrivateKey(k.n, k.e, k.d, k.p, k.p, k.q)
        for c in (0, 1, 7 * k.p, 7 * k.q, k.n - 1, 0xC0FFEE):
            assert other.raw_decrypt(c) == k.raw_decrypt(c)


class TestThreePrimeKeyGeneration:
    """Key shape by size: two primes below :data:`MULTI_POWER_MIN_BITS`,
    three factors (``p²q``) at and above it."""

    @pytest.mark.parametrize("bits", [256, 512, MULTI_POWER_MIN_BITS - 1])
    def test_smaller_keys_have_two_primes(self, bits):
        k = generate_rsa_keypair(bits, rng=random.Random(bits))
        assert k.r is None and k.primes == (k.p, k.q)
        assert k.p * k.q == k.n and k.bits == bits

    def test_deterministic_given_rng(self):
        a = generate_rsa_keypair(1024, rng=random.Random(42))
        b = generate_rsa_keypair(1024, rng=random.Random(42))
        assert a == b and a.r is not None


class TestMultiPowerKeyGeneration:
    def test_p_squared_q_exact_bits(self, multi_power_key):
        k = multi_power_key
        assert k.bits in (1024, 2048)  # exactly the size requested
        assert k.r == k.p and k.p != k.q
        assert k.n == k.p ** 2 * k.q == math.prod(k.primes)
        assert k.p.bit_length() == k.bits // 3
        assert k.q.bit_length() == k.bits - 2 * (k.bits // 3)
        assert all(is_probable_prime(prime) for prime in (k.p, k.q))
        assert k.d == pow(k.e, -1, math.lcm(k.p * (k.p - 1), k.q - 1))


class TestThreePrimeRawOperations:
    """Three-prime keys, as older stores hold, take the same private-key
    path and agree with ``pow(c, d, n)`` at real sizes."""

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


class TestMultiPowerRawOperations:
    """Takagi's lift agrees with ``pow(c, d, n)``, units or not."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lift_agrees_with_plain_exponentiation(self, multi_power_key,
                                                   data):
        k = multi_power_key
        c = data.draw(st.integers(min_value=0, max_value=k.n - 1))
        expected = pow(c, k.d, k.n)
        assert k.raw_decrypt(c) == k.raw_sign(c) == expected

    def test_edge_representatives(self, multi_power_key):
        k = multi_power_key
        for c in (0, 1, k.n - 1, 7 * k.p, 7 * k.p ** 2, 7 * k.q,
                  k.p * k.q, k.n - k.p):
            expected = pow(c, k.d, k.n)
            assert k.raw_decrypt(c) == k.raw_sign(c) == expected

    def test_encrypt_decrypt_round_trip(self, multi_power_key):
        k = multi_power_key
        for m in (2, 0x1234567890ABCDEF, k.n - 2):
            assert k.raw_decrypt(k.public_key.raw_encrypt(m)) == m

    @given(message=st.binary(max_size=256))
    @settings(max_examples=10, deadline=None)
    def test_sign_verify_round_trip(self, multi_power_key, message):
        k = multi_power_key
        signature = sign_pkcs1_v15(k, message, "sha256")
        assert len(signature) == k.byte_length
        assert verify_pkcs1_v15(k.public_key, message, signature, "sha256")

    @given(p=st.sampled_from(TOY_PRIMES), q=st.sampled_from(TOY_PRIMES),
           shape=st.sampled_from(["pq", "ppq", "pqq", "pp"]),
           e=st.sampled_from([3, 5, 7, 17, 65537]))
    @settings(max_examples=150, deadline=None)
    def test_every_representative_of_toy_keys(self, p, q, shape, e):
        """Exhaustive over ``c`` on toy keys, including primes whose
        ``d - 1`` is a multiple of ``p - 1`` and the prime 2."""
        factors = tuple({"p": p, "q": q}[name] for name in shape)
        if p == q and shape != "pp":
            return
        key = toy_key(factors, e)
        if key is None:
            return
        for c in range(key.n):
            assert key.raw_decrypt(c) == pow(c, key.d, key.n), c


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

    def test_multi_power_cache_holds_every_step(self, multi_power_key):
        k = multi_power_key
        steps = k._crt_params()
        assert k._crt[0] == k.n
        q_step, p_step = steps
        # q first: an exponentiation modulo q, no lift.
        assert q_step == (k.q, k.q, k.d % (k.q - 1), 0, 1, 1)
        # Then p²: Takagi's constants d-1 mod p-1 and e^-1 mod p, and
        # Garner's q^-1 mod p².
        prime, modulus, exponent, lift, coefficient, product = p_step
        assert (prime, modulus, product) == (k.p, k.p ** 2, k.q)
        assert exponent == (k.d - 1) % (k.p - 1)
        assert lift * k.e % k.p == 1
        assert coefficient * k.q % k.p ** 2 == 1
        assert k._crt_params() is steps

    def test_multi_power_stale_cache_from_rewritten_factors(self):
        """The factor-rewrite regression for the lift's constants: onto
        a p²q key from another p²q key, a three-prime key and a two-prime
        key, and from a p²q key onto a three-prime key."""
        b = generate_rsa_keypair(1024, rng=random.Random(16))
        three = make_three_prime_key(1024, random.Random(18))
        cases = [(generate_rsa_keypair(1024, rng=random.Random(15)), b),
                 (make_three_prime_key(1024, random.Random(19)), b),
                 (generate_rsa_keypair(512, rng=random.Random(17)), b),
                 (generate_rsa_keypair(1024, rng=random.Random(20)), three)]
        for a, target in cases:
            a._crt_params()
            stale = a._crt
            for name in ("n", "e", "d", "p", "q", "r"):
                object.__setattr__(a, name, getattr(target, name))
            assert a._crt == stale
            for c in (pow(0x1234, a.e, a.n), 7 * target.p, 7 * target.q):
                assert a.raw_decrypt(c) == pow(c, target.d, target.n)
            assert a._crt[0] == target.n
            assert a._crt[1] == target._crt_params()

    def test_planted_foreign_cache_not_trusted(self, signing_key):
        other = generate_rsa_keypair(512, rng=random.Random(13))
        other._crt_params()
        object.__setattr__(signing_key, "_crt", other._crt)
        message = 0x5678
        cipher = pow(message, signing_key.e, signing_key.n)
        assert signing_key.raw_decrypt(cipher) == message
        assert signing_key._crt[0] == signing_key.n
