"""Textbook RSA key material and raw modular operations.

Padding, hashing, and message formats live in :mod:`repro.crypto.pkcs1`;
this module only knows about integers.  The private operation uses the
CRT speedup, which matters for the pure-Python benchmark numbers: keys of
:data:`MULTI_POWER_MIN_BITS` bits and more are multi-power keys
``n = p²q`` (Takagi), whose ``p²`` residue is Hensel-lifted from one
exponentiation modulo ``p``; every residue is recombined with Garner's
method (DESIGN.md decision 7).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.crypto.primes import generate_prime
from repro.errors import CryptoError, KeyGenerationError

#: The fourth Fermat prime, the conventional RSA public exponent.
DEFAULT_PUBLIC_EXPONENT = 65537
#: Moduli of at least this many bits are ``p²q``, smaller ones ``pq``.  At
#: 1024 bits two ~341-bit exponentiations and a short Hensel lift cost
#: about 0.4x of two ~512-bit exponentiations and 0.7x of three ~341-bit
#: ones (a three-prime key).
MULTI_POWER_MIN_BITS = 1024


def _carmichael(factors: tuple[int, ...]) -> int:
    """λ(n) for ``n`` the product of ``factors``, a prime listed twice
    counting as its square: the lcm of ``p^(k-1)·(p-1)`` over them."""
    return math.lcm(*(prime ** (factors.count(prime) - 1) * (prime - 1)
                      for prime in set(factors)))


@dataclass(frozen=True, slots=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        """Modulus size in bytes (``k`` in PKCS#1 terms)."""
        return (self.n.bit_length() + 7) // 8

    def raw_encrypt(self, m: int) -> int:
        """RSAEP: ``m^e mod n``."""
        if not 0 <= m < self.n:
            raise CryptoError("message representative out of range")
        return pow(m, self.e, self.n)

    raw_verify = raw_encrypt  # RSAVP1 is the same modular operation.


@dataclass(frozen=True, slots=True)
class RsaPrivateKey:
    """An RSA private key with CRT parameters.

    ``n`` is the product of ``p``, ``q`` and ``r``.  ``r`` is None for a
    two-prime key, ``p`` again for a multi-power key ``n = p²q``, or a
    third prime for an RFC 8017 three-prime key, which stores written by
    earlier versions hold.  Construction
    checks the key is usable: the factors multiply to ``n``, none
    repeats more than twice, the distinct ones are pairwise coprime, and
    ``d > 1`` with ``e·d ≡ 1 (mod λ(n))``.  Primality is proven at
    keygen, not here.
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    r: int | None = None
    # CRT parameters cached on the key itself so they are garbage-collected
    # with it; a module-global memo keyed on (d, p, q) would pin secret key
    # material alive long after the key object is discarded.  The cache is
    # tagged with the modulus it was derived from: a copied instance whose
    # factors were then rewritten (``copy`` + ``object.__setattr__`` is the
    # only way to "mutate" a frozen key) must not decrypt with another
    # key's exponents.
    _crt: tuple[int, tuple[tuple[int, ...], ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        factors = self.primes
        if min(factors) < 2 or math.prod(factors) != self.n:
            raise CryptoError(
                "inconsistent RSA private key: product of primes != n")
        if any(factors.count(prime) > 2 for prime in factors):
            raise CryptoError(
                "inconsistent RSA private key: a prime repeats more than twice")
        if math.lcm(*set(factors)) != math.prod(set(factors)):
            raise CryptoError(
                "inconsistent RSA private key: factors are not coprime")
        if self.d < 2 or self.e * self.d % _carmichael(factors) != 1:
            raise CryptoError(
                "inconsistent RSA private key: d is not 1/e mod lambda(n)")

    @property
    def primes(self) -> tuple[int, ...]:
        """The factors ``(p, q)`` or ``(p, q, r)`` of ``n``."""
        if self.r is None:
            return (self.p, self.q)
        return (self.p, self.q, self.r)

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    @property
    def public_key(self) -> RsaPublicKey:
        """The matching public key."""
        return RsaPublicKey(self.n, self.e)

    def _crt_params(self) -> tuple[tuple[int, ...], ...]:
        """Steps ``(prime, modulus, exponent, lift, R^-1 mod modulus, R)``.

        One step per distinct prime, in recombination order ``q, p, r``:
        ``modulus`` is the prime or its square, and ``R`` the product of
        the moduli before it (1 for the first).  A simple prime's
        ``exponent`` is ``d mod prime-1`` (RFC 8017's ``dQ``, ``dP``,
        ``d_3``) and its ``lift`` 0.  A squared prime's ``exponent`` is
        ``d-1 mod prime-1`` and its ``lift`` is ``e^-1 mod prime``, the
        constants of Takagi's step in :meth:`raw_decrypt`.  An exponent
        that would be 0 is ``prime-1`` instead, so ``c ≡ 0 (mod prime)``
        still gives 0.  Computed once per key: a long-lived Auditor key
        decrypts thousands of records per batch, and the modular inverses
        are the costly part.  The cached steps are keyed on this instance
        *and* its modulus, so a cache planted by a different key (or
        carried across a factor rewrite) is recomputed instead of
        silently reused.
        """
        if self._crt is None or self._crt[0] != self.n:
            steps = []
            product = 1
            factors = (self.q, self.p, *self.primes[2:])
            for prime in dict.fromkeys(factors):
                power = factors.count(prime)
                modulus = prime ** power
                steps.append((prime, modulus,
                              (self.d + 1 - power) % (prime - 1) or prime - 1,
                              pow(self.e, -1, prime) if power == 2 else 0,
                              pow(product, -1, modulus), product))
                product *= modulus
            object.__setattr__(self, "_crt", (self.n, tuple(steps)))
        return self._crt[1]

    def raw_decrypt(self, c: int) -> int:
        """RSADP via the CRT, recombined with Garner's method.

        A squared prime ``p`` takes Takagi's Hensel step instead of an
        exponentiation modulo ``p²``: ``y = c^(d-1) mod p`` gives both
        ``m0 = y·c = c^d mod p`` and the inverse of the derivative,
        ``(e·m0^(e-1))^-1 = e^-1·y mod p``, so lifting ``m0`` to the root
        of ``x^e ≡ c (mod p²)`` costs one short ``pow(m0, e, p²)`` and no
        modular inverse.  After each step ``m`` is ``c^d`` modulo the
        product of the moduli so far; the last step leaves it modulo
        ``n``.
        """
        if not 0 <= c < self.n:
            raise CryptoError("ciphertext representative out of range")
        m = 0
        steps = self._crt_params()
        for prime, modulus, exponent, lift, coefficient, product in steps:
            residue = pow(c, exponent, prime)
            if lift:
                root = residue * c % prime
                residue = root + prime * (
                    (c - pow(root, self.e, modulus)) // prime * residue
                    * lift % prime)
            m += product * ((residue - m) * coefficient % modulus)
        return m

    raw_sign = raw_decrypt  # RSASP1 is the same modular operation.


def generate_rsa_keypair(bits: int = 1024,
                         e: int = DEFAULT_PUBLIC_EXPONENT,
                         rng: random.Random | None = None) -> RsaPrivateKey:
    """Generate an RSA keypair with an exact ``bits``-bit modulus.

    Moduli of :data:`MULTI_POWER_MIN_BITS` bits or more are ``p²q`` for
    two distinct primes, ``p`` of ``bits // 3`` bits and ``q`` of the
    rest; smaller ones are ``pq`` with ``p`` the larger half.  ``n``,
    ``e`` and every ciphertext and signature have the same format either
    way; only the private operation is faster.  Every prime is
    proven, not probable (:func:`~repro.crypto.primes.generate_prime`,
    DESIGN.md decision 8), and a seeded ``rng`` gives the same key each
    time.

    Args:
        bits: modulus size; the paper benchmarks 1024 and 2048.
        e: public exponent, must be odd and > 2.
        rng: source of randomness; pass a seeded ``random.Random`` for
            reproducible test keys, defaults to ``SystemRandom``.
    """
    if bits < 128:
        raise KeyGenerationError(f"modulus too small for PKCS#1 framing: {bits} bits")
    if e < 3 or e % 2 == 0:
        raise KeyGenerationError(f"invalid public exponent: {e}")
    rng = rng or random.SystemRandom()

    multi_power = bits >= MULTI_POWER_MIN_BITS
    p_bits = bits // 3 if multi_power else bits - bits // 2
    q_bits = bits - (2 if multi_power else 1) * p_bits
    for _ in range(1000):
        p = generate_prime(p_bits, rng=rng)
        q = generate_prime(q_bits, rng=rng)
        factors = (p, q, p) if multi_power else (p, q)
        n = math.prod(factors)
        if p == q or n.bit_length() != bits:
            continue
        lam = _carmichael(factors)
        if math.gcd(e, lam) != 1:
            continue
        return RsaPrivateKey(n, e, pow(e, -1, lam), *factors)
    raise KeyGenerationError("failed to generate an RSA keypair")
