"""Textbook RSA key material and raw modular operations.

Padding, hashing, and message formats live in :mod:`repro.crypto.pkcs1`;
this module only knows about integers.  The private operation uses the
CRT speedup, which matters for the pure-Python benchmark numbers: keys of
:data:`THREE_PRIME_MIN_BITS` bits and more are RFC 8017 multi-prime keys
with three primes, recombined with Garner's method (DESIGN.md decision 7).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.crypto.primes import generate_prime
from repro.errors import CryptoError, KeyGenerationError

#: The fourth Fermat prime, the conventional RSA public exponent.
DEFAULT_PUBLIC_EXPONENT = 65537
#: Moduli of at least this many bits get three primes, smaller ones two.
#: Three ~341-bit exponentiations cost about half of two ~512-bit ones at
#: 1024 bits; OpenSSL allows three primes from 1024 up to 4095 bits.
THREE_PRIME_MIN_BITS = 1024


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

    ``r`` is the third prime of an RFC 8017 multi-prime key (``r_3``),
    None for a two-prime key; ``n`` is the product of every prime.
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
    _crt: tuple[int, tuple[tuple[int, int, int, int], ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if min(self.primes) < 2 or math.prod(self.primes) != self.n:
            raise CryptoError(
                "inconsistent RSA private key: product of primes != n")

    @property
    def primes(self) -> tuple[int, ...]:
        """The prime factors ``(p, q)`` or ``(p, q, r)``."""
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

    def _crt_params(self) -> tuple[tuple[int, int, int, int], ...]:
        """Garner steps ``(prime, d mod prime-1, R^-1 mod prime, R)``.

        ``R`` is the product of the primes before this one (1 for the
        first), so the steps are RFC 8017's ``(dQ)``, ``(dP, qInv)`` and
        ``(d_3, t_3)`` in recombination order ``q, p, r``.  Computed once
        per key: a long-lived Auditor key decrypts thousands of records
        per batch, and the modular inverses are the costly part.  The
        cached steps are keyed on this instance *and* its modulus, so a
        cache planted by a different key (or carried across a factor
        rewrite) is recomputed instead of silently reused.
        """
        if self._crt is None or self._crt[0] != self.n:
            steps = []
            product = 1
            for prime in (self.q, self.p, *self.primes[2:]):
                steps.append((prime, self.d % (prime - 1),
                              pow(product, -1, prime), product))
                product *= prime
            object.__setattr__(self, "_crt", (self.n, tuple(steps)))
        return self._crt[1]

    def raw_decrypt(self, c: int) -> int:
        """RSADP via the CRT, recombined with Garner's method.

        After each step ``m`` is ``c^d`` modulo the product of the primes
        so far; the last step leaves it modulo ``n``.
        """
        if not 0 <= c < self.n:
            raise CryptoError("ciphertext representative out of range")
        m = 0
        for prime, exponent, coefficient, product in self._crt_params():
            m += product * ((pow(c, exponent, prime) - m) * coefficient
                            % prime)
        return m

    raw_sign = raw_decrypt  # RSASP1 is the same modular operation.


def generate_rsa_keypair(bits: int = 1024,
                         e: int = DEFAULT_PUBLIC_EXPONENT,
                         rng: random.Random | None = None) -> RsaPrivateKey:
    """Generate an RSA keypair with an exact ``bits``-bit modulus.

    Moduli of :data:`THREE_PRIME_MIN_BITS` bits or more are built from
    three distinct primes (RFC 8017 multi-prime), smaller ones from two.
    ``n``, ``e`` and every ciphertext and signature have the same format
    either way; only the private operation is faster.  Every prime is
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

    count = 3 if bits >= THREE_PRIME_MIN_BITS else 2
    sizes = [bits // count + (i < bits % count) for i in range(count)]
    for _ in range(1000):
        primes = [generate_prime(size, rng=rng) for size in sizes]
        if len(set(primes)) != count:
            continue
        n = math.prod(primes)
        if n.bit_length() != bits:
            continue
        lam = math.lcm(*(prime - 1 for prime in primes))
        if math.gcd(e, lam) != 1:
            continue
        d = pow(e, -1, lam)
        return RsaPrivateKey(n, e, d, *primes)
    raise KeyGenerationError("failed to generate an RSA keypair")
