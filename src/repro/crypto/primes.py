"""Primality testing and proven-prime generation for RSA key material.

:func:`generate_prime` returns *proven* primes.  Up to 81 bits it draws
random odd candidates and tests them with Miller-Rabin on the first
thirteen prime bases, which is a proof below the Sorenson-Webster bound
(~2^81.4).  Above that it follows Shawe-Taylor (FIPS 186-4 App. C.6):
recursively generate a proven prime ``q`` just above ``sqrt(n)``, draw
``n = 2tq + 1`` and prove ``n`` with Pocklington's theorem, one modular
exponentiation per surviving candidate (DESIGN.md decision 8).
:func:`is_probable_prime` stays a Miller-Rabin test for arbitrary input.
Both accept an explicit ``random.Random`` so test suites can generate keys
reproducibly.
"""

from __future__ import annotations

import math
import random

from repro.errors import KeyGenerationError

# Trial-division wheel of small primes: rejects ~77% of random candidates
# before the expensive Miller-Rabin rounds.
_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
)

#: Product of the odd primes below 1024: one ``math.gcd`` with it rejects
#: a Pocklington candidate that has any of them as a factor.
_SMALL_ODD_PRIMORIAL = math.prod(
    p for p in range(3, 1024, 2)
    if all(p % f for f in range(3, math.isqrt(p) + 1, 2)))

# Miller-Rabin on the first thirteen prime bases proves primality for all
# n below psi_13 ~ 3.3 * 10^24 ~ 2^81.4 (Sorenson & Webster, 2015).  The
# first twelve alone stop at psi_12 ~ 3.2 * 10^23, a strong pseudoprime
# to all of them.
_DETERMINISTIC_WITNESSES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
#: Every number of at most this many bits is below the bound, so the
#: random search proves what it returns.
_SEARCH_MAX_BITS = _DETERMINISTIC_BOUND.bit_length() - 1


def _miller_rabin_round(n: int, d: int, r: int, witness: int) -> bool:
    """One Miller-Rabin round; True when ``n`` passes for this witness."""
    x = pow(witness, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 40,
                      rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic (an actual proof) for ``n`` below ~3.3e24; otherwise uses
    ``rounds`` random witnesses for an error bound of 4^-rounds, each drawn
    only when its round runs.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < _DETERMINISTIC_BOUND:
        return all(_miller_rabin_round(n, d, r, w)
                   for w in _DETERMINISTIC_WITNESSES)
    rng = rng or random.SystemRandom()
    return all(_miller_rabin_round(n, d, r, rng.randrange(2, n - 1))
               for _ in range(rounds))


def _pocklington_accepts(n: int, q: int, t: int, a: int) -> bool:
    """Pocklington's test of ``n = 2tq + 1`` with base ``a``.

    For a prime ``q`` with ``q * q > n``, True proves ``n`` prime: every
    prime factor ``p`` of ``n`` then has ``a^(n-1) = 1`` but
    ``a^(2t) != 1 (mod p)``, so ``q`` divides the order of ``a`` and hence
    ``p - 1``, which puts every prime factor above ``sqrt(n)``.  A prime
    ``n`` fails only for the at most ``1/q`` of bases with ``a^(2t) = 1``.
    """
    z = pow(a, 2 * t, n)
    return math.gcd(z - 1, n) == 1 and pow(z, q, n) == 1


def generate_prime(bits: int, rng: random.Random | None = None,
                   max_attempts: int = 100_000) -> int:
    """A random proven prime of exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits, as RSA keygen requires.  Above
    ``_SEARCH_MAX_BITS`` the prime is ``n = 2tq + 1`` for a recursively
    generated prime ``q`` of ``ceil(bits / 2) + 1`` bits, so ``q > sqrt(n)``,
    and ``t`` uniform over the values that keep ``n`` in range.
    ``max_attempts`` bounds the candidates tried at each size.
    """
    if bits < 8:
        raise KeyGenerationError(f"prime size too small: {bits} bits")
    rng = rng or random.SystemRandom()
    if bits <= _SEARCH_MAX_BITS:
        for _ in range(max_attempts):
            candidate = rng.getrandbits(bits)
            candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
            if is_probable_prime(candidate, rng=rng):
                return candidate
    else:
        q = generate_prime((bits + 1) // 2 + 1, rng, max_attempts)
        # 3 * 2^(bits-2) <= 2tq + 1 < 2^bits: exactly ``bits`` bits, top two set.
        t_low = -(-((3 << (bits - 2)) - 1) // (2 * q))
        t_high = ((1 << bits) - 2) // (2 * q)
        for _ in range(max_attempts):
            t = rng.randrange(t_low, t_high + 1)
            n = 2 * t * q + 1
            if (math.gcd(n, _SMALL_ODD_PRIMORIAL) == 1
                    and _pocklington_accepts(n, q, t, rng.randrange(2, n - 1))):
                return n
    raise KeyGenerationError(f"no {bits}-bit prime found in {max_attempts} attempts")
