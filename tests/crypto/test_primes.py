"""Tests for repro.crypto.primes."""

import math
import random

import pytest

from repro.crypto import primes
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import KeyGenerationError

KNOWN_PRIMES = [2, 3, 5, 7, 97, 101, 65537, 2_147_483_647]  # includes M31
KNOWN_COMPOSITES = [0, 1, 4, 9, 561, 1105, 2821, 65536,     # Carmichaels too
                    2_147_483_649]


class TestIsProbablePrime:
    @pytest.mark.parametrize("n", KNOWN_PRIMES)
    def test_known_primes(self, n):
        assert is_probable_prime(n)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites_including_carmichael(self, n):
        assert not is_probable_prime(n)

    def test_negative_numbers(self):
        assert not is_probable_prime(-7)

    def test_large_known_prime(self):
        # 2^127 - 1 (Mersenne prime) exceeds the deterministic bound.
        assert is_probable_prime(2 ** 127 - 1, rng=random.Random(1))

    def test_large_known_composite(self):
        assert not is_probable_prime((2 ** 127 - 1) * 3, rng=random.Random(1))

    def test_product_of_two_primes(self):
        assert not is_probable_prime(65537 * 65539)


class TestGeneratePrime:
    def test_exact_bit_length(self):
        rng = random.Random(7)
        for bits in (16, 64, 256):
            p = generate_prime(bits, rng=rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_top_two_bits_set(self):
        p = generate_prime(32, rng=random.Random(9))
        assert (p >> 30) & 0b11 == 0b11

    def test_always_odd(self):
        rng = random.Random(11)
        assert all(generate_prime(24, rng=rng) % 2 == 1 for _ in range(5))

    def test_deterministic_given_rng(self):
        assert (generate_prime(64, rng=random.Random(5))
                == generate_prime(64, rng=random.Random(5)))

    def test_too_small_rejected(self):
        with pytest.raises(KeyGenerationError):
            generate_prime(4)


#: The smallest strong pseudoprime to the first twelve prime bases
#: (psi_12, Sorenson & Webster): 399165290221 * 798330580441.
PSI_12 = 318_665_857_834_031_151_167_461


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


class RecordingRandom(random.Random):
    """A seeded rng that records the bounds of every ``randrange`` draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.ranges = []

    def randrange(self, start, stop=None, step=1):
        self.ranges.append((start, stop))
        return super().randrange(start, stop, step)


@pytest.fixture()
def certificates(monkeypatch):
    """Every ``(n, q, t, a)`` the generator accepts, keyed by ``n``."""
    accepted: dict[int, tuple[int, int, int]] = {}
    accepts = primes._pocklington_accepts

    def recording(n, q, t, a):
        ok = accepts(n, q, t, a)
        if ok:
            accepted[n] = (q, t, a)
        return ok

    monkeypatch.setattr(primes, "_pocklington_accepts", recording)
    return accepted


def check_certificate(n: int, certificates: dict) -> None:
    """Re-check ``n``'s Pocklington chain without the module's helper."""
    if n.bit_length() <= 81:
        assert n < primes._DETERMINISTIC_BOUND
        assert is_probable_prime(n)   # a proof below the bound
        return
    q, t, a = certificates[n]
    check_certificate(q, certificates)
    assert n == 2 * t * q + 1
    assert q * q > n
    assert math.gcd(pow(a, 2 * t, n) - 1, n) == 1
    assert pow(a, n - 1, n) == 1


class TestIsProbablePrimeWitnesses:
    def test_psi_12_is_composite(self):
        # A strong pseudoprime to bases 2..37; base 41 exposes it.
        assert PSI_12 < primes._DETERMINISTIC_BOUND
        assert not is_probable_prime(PSI_12)

    def test_random_witnesses_drawn_only_when_their_round_runs(self):
        prime = 2 ** 127 - 1
        rng = RecordingRandom(1)
        assert is_probable_prime(prime, rng=rng)
        assert len(rng.ranges) == 40
        rng = RecordingRandom(1)
        assert not is_probable_prime(prime * (2 ** 89 - 1), rng=rng)
        assert len(rng.ranges) < 40


class TestPocklingtonAcceptance:
    def test_acceptance_implies_prime_exhaustively(self):
        """Every n = 2tq + 1 < 2000 with prime q > sqrt(n), every base."""
        tried_composites = proven = 0
        for q in range(3, 1000):
            if not is_prime_by_trial_division(q):
                continue
            for t in range(1, 1000):
                n = 2 * t * q + 1
                if n >= 2000 or q * q <= n:
                    break
                is_prime = is_prime_by_trial_division(n)
                failing = 0
                for a in range(n):
                    if primes._pocklington_accepts(n, q, t, a):
                        assert is_prime, (n, q, t, a)
                    elif a:
                        failing += 1
                if is_prime:
                    # Exactly the 2t bases with a^(2t) = 1 fail.
                    assert failing == 2 * t
                    proven += 1
                else:
                    tried_composites += 1
        assert tried_composites > 50 and proven > 50


class TestProvenPrimes:
    @pytest.mark.parametrize("bits", [81, 82, 128, 256, 341, 342, 512, 683])
    def test_every_prime_carries_a_certificate(self, bits, certificates):
        p = generate_prime(bits, rng=random.Random(bits))
        assert p.bit_length() == bits
        assert p >> (bits - 2) == 0b11
        assert is_probable_prime(p, rng=random.Random(1))
        check_certificate(p, certificates)
        assert (p in certificates) == (bits > 81)

    @pytest.mark.parametrize("bits", [82, 512])
    def test_t_range_is_exactly_the_bits_wide_candidates(self, bits,
                                                         certificates):
        rng = RecordingRandom(bits)
        p = generate_prime(bits, rng=rng)
        q = certificates[p][0]
        # The last draw is the accepted base; the one before it is t's.
        t_low, t_stop = rng.ranges[-2]
        low, high = 3 << (bits - 2), 1 << bits
        assert 2 * (t_low - 1) * q + 1 < low <= 2 * t_low * q + 1
        assert 2 * (t_stop - 1) * q + 1 < high <= 2 * t_stop * q + 1

    def test_small_primes_unchanged_by_the_proof(self):
        # Pinned from the random search that once made every prime; up to
        # 81 bits it is still the generator, so these seeds keep them.
        assert generate_prime(64, rng=random.Random(5)) == 15837184877706723481
        assert (generate_prime(81, rng=random.Random(81))
                == 1948020818877572756655199)

    @pytest.mark.parametrize("bits", [1024, 2048])
    def test_keygen_runs_no_random_witness_round(self, bits, monkeypatch):
        tested = []
        round_ = primes._miller_rabin_round

        def recording(n, d, r, witness):
            tested.append(n)
            return round_(n, d, r, witness)

        monkeypatch.setattr(primes, "_miller_rabin_round", recording)
        key = generate_rsa_keypair(bits, rng=random.Random(bits))
        assert key.bits == bits
        assert tested and max(tested) < primes._DETERMINISTIC_BOUND
