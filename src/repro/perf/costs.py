"""Per-operation costs on the benchmark platform.

The paper's platform is a Raspberry Pi 3 Model B (1.2 GHz 4-core ARMv8,
1 GB LPDDR2).  We cannot run on that hardware, so the cost model is
**calibrated from Table II itself**: with a single-threaded sampler on a
4-core machine, CPU% (of all cores) = rate * t_sign / 4, hence

    t_sign(1024) = mean((2.17*4/100)/2, (3.17*4/100)/3, (5.59*4/100)/5)
                 = mean(43.4 ms, 42.3 ms, 44.7 ms)  ~= 43.4 ms
    t_sign(2048) = mean((10.94*4/100)/2, (16.81*4/100)/3)
                 = mean(218.8 ms, 224.1 ms)          ~= 221.5 ms

The 2048/1024 ratio (5.1x) matches what our own pure-Python RSA measures
for a PKCS#1 v1.5 signature (best of 15 interleaved rounds on a 2-vCPU
x86-64 host, CPython 3.11): ~5.4x with two-prime keys and ~5.0x (4.7-5.7x
over six runs) with the ``n = p²q`` keys ``generate_rsa_keypair`` makes at
1024 bits and above, the expected cubic-ish scaling of the CRT private
operation.  World-switch and read costs are taken from the OP-TEE
literature; they are three orders of magnitude below the signature and
only matter for the margin ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CostModel:
    """Seconds of single-core busy time per operation.

    Attributes:
        sign_seconds: RSA private-key signature cost by modulus bits.
        encrypt_seconds: RSA public-key encryption cost by modulus bits
            (public ops with e = 65537 are ~100x cheaper than private).
        smc_round_trip_seconds: one normal->secure->normal world switch.
        gps_read_seconds: one normal-world ``ReadGPS`` (register read +
            NMEA parse).
        num_cores: cores on the platform; CPU%% is reported relative to
            all of them (so a single busy core saturates at 25%% on 4).
    """

    sign_seconds: dict[int, float]
    encrypt_seconds: dict[int, float]
    smc_round_trip_seconds: float = 20e-6
    gps_read_seconds: float = 60e-6
    num_cores: int = 4

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be at least 1")

    def sign_cost(self, key_bits: int) -> float:
        """Signature cost for a key size, interpolating unknown sizes.

        Unknown sizes scale from the nearest calibrated size by the cube
        of the modulus ratio (schoolbook modmul in the CRT exponentiation).
        """
        if key_bits in self.sign_seconds:
            return self.sign_seconds[key_bits]
        nearest = min(self.sign_seconds, key=lambda b: abs(b - key_bits))
        return self.sign_seconds[nearest] * (key_bits / nearest) ** 3

    def encrypt_cost(self, key_bits: int) -> float:
        """Public-key encryption cost for a key size (same interpolation,
        quadratic in the modulus because the exponent is fixed)."""
        if key_bits in self.encrypt_seconds:
            return self.encrypt_seconds[key_bits]
        nearest = min(self.encrypt_seconds, key=lambda b: abs(b - key_bits))
        return self.encrypt_seconds[nearest] * (key_bits / nearest) ** 2

    def auth_sample_cost(self, key_bits: int) -> float:
        """Busy time for one ``GetGPSAuth``: SMC + driver read + sign."""
        return (self.smc_round_trip_seconds + self.gps_read_seconds
                + self.sign_cost(key_bits))

    def sustainable_rate_hz(self, key_bits: int) -> float:
        """The highest sampling rate one core can keep up with.

        Table II's "-" rows are exactly the configurations whose requested
        rate exceeds this bound.
        """
        return 1.0 / self.auth_sample_cost(key_bits)

    def can_sustain(self, rate_hz: float, key_bits: int) -> bool:
        """Whether a fixed rate is sustainable on one core."""
        return rate_hz <= self.sustainable_rate_hz(key_bits) + 1e-9


#: Table-II-calibrated Raspberry Pi 3 Model B cost model.
RASPBERRY_PI_3 = CostModel(
    sign_seconds={1024: 0.04340, 2048: 0.22146},
    encrypt_seconds={1024: 0.00180, 2048: 0.00640},
    smc_round_trip_seconds=20e-6,
    gps_read_seconds=60e-6,
    num_cores=4,
)

#: Template for a model calibrated at runtime against the local machine;
#: the crypto micro-benchmark fills in measured sign/encrypt costs.
THIS_MACHINE_TEMPLATE = CostModel(
    sign_seconds={1024: 0.0018, 2048: 0.0090},
    encrypt_seconds={1024: 0.00006, 2048: 0.00020},
    smc_round_trip_seconds=2e-6,
    gps_read_seconds=5e-6,
    num_cores=4,
)
