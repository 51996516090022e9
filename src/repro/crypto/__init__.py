"""Cryptographic substrate, implemented from scratch on the stdlib.

The paper's prototype uses OP-TEE's ``TEE_ALG_RSASSA_PKCS1_V1_5_SHA1`` for
signing GPS samples and ``RSAES_PKCS1_v1_5`` for encrypting the PoA to the
Auditor.  This package provides interoperable implementations of both, plus
the symmetric and one-time-key schemes sketched in the paper's discussion
section (§VII-A1, §VII-B3).  PoAs are sealed under one RSAES-wrapped key
per submission (:mod:`repro.crypto.envelope`) rather than per record.

Nothing here should be used to protect real data: the RSA implementation is
not constant-time and PKCS#1 v1.5 encryption is obsolete.  It exists to
reproduce the paper's protocol and cost profile faithfully.
"""

from repro.crypto.primes import is_probable_prime, generate_prime
from repro.crypto.rsa import RsaPublicKey, RsaPrivateKey, generate_rsa_keypair
from repro.crypto.pkcs1 import (
    sign_pkcs1_v15,
    verify_pkcs1_v15,
    encrypt_pkcs1_v15,
    decrypt_pkcs1_v15,
)
from repro.crypto.keys import (
    public_key_to_bytes,
    public_key_from_bytes,
    private_key_to_bytes,
    private_key_from_bytes,
    key_fingerprint,
)
from repro.crypto.hmac_sign import hmac_sign, hmac_verify, generate_hmac_key
from repro.crypto.digest import framed_sha256, framed_hmac_sha256
from repro.crypto.schemes import (
    SCHEME_RSA,
    SCHEME_BATCH,
    SCHEME_CHAIN,
    AuthScheme,
    SampleSigner,
    ChainFinalizer,
    authenticate_payloads,
    get_scheme,
    scheme_ids,
)
from repro.crypto.onetime import OneTimeKey, onetime_encrypt, onetime_decrypt

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "RsaPublicKey",
    "RsaPrivateKey",
    "generate_rsa_keypair",
    "sign_pkcs1_v15",
    "verify_pkcs1_v15",
    "encrypt_pkcs1_v15",
    "decrypt_pkcs1_v15",
    "public_key_to_bytes",
    "public_key_from_bytes",
    "private_key_to_bytes",
    "private_key_from_bytes",
    "key_fingerprint",
    "hmac_sign",
    "hmac_verify",
    "generate_hmac_key",
    "framed_sha256",
    "framed_hmac_sha256",
    "SCHEME_RSA",
    "SCHEME_BATCH",
    "SCHEME_CHAIN",
    "AuthScheme",
    "SampleSigner",
    "ChainFinalizer",
    "authenticate_payloads",
    "get_scheme",
    "scheme_ids",
    "OneTimeKey",
    "onetime_encrypt",
    "onetime_decrypt",
]
