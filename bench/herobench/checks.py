"""Seeded inputs and the correctness checks every run makes.

Inputs come from ``random.Random`` streams named after the run's seed,
so the program only ever sees generated bytes.  Every signature is
length-checked as it arrives; after the timed window a seeded 1-in-8
sample is verified with the reference ``Sphincs.verify`` under the
tenant's public key, and four are byte-compared with the reference
deterministic ``Sphincs.sign``.
"""

from __future__ import annotations

import collections
import random

PARAMS = "128f"
TENANTS = ("bench-a", "bench-b", "bench-c", "bench-d")
#: ``--tenants`` value for the ``repro serve-*`` CLIs.
TENANT_SPEC = ",".join(f"{tenant}:{PARAMS}" for tenant in TENANTS)

SAMPLE_ONE_IN = 8
REFERENCE_COMPARES = 4


def stream(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


class Checker:
    """Counts operations attempted and failed, and says why."""

    def __init__(self, seed: int, corrupt: bool = False):
        from repro.sphincs.signer import Sphincs

        self.attempted = 0
        self.failed = 0
        self.reasons: collections.Counter[str] = collections.Counter()
        self._scheme = Sphincs(PARAMS, deterministic=True)
        self._sampler = stream(seed, "verify-sample")
        self._sample: list[tuple[str, bytes, bytes]] = []
        self._corrupt = corrupt
        self._keys: dict = {}

    def keys(self, tenant: str):
        """The tenant's key pair, by the ``--deterministic`` convention
        the CLIs and ``LocalClient.add_tenant`` share."""
        from repro.service import derive_seed

        if tenant not in self._keys:
            self._keys[tenant] = self._scheme.keygen(
                derive_seed(f"{tenant}/default", self._scheme.params.n))
        return self._keys[tenant]

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] += count

    def expect(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(reason)
        return ok

    def signature(self, tenant: str, message: bytes,
                  signature: bytes) -> bool:
        """Length-check one signature and maybe keep it for `finish`."""
        forced = len(self._sample) < REFERENCE_COMPARES
        if self._corrupt:  # the alarm-must-ring hook of test_bench.py
            self._corrupt = False
            forced = True
            signature = signature[:100] + bytes([signature[100] ^ 1]) \
                + signature[101:]
        if not self.expect(len(signature) == self._scheme.params.sig_bytes,
                           "wrong-length"):
            return False
        if forced or self._sampler.randrange(SAMPLE_ONE_IN) == 0:
            self._sample.append((tenant, bytes(message), signature))
        return True

    def finish(self) -> None:
        """Verify the sample; byte-compare the first few with the
        reference signer."""
        for position, (tenant, message, signature) in enumerate(
                self._sample):
            keys = self.keys(tenant)
            if not self.expect(
                    self._scheme.verify(message, signature, keys.public),
                    "does-not-verify"):
                continue
            if position < REFERENCE_COMPARES:
                self.expect(self._scheme.sign(message, keys) == signature,
                            "differs-from-reference")
