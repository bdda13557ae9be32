"""WOTS+ — the Winternitz one-time signature of SPHINCS+.

A WOTS+ key is ``wots_len`` hash chains of length ``w``.  Signing reveals
each chain walked to its message digit; verification walks the remainder
and recompresses, so a valid signature reproduces the public key.  Chains
are data-independent — the chain-level parallelism HERO-Sign exploits in
its ``WOTS+_Sign`` kernel.
"""

from __future__ import annotations

from ..errors import SignatureFormatError
from ..hashes.address import Address, AddressType
from ..hashes.thash import HashContext
from ..params import SphincsParams
from .encoding import base_w, checksum_digits

__all__ = ["Wots"]


class Wots:
    """WOTS+ operations bound to one parameter set and hash context."""

    def __init__(self, ctx: HashContext):
        self.ctx = ctx
        self.params: SphincsParams = ctx.params

    # ------------------------------------------------------------------
    def chain(self, value: bytes, start: int, steps: int, pk_seed: bytes,
              adrs: Address) -> bytes:
        """Walk one hash chain from position *start* for *steps* steps.

        ``adrs`` must already carry the chain index; this method only
        advances the hash-position word.
        """
        out = value
        for pos in range(start, start + steps):
            adrs.set_hash(pos)
            out = self.ctx.thash(pk_seed, adrs, out)
        return out

    def chain_starts(self, message: bytes) -> list[int]:
        """Digits (chain start positions for verification walk) of *message*.

        Public as a reusable stage: digit extraction is pure encoding
        (``base_w`` + checksum), independent of how a backend then walks
        the chains.
        """
        digits = base_w(message, self.params.w, self.params.wots_len1)
        digits += checksum_digits(digits, self.params)
        return digits

    def _secret(self, sk_seed: bytes, pk_seed: bytes, adrs: Address) -> bytes:
        sk_adrs = adrs.copy()
        sk_adrs.set_type(AddressType.WOTS_PRF)
        sk_adrs.set_keypair(adrs.keypair)
        sk_adrs.set_chain(adrs.word2)
        return self.ctx.prf(pk_seed, sk_seed, sk_adrs)

    # ------------------------------------------------------------------
    def gen_public_values(self, sk_seed: bytes, pk_seed: bytes,
                          adrs: Address) -> list[bytes]:
        """End-of-chain public value for each of the ``wots_len`` chains."""
        values = []
        for i in range(self.params.wots_len):
            adrs.set_chain(i)
            secret = self._secret(sk_seed, pk_seed, adrs)
            values.append(self.chain(secret, 0, self.params.w - 1, pk_seed, adrs))
        return values

    def gen_leaf(self, sk_seed: bytes, pk_seed: bytes, adrs: Address) -> bytes:
        """``wots_gen_leaf``: compress the public values into a tree leaf.

        This is the routine the paper identifies as the register-pressure
        hot spot of ``TREE_Sign`` (~``wots_len * w`` hashes per call).
        """
        values = self.gen_public_values(sk_seed, pk_seed, adrs)
        pk_adrs = adrs.copy()
        pk_adrs.set_type(AddressType.WOTS_PK)
        pk_adrs.set_keypair(adrs.keypair)
        return self.ctx.thash(pk_seed, pk_adrs, *values)

    # ------------------------------------------------------------------
    def sign(self, message: bytes, sk_seed: bytes, pk_seed: bytes,
             adrs: Address) -> list[bytes]:
        """Sign an n-byte *message*, returning ``wots_len`` chain values."""
        if len(message) != self.params.n:
            raise SignatureFormatError(
                f"WOTS+ signs exactly n={self.params.n} bytes, got {len(message)}"
            )
        signature = []
        for i, digit in enumerate(self.chain_starts(message)):
            adrs.set_chain(i)
            secret = self._secret(sk_seed, pk_seed, adrs)
            signature.append(self.chain(secret, 0, digit, pk_seed, adrs))
        return signature

    def pk_from_sig(self, signature: list[bytes], message: bytes,
                    pk_seed: bytes, adrs: Address) -> bytes:
        """Recompute the leaf (public key) from a signature.

        Valid signatures reproduce the leaf produced by :meth:`gen_leaf`.
        """
        if len(signature) != self.params.wots_len:
            raise SignatureFormatError(
                f"expected {self.params.wots_len} chain values, got {len(signature)}"
            )
        w = self.params.w
        values = []
        for i, (digit, sig_value) in enumerate(
                zip(self.chain_starts(message), signature)):
            adrs.set_chain(i)
            values.append(self.chain(sig_value, digit, w - 1 - digit, pk_seed, adrs))
        pk_adrs = adrs.copy()
        pk_adrs.set_type(AddressType.WOTS_PK)
        pk_adrs.set_keypair(adrs.keypair)
        return self.ctx.thash(pk_seed, pk_adrs, *values)
