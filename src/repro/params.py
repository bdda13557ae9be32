"""SPHINCS+ parameter sets.

The table mirrors the SPHINCS+ round-3 specification and paper Table I.  The
paper evaluates the *fast* (``-f``) sets; the *small* (``-s``) sets are
included for completeness because the functional layer supports them at no
extra cost.

Derived quantities (WOTS+ chain counts, signature sizes, per-component hash
counts) are computed properties so every other module — the functional
signer as well as the GPU workload builders — draws them from one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "SphincsParams",
    "PARAMETER_SETS",
    "FAST_SETS",
    "SMALL_SETS",
    "get_params",
]


@dataclass(frozen=True)
class SphincsParams:
    """One SPHINCS+ parameter set.

    Attributes
    ----------
    name:
        Canonical name, e.g. ``"SPHINCS+-128f"``.
    n:
        Security parameter: bytes of hash output, seeds and keys.
    h:
        Total height of the hypertree.
    d:
        Number of hypertree layers; each subtree has height ``h / d``.
    log_t:
        Height of each FORS tree (``t = 2**log_t`` leaves).
    k:
        Number of FORS trees.
    w:
        Winternitz parameter for WOTS+.
    """

    name: str
    n: int
    h: int
    d: int
    log_t: int
    k: int
    w: int

    def __post_init__(self) -> None:
        if self.h % self.d != 0:
            raise ParameterError(
                f"{self.name}: hypertree height h={self.h} must be divisible "
                f"by layer count d={self.d}"
            )
        if self.w & (self.w - 1):
            raise ParameterError(f"{self.name}: w={self.w} must be a power of two")
        if self.n not in (16, 24, 32):
            raise ParameterError(f"{self.name}: n={self.n} must be 16, 24 or 32")

    # ------------------------------------------------------------------
    # Tree geometry
    # ------------------------------------------------------------------
    @property
    def tree_height(self) -> int:
        """Height ``h/d`` of each hypertree (XMSS) subtree."""
        return self.h // self.d

    @property
    def tree_leaves(self) -> int:
        """Leaves per hypertree subtree (``2**(h/d)``)."""
        return 1 << self.tree_height

    @property
    def t(self) -> int:
        """Leaves per FORS tree."""
        return 1 << self.log_t

    # ------------------------------------------------------------------
    # WOTS+ geometry
    # ------------------------------------------------------------------
    @property
    def log_w(self) -> int:
        return self.w.bit_length() - 1

    @property
    def wots_len1(self) -> int:
        """Number of chains encoding the message digest."""
        return math.ceil(8 * self.n / self.log_w)

    @property
    def wots_len2(self) -> int:
        """Number of chains encoding the checksum."""
        max_checksum = self.wots_len1 * (self.w - 1)
        return math.floor(math.log2(max_checksum) / self.log_w) + 1

    @property
    def wots_len(self) -> int:
        """Total WOTS+ chain count (``len1 + len2``)."""
        return self.wots_len1 + self.wots_len2

    # ------------------------------------------------------------------
    # Message digest / index extraction geometry
    # ------------------------------------------------------------------
    @property
    def fors_msg_bytes(self) -> int:
        """Bytes of digest consumed by the FORS index extraction."""
        return math.ceil(self.k * self.log_t / 8)

    @property
    def tree_msg_bytes(self) -> int:
        """Bytes of digest selecting the hypertree leaf chain (idx_tree)."""
        return math.ceil((self.h - self.tree_height) / 8)

    @property
    def leaf_msg_bytes(self) -> int:
        """Bytes of digest selecting the leaf within the bottom subtree."""
        return math.ceil(self.tree_height / 8)

    @property
    def digest_bytes(self) -> int:
        """Total H_msg digest length consumed by index extraction."""
        return self.fors_msg_bytes + self.tree_msg_bytes + self.leaf_msg_bytes

    # ------------------------------------------------------------------
    # Sizes (bytes)
    # ------------------------------------------------------------------
    @property
    def wots_sig_bytes(self) -> int:
        return self.wots_len * self.n

    @property
    def fors_sig_bytes(self) -> int:
        """k * (secret value + auth path of log_t siblings)."""
        return self.k * (1 + self.log_t) * self.n

    @property
    def xmss_sig_bytes(self) -> int:
        """One hypertree layer: WOTS+ signature + auth path."""
        return self.wots_sig_bytes + self.tree_height * self.n

    @property
    def sig_bytes(self) -> int:
        """Full signature: randomizer + FORS + d hypertree layers."""
        return self.n + self.fors_sig_bytes + self.d * self.xmss_sig_bytes

    @property
    def pk_bytes(self) -> int:
        return 2 * self.n

    # ------------------------------------------------------------------
    # Hash-operation counts (used by the GPU workload builders)
    # ------------------------------------------------------------------
    @property
    def hashes_per_wots_leaf(self) -> int:
        """Hash calls to build one WOTS+ leaf (``wots_gen_leaf``).

        Each of ``wots_len`` chains needs one PRF (secret key) plus ``w-1``
        chain steps to reach the public value; compressing the ``wots_len``
        public values into the leaf costs one more (multi-block) T-hash.
        The paper quotes ~560 / 816 / 1072 SHA-2 computations for one leaf
        under 128f/192f/256f; this property reproduces those counts.
        """
        return self.wots_len * self.w

    @property
    def hashes_per_fors_leaf(self) -> int:
        """PRF (secret value) + leaf hash."""
        return 2

    def fors_sign_hashes(self) -> int:
        """Total hash calls in FORS_Sign: leaves + internal-node reduction."""
        per_tree = self.t * self.hashes_per_fors_leaf + (self.t - 1)
        return self.k * per_tree

    def tree_sign_hashes(self) -> int:
        """Total hash calls in TREE_Sign (all d layers of the hypertree)."""
        leaves = self.tree_leaves * self.hashes_per_wots_leaf
        internal = self.tree_leaves - 1
        return self.d * (leaves + internal)

    def wots_sign_hashes(self) -> int:
        """Hash calls to produce the d WOTS+ signatures (chains to msg value).

        Signing evaluates each chain only up to the message digit; on average
        that is ``w/2`` steps plus one PRF per chain.
        """
        avg_steps = self.w // 2
        return self.d * self.wots_len * (1 + avg_steps)

    def total_sign_hashes(self) -> int:
        return self.fors_sign_hashes() + self.tree_sign_hashes() + self.wots_sign_hashes()


def _make_sets() -> dict[str, SphincsParams]:
    table = [
        # name            n   h   d  log_t  k   w
        ("SPHINCS+-128f", 16, 66, 22, 6, 33, 16),
        ("SPHINCS+-128s", 16, 63, 7, 12, 14, 16),
        ("SPHINCS+-192f", 24, 66, 22, 8, 33, 16),
        ("SPHINCS+-192s", 24, 63, 7, 14, 17, 16),
        ("SPHINCS+-256f", 32, 68, 17, 9, 35, 16),
        ("SPHINCS+-256s", 32, 64, 8, 14, 22, 16),
    ]
    return {
        name: SphincsParams(name, n, h, d, log_t, k, w)
        for name, n, h, d, log_t, k, w in table
    }


PARAMETER_SETS: dict[str, SphincsParams] = _make_sets()
FAST_SETS: tuple[str, ...] = ("SPHINCS+-128f", "SPHINCS+-192f", "SPHINCS+-256f")
SMALL_SETS: tuple[str, ...] = ("SPHINCS+-128s", "SPHINCS+-192s", "SPHINCS+-256s")

_ALIASES = {
    "128f": "SPHINCS+-128f",
    "192f": "SPHINCS+-192f",
    "256f": "SPHINCS+-256f",
    "128s": "SPHINCS+-128s",
    "192s": "SPHINCS+-192s",
    "256s": "SPHINCS+-256s",
}


def get_params(name: str) -> SphincsParams:
    """Look up a parameter set by canonical name or short alias.

    >>> get_params("128f").n
    16
    >>> get_params("SPHINCS+-256f").k
    35
    """
    canonical = _ALIASES.get(name.lower().removeprefix("sphincs+-"), name)
    try:
        return PARAMETER_SETS[canonical]
    except KeyError:
        known = ", ".join(sorted(PARAMETER_SETS))
        raise ParameterError(f"unknown parameter set {name!r}; known: {known}") from None
