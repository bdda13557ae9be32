"""Functional SPHINCS+ — a complete, pure-Python implementation.

This package is the algorithmic substrate of the reproduction: real
signatures, real verification, for every parameter set in paper Table I.
It has no dependency on the GPU model; :mod:`repro.core.kernels` extracts
workload shapes from it.

The public entry point is :class:`Sphincs` (keygen / sign / verify);
component schemes (WOTS+, FORS, the hypertree) are importable for direct
experimentation and are exercised independently by the test suite.
"""

from .signer import Sphincs, SignTask, KeyPair
from .wots import Wots
from .fors import Fors
from .merkle import treehash, auth_path, batched_leaves, root_from_auth
from .hypertree import Hypertree
from .encoding import base_w, checksum_digits, message_to_indices, split_digest

__all__ = [
    "Sphincs",
    "SignTask",
    "KeyPair",
    "batched_leaves",
    "Wots",
    "Fors",
    "Hypertree",
    "treehash",
    "auth_path",
    "root_from_auth",
    "base_w",
    "checksum_digits",
    "message_to_indices",
    "split_digest",
]
