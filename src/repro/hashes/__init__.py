"""Hash primitives for the SPHINCS+ functional layer and the compiler model.

Exports
-------
``Sha256``
    A real pure-Python SHA-256, checked against the stdlib ones and, in
    instrumented mode, used to *count* the primitive operations of the
    compression function.  Those counts feed :mod:`repro.gpusim.compiler`
    so the GPU instruction-mix model is derived from the actual algorithm
    rather than hand-entered constants.
``Address``
    The SPHINCS+ hash address (ADRS) structure, including the compressed
    22-byte form used by the SHA-256 instantiation.
``thash``/``prf``/``h_msg`` ...
    The tweakable hash constructions of the SHA-256 *simple* instantiation,
    on ``hashlib``; the midstates the runtime's hot loops hash off, on
    whichever stdlib SHA-256 is faster for each kernel here.
"""

from .sha256 import Sha256, OpCounts, count_compression_ops
from .address import Address, AddressType
from .thash import HashContext

__all__ = [
    "Sha256",
    "OpCounts",
    "count_compression_ops",
    "Address",
    "AddressType",
    "HashContext",
]
