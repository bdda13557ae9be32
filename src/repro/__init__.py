"""HERO-Sign reproduction.

A production-quality Python library reproducing *HERO-Sign: Hierarchical
Tuning and Efficient Compiler-Time GPU Optimizations for SPHINCS+ Signature
Generation* (Zhou & Wang, HPCA 2026).

Layers
------
``repro.sphincs``
    A complete functional SPHINCS+ (SHA-256 simple instantiation): real
    key generation, signing and verification for the 128f/192f/256f (and
    -s) parameter sets.
``repro.runtime``
    The unified batch-signing runtime: one ``SigningBackend`` interface
    over two signers (scalar reference, vectorized plan) with first-class
    ``sign_batch`` APIs, and the ``BatchScheduler`` that cuts a message
    list into batches, routes them, and accounts them.
``repro.gpusim``
    An analytical GPU performance model — device catalog, occupancy, a
    compiler model with native/PTX SHA-256 branches, exact shared-memory
    bank-conflict simulation, streams and task graphs.
``repro.core``
    HERO-Sign itself: the Tree Tuning search (paper Algorithm 1), FORS
    Fusion and Relax-FORS, the generalized bank-padding rule, adaptive
    compile-time branch selection, hybrid memory placement, and the
    task-graph batch signer — plus the TCAS-SPHINCSp baseline model.

Quickstart
----------
>>> import repro
>>> scheme = repro.Sphincs("128f", deterministic=True)
>>> keys = scheme.keygen(seed=bytes(48))
>>> sig = scheme.sign(b"post-quantum", keys)
>>> scheme.verify(b"post-quantum", sig, keys.public)
True
"""

from .params import PARAMETER_SETS, FAST_SETS, SMALL_SETS, SphincsParams, get_params
from .sphincs import Sphincs, KeyPair
from .errors import (
    ReproError,
    ParameterError,
    AddressError,
    BackendError,
    SignatureFormatError,
    GpuModelError,
    LaunchConfigError,
    SharedMemoryError,
    TuningError,
    GraphError,
)


def __getattr__(name: str):
    # Lazy: the runtime (scheduler/backends) and the client API facade
    # pull in their layers only when asked for.
    if name in ("runtime", "api"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"

__all__ = [
    "PARAMETER_SETS",
    "FAST_SETS",
    "SMALL_SETS",
    "SphincsParams",
    "get_params",
    "Sphincs",
    "KeyPair",
    "ReproError",
    "ParameterError",
    "AddressError",
    "BackendError",
    "runtime",
    "api",
    "SignatureFormatError",
    "GpuModelError",
    "LaunchConfigError",
    "SharedMemoryError",
    "TuningError",
    "GraphError",
    "__version__",
]
