"""Backend names -> :class:`SigningBackend` classes.

Two signers: ``scalar``, the reference walk every other path is checked
against, and ``vectorized``, the signing plan every serving front runs.
"""

from __future__ import annotations

from ..errors import BackendError
from ..params import SphincsParams
from .backend import SigningBackend
from .scalar import ScalarBackend
from .vectorized import VectorizedBackend

__all__ = ["BACKENDS", "get_backend"]

#: The name table: ``serve --backends`` and the oracle read it too.
BACKENDS: dict[str, type[SigningBackend]] = {
    "scalar": ScalarBackend,
    "vectorized": VectorizedBackend,
}


def get_backend(name: str, params: SphincsParams | str = "128f",
                deterministic: bool = False, **kwargs) -> SigningBackend:
    """Construct the backend named *name*; an unknown name is a
    :class:`BackendError` listing the known ones."""
    try:
        backend = BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; known: {', '.join(BACKENDS)}"
        ) from None
    return backend(params, deterministic=deterministic, **kwargs)
