"""Introspect the public surface of ``repro.api`` for the snapshot gate.

:func:`api_surface` renders every name in ``repro.api.__all__`` into a
plain, deterministic, JSON-serializable description — dataclass fields
with their annotations, class method signatures, exception bases,
function signatures.  The test suite pins the output in
``tests/api_surface.json``: any drift (a renamed field, a changed
default, a dropped method) fails CI until the snapshot is regenerated
*deliberately* with ``pytest --regen-api-surface`` — the same
regenerate-on-purpose workflow the KAT vectors use.
"""

from __future__ import annotations

import dataclasses
import inspect

__all__ = ["api_surface"]

#: Snapshot format version; bump when the *shape* of the snapshot
#: changes (not when the API changes — that is the point of the gate).
SURFACE_FORMAT = 1


def _describe_dataclass(symbol: type) -> dict:
    return {
        "kind": "dataclass",
        "fields": {
            spec.name: {
                "type": (spec.type if isinstance(spec.type, str)
                         else getattr(spec.type, "__name__",
                                      repr(spec.type))),
                "has_default": (spec.default
                                is not dataclasses.MISSING
                                or spec.default_factory
                                is not dataclasses.MISSING),
            }
            for spec in dataclasses.fields(symbol)
        },
        "methods": _public_methods(symbol, skip_dataclass_protocol=True),
    }


def _public_methods(symbol: type,
                    skip_dataclass_protocol: bool = False) -> dict:
    methods = {}
    for name, member in sorted(vars(symbol).items()):
        if name.startswith("_") and name not in ("__init__",):
            continue
        if skip_dataclass_protocol and name == "__init__":
            continue  # derived from the fields, already captured
        if isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        if callable(member):
            try:
                methods[name] = str(inspect.signature(member))
            except (TypeError, ValueError):
                methods[name] = "(...)"
    return methods


def _describe(symbol: object) -> dict:
    if dataclasses.is_dataclass(symbol) and isinstance(symbol, type):
        return _describe_dataclass(symbol)
    if isinstance(symbol, type) and issubclass(symbol, BaseException):
        return {
            "kind": "exception",
            "bases": [base.__name__ for base in symbol.__mro__[1:]
                      if base not in (object, BaseException, Exception)],
        }
    if isinstance(symbol, type):
        return {"kind": "class", "methods": _public_methods(symbol)}
    if callable(symbol):
        return {"kind": "function",
                "signature": str(inspect.signature(symbol))}
    return {"kind": "constant", "value": repr(symbol)}


def api_surface() -> dict:
    """The pinned-snapshot description of ``repro.api``'s public names."""
    from . import __all__ as public_names
    import repro.api as api_module

    return {
        "format": SURFACE_FORMAT,
        "symbols": {name: _describe(getattr(api_module, name))
                    for name in sorted(public_names)},
    }
