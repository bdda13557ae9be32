"""Seeded, stdlib-only case generation for the conformance subsystem.

Four generators live here:

* :func:`message_corpus` — the adversarial message set the differential
  oracle feeds every signing path: the empty message, single bytes, long
  runs, repeated blocks, a bit-flipped twin of a random message (byte
  streams that differ in exactly one bit must produce unrelated
  signatures), and — outside smoke mode — a 1 MiB payload plus extra
  random lengths.
* :func:`malformed_frames` — hostile wire lines for the service protocol:
  invalid JSON, wrong top-level types, missing/ill-typed fields, invalid
  base64, absurd deadlines.  Every one must come back as a structured
  ``ok: false`` response, never as a dropped connection or a traceback.
* :func:`signature_mutations` — corruptions of one valid signature (a
  single-bit flip in each region :func:`signature_regions` names, and
  resized blobs) that every verifier must reject, and on which the fast
  verifier must agree with the reference.
* :func:`corrupt_keystore_payloads` — tenant-file corruptions (truncated
  JSON, wrong types, bad hex, short key material, name mismatches) that
  the keystore must quarantine with a typed error.

Everything is driven by ``random.Random(seed)`` — no global RNG, no
wall-clock — so a failing case reproduces from its seed alone.
"""

from __future__ import annotations

import json
import random

from ..params import SphincsParams

__all__ = [
    "message_corpus",
    "malformed_frames",
    "corrupt_keystore_payloads",
    "signature_regions",
    "signature_mutations",
]

#: Size of the large-payload case in the full (non-smoke) corpus.
LARGE_MESSAGE_BYTES = 1 << 20


def message_corpus(seed: int = 0,
                   smoke: bool = False) -> list[tuple[str, bytes]]:
    """Named ``(case, message)`` pairs for the differential oracle."""
    rng = random.Random(seed)
    base = rng.randbytes(256)
    twin = bytearray(base)
    twin[rng.randrange(len(twin))] ^= 1 << rng.randrange(8)
    cases = [
        ("empty", b""),
        ("one-zero-byte", b"\x00"),
        ("one-ff-byte", b"\xff"),
        ("ascii", b"conformance corpus v1"),
        ("repeated-block", bytes(range(32)) * 8),
        ("random-256", base),
        ("bitflip-twin-256", bytes(twin)),
    ]
    if not smoke:
        cases += [
            ("all-ff-4096", b"\xff" * 4096),
            ("random-4096", rng.randbytes(4096)),
            ("large-1MiB", rng.randbytes(LARGE_MESSAGE_BYTES)),
        ]
        for i in range(3):
            length = rng.randrange(1, 2048)
            cases.append((f"random-len-{length}-{i}", rng.randbytes(length)))
    return cases


def signature_regions(params: SphincsParams) -> dict[str, tuple[int, int]]:
    """Named ``(start, length)`` byte ranges of a signature blob.

    The randomizer, the first FORS tree's revealed secret and auth path,
    and — at the bottom, a middle and the top hypertree layer — the WOTS
    chain values and the XMSS auth path.
    """
    n, wots_bytes = params.n, params.wots_sig_bytes
    regions = {
        "randomizer": (0, n),
        "fors-secret": (n, n),
        "fors-auth": (2 * n, params.log_t * n),
    }
    top = params.d - 1
    for layer in sorted({0, top // 2, top}):
        wots = n + params.fors_sig_bytes + layer * params.xmss_sig_bytes
        regions[f"wots-chain-L{layer}"] = (wots, wots_bytes)
        regions[f"xmss-auth-L{layer}"] = (wots + wots_bytes,
                                          params.tree_height * n)
    return regions


def signature_mutations(params: SphincsParams,
                        signature: bytes) -> list[tuple[str, bytes]]:
    """Named corruptions of a valid *signature*; none may verify."""
    cases = []
    for name, (start, length) in signature_regions(params).items():
        blob = bytearray(signature)
        blob[start + length // 2] ^= 0x10
        cases.append((f"bitflip-{name}", bytes(blob)))
    return cases + [
        ("truncated", signature[:-1]),
        ("extended", signature + b"\x00"),
        ("empty", b""),
    ]


def _strip_newlines(blob: bytes) -> bytes:
    """Keep a random blob to a single wire frame."""
    return blob.replace(b"\n", b"?").replace(b"\r", b"?")


def malformed_frames(seed: int = 0) -> list[tuple[str, bytes]]:
    """Named hostile protocol lines (each already ``\\n``-terminated),
    eight of them random bytes."""
    rng = random.Random(seed)
    frames: list[tuple[str, bytes]] = [
        ("not-json", b"this is not json\n"),
        ("bare-string", b'"sign"\n'),
        ("bare-number", b"42\n"),
        ("json-array", b'[{"op": "ping"}]\n'),
        ("null", b"null\n"),
        ("truncated-object", b'{"op": "sign", "tenant": "acm\n'),
        ("unknown-op", b'{"op": "destroy-all-keys", "id": 1}\n'),
        ("numeric-op", b'{"op": 7, "id": 2}\n'),
        ("sign-missing-tenant", b'{"op": "sign", "message": "aGk="}\n'),
        ("sign-numeric-tenant",
         b'{"op": "sign", "tenant": 9, "message": "aGk="}\n'),
        ("sign-message-not-base64",
         b'{"op": "sign", "tenant": "demo", "message": "!!%%"}\n'),
        ("sign-message-not-string",
         b'{"op": "sign", "tenant": "demo", "message": [1, 2]}\n'),
        ("sign-negative-deadline",
         b'{"op": "sign", "tenant": "demo", "message": "aGk=", '
         b'"deadline_ms": -5}\n'),
        ("sign-string-deadline",
         b'{"op": "sign", "tenant": "demo", "message": "aGk=", '
         b'"deadline_ms": "soon"}\n'),
        ("invalid-utf8", b'{"op": "ping"\xff\xfe}\n'),
    ]
    for i in range(8):
        blob = _strip_newlines(rng.randbytes(rng.randrange(1, 200)))
        frames.append((f"random-bytes-{i}", blob + b"\n"))
    return frames


def corrupt_keystore_payloads(seed: int = 0) -> list[tuple[str, str]]:
    """Named corrupt tenant-file bodies; file name should be ``acme.json``."""
    rng = random.Random(seed)
    n = 16  # 128f component size; wrong sizes below are relative to it
    good_key = {f: "00" * n for f in
                ("sk_seed", "sk_prf", "pk_seed", "pk_root")}

    def payload(**overrides) -> str:
        body = {"tenant": "acme", "params": "SPHINCS+-128f",
                "keys": {"default": dict(good_key)}}
        body.update(overrides)
        return json.dumps(body)

    truncated = payload()[: rng.randrange(1, 40)]
    return [
        ("empty-file", ""),
        ("truncated-json", truncated),
        ("not-json", "## not a tenant file ##"),
        ("json-array", "[1, 2, 3]"),
        ("missing-params", json.dumps({"tenant": "acme", "keys": {}})),
        ("missing-keys", json.dumps(
            {"tenant": "acme", "params": "SPHINCS+-128f"})),
        ("unknown-params", payload(params="SPHINCS+-4096q")),
        ("tenant-name-mismatch", payload(tenant="evil")),
        ("tenant-name-traversal", payload(tenant="../escape")),
        ("keys-not-object", payload(keys=["default"])),
        ("key-fields-missing", payload(keys={"default": {"sk_seed": "00" * n}})),
        ("key-not-hex", payload(keys={"default": {
            **good_key, "sk_seed": "zz" * n}})),
        ("key-wrong-length", payload(keys={"default": {
            **good_key, "pk_root": "00" * (n - 2)}})),
    ]
