"""Digest encodings: base-w representation and index extraction.

SPHINCS+ converts hash digests into small integer sequences twice:

* WOTS+ writes the message (and its checksum) in base ``w`` — each digit
  selects how far to walk one hash chain.
* The FORS layer and the hypertree path are selected by slicing the
  ``H_msg`` output into ``k`` indices of ``log_t`` bits, a tree index, and
  a leaf index — exactly the ``message_to_indices`` / ``leaf_idx``
  precomputation highlighted in the paper's Figure 2.
"""

from __future__ import annotations

from ..errors import ParameterError
from ..params import SphincsParams

__all__ = ["base_w", "checksum_digits", "message_to_indices", "split_digest"]


def base_w(data: bytes, w: int, out_len: int) -> list[int]:
    """Write *data* as ``out_len`` base-``w`` digits (MSB-first bit order).

    ``w`` must be a power of two (the standard allows 4, 16, 256).

    >>> base_w(b"\\x12\\x34", 16, 4)
    [1, 2, 3, 4]
    """
    if w & (w - 1) or w < 2:
        raise ParameterError(f"base_w requires a power-of-two w, got {w}")
    log_w = w.bit_length() - 1
    if out_len * log_w > 8 * len(data):
        raise ParameterError(
            f"cannot extract {out_len} base-{w} digits from {len(data)} bytes"
        )
    digits: list[int] = []
    bits = 0
    acc = 0
    pos = 0
    for _ in range(out_len):
        while bits < log_w:
            acc = (acc << 8) | data[pos]
            pos += 1
            bits += 8
        bits -= log_w
        digits.append((acc >> bits) & (w - 1))
        acc &= (1 << bits) - 1
    return digits


def checksum_digits(msg_digits: list[int], params: SphincsParams) -> list[int]:
    """WOTS+ checksum digits for the message digits.

    The checksum ``sum(w - 1 - d)`` guarantees that increasing any message
    digit decreases a checksum digit, defeating chain-extension forgeries.
    """
    w = params.w
    csum = sum(w - 1 - d for d in msg_digits)
    # Left-align as per spec: shift so the checksum fills len2 digits.
    csum <<= (8 - (params.wots_len2 * params.log_w) % 8) % 8
    csum_bytes_len = (params.wots_len2 * params.log_w + 7) // 8
    csum_bytes = csum.to_bytes(csum_bytes_len, "big")
    return base_w(csum_bytes, w, params.wots_len2)


def _bits_to_int(data: bytes, n_bits: int) -> int:
    """The integer formed by the first ``n_bits`` of *data* (MSB first)."""
    needed = (n_bits + 7) // 8
    value = int.from_bytes(data[:needed], "big")
    return value >> (8 * needed - n_bits)


def split_digest(digest: bytes, params: SphincsParams) -> tuple[bytes, int, int]:
    """Split an ``H_msg`` digest into (fors_msg_bytes, idx_tree, idx_leaf).

    Mirrors the reference code's ``hash_message``: the first chunk feeds
    FORS index extraction, the next selects the hypertree (``tree``), the
    last the bottom-layer leaf (``leaf_idx``).
    """
    a, b = params.fors_msg_bytes, params.tree_msg_bytes
    fors_part = digest[:a]
    idx_tree = _bits_to_int(digest[a:a + b], params.h - params.tree_height)
    idx_leaf = _bits_to_int(digest[a + b:a + b + params.leaf_msg_bytes],
                            params.tree_height)
    return fors_part, idx_tree, idx_leaf


def message_to_indices(fors_msg: bytes, params: SphincsParams) -> list[int]:
    """Extract the ``k`` FORS leaf indices (``log_t`` bits each).

    This is the ``message_to_indices`` of the paper's Figure 2: index ``i``
    selects which leaf of FORS tree ``i`` is revealed.  The first
    ``k * log_t`` bits are read as one integer and cut ``log_t`` bits at a
    time, MSB first.
    """
    k, log_t = params.k, params.log_t
    bits = _bits_to_int(fors_msg, k * log_t)
    return [(bits >> (log_t * (k - 1 - i))) & (params.t - 1) for i in range(k)]
