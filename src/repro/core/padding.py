"""The generalized bank-padding rule — paper Equations 2 and 3.

Equation 2 covers per-thread access widths that divide a 128-byte
transaction (16 B and 32 B):

    128 = B_n * 4 * T_h

where ``B_n`` is the number of banks one thread touches and ``T_h`` the
thread interval after which one 4-byte padding bank is inserted.

Equation 3 extends it to 24-byte accesses, whose stride does not divide
128, by spanning ``R`` contiguous 128-byte rows:

    128 * R = B_n * 4 * T_h

The resulting layout inserts one padding bank after every ``128 * R`` data
bytes — which :class:`repro.gpusim.memory.Layout` consumes as its
``pad_period``.  Tests replay the Merkle reduction of paper Figure 7
through the bank model and confirm zero conflicts for all three widths
(paper Table VI).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SharedMemoryError

__all__ = ["PaddingRule", "padding_rule"]

_TRANSACTION_BYTES = 128
_BANK_BYTES = 4
_MAX_ROWS = 8


@dataclass(frozen=True)
class PaddingRule:
    """A solved instance of Equation 2/3 for one access width."""

    access_bytes: int   # per-thread access width (n)
    banks_per_thread: int   # B_n
    thread_interval: int    # T_h
    rows: int               # R (1 for Eq. 2 widths)

    @property
    def pad_period(self) -> int:
        """Data bytes between inserted padding banks (= 128 * R)."""
        return _TRANSACTION_BYTES * self.rows

    def overhead_bytes(self, data_bytes: int) -> int:
        """Extra shared memory consumed by padding for *data_bytes* data."""
        return _BANK_BYTES * (data_bytes // self.pad_period)


def padding_rule(access_bytes: int) -> PaddingRule:
    """Solve Equation 2 (or 3) for an access width.

    >>> padding_rule(16).thread_interval, padding_rule(16).rows
    (8, 1)
    >>> padding_rule(24).thread_interval, padding_rule(24).rows
    (16, 3)
    >>> padding_rule(32).thread_interval, padding_rule(32).rows
    (4, 1)
    """
    if access_bytes % _BANK_BYTES or access_bytes <= 0:
        raise SharedMemoryError(
            f"access width {access_bytes} must be a positive multiple of 4"
        )
    banks_per_thread = access_bytes // _BANK_BYTES
    for rows in range(1, _MAX_ROWS + 1):
        total = _TRANSACTION_BYTES * rows
        if total % access_bytes == 0:
            return PaddingRule(
                access_bytes=access_bytes,
                banks_per_thread=banks_per_thread,
                thread_interval=total // access_bytes,
                rows=rows,
            )
    raise SharedMemoryError(
        f"no padding rule with R <= {_MAX_ROWS} for {access_bytes}-byte accesses"
    )
