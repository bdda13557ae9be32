"""Reporting helpers and the paper's reference numbers."""

from .reference_data import PAPER
from .reporting import format_table, shape_check

__all__ = ["PAPER", "format_table", "shape_check"]
