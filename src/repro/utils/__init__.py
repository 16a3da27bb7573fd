"""Small shared utilities: bit manipulation, formatting, code versions,
and the on-disk result store (:mod:`repro.utils.store`)."""

from .bitops import (
    align_down,
    align_up,
    bytes_to_u64,
    is_aligned,
    is_power_of_two,
    log2_int,
    u64_to_bytes,
)
from .tables import format_table
from .versioning import code_version

__all__ = [
    "align_down",
    "align_up",
    "bytes_to_u64",
    "is_aligned",
    "is_power_of_two",
    "log2_int",
    "u64_to_bytes",
    "format_table",
    "code_version",
]
