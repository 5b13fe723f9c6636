"""Fixed glibc ``malloc`` thresholds, set once when ``repro`` is imported.

glibc serves a block of at least ``M_MMAP_THRESHOLD`` bytes (128 KiB at
start) with its own ``mmap`` and hands the heap's free top back to the
kernel once it exceeds ``M_TRIM_THRESHOLD``. Both adapt at run time:
freeing an mmap'd block raises the mmap threshold to that block's size
(at most 32 MiB on 64-bit) and the trim threshold to twice it. So
whether a steady stream of forwards reuses its memory, or maps, faults
in and unmaps it again on every call, depends on the largest block the
process happened to free before. A forward whose largest buffer is a few
MiB leaves the thresholds low and pays hundreds of minor page faults per
call.

:func:`tune_malloc` sets both thresholds where glibc's own rule tops out
— 32 MiB and 64 MiB — which also stops the adaptation. Other C libraries
are left alone.
"""

from __future__ import annotations

import ctypes
import os

#: ``mallopt`` parameters, from glibc's ``<malloc.h>``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: The ceiling of glibc's dynamic mmap threshold on 64-bit hosts
#: (``DEFAULT_MMAP_THRESHOLD_MAX``); the trim threshold it sets is twice it.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def is_glibc() -> bool:
    """True when this process runs on GNU libc."""
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


def tune_malloc() -> bool:
    """Fix glibc's mmap and trim thresholds; False (and no change) on any
    other C library or when ``mallopt`` refuses."""
    if not is_glibc():
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
