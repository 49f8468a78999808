"""Process-wide settings of the native libraries occq runs on.

``keep_temporaries_on_heap`` raises glibc's malloc thresholds.  By default
glibc maps every allocation above 128 KiB afresh and trims the heap top
after a step frees its arrays, so each training step pays a few hundred
minor page faults for the same temporaries (a 320 x 80 logit matrix, the
hidden activations, a 1280 x 512 random-feature projection).  With the
thresholds raised those arrays are served from, and returned to, a heap
that stays mapped.  Allocation sizes and values are unchanged, so no byte
of training output moves.

glibc cannot report the previous values, so the setting stays for the rest
of the process.  It is left alone off glibc and when the user has set
glibc's own ``MALLOC_*_`` variables or ``GLIBC_TUNABLES``.
"""

from __future__ import annotations

import ctypes
import functools
import os

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# The largest M_MMAP_THRESHOLD glibc accepts on 64-bit hosts.  It must stay
# above the biggest step temporary (5.2 MB on the mountain-car policy phase):
# at 4 MiB those arrays still got fresh mappings and mc-rff faulted more.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name off glibc
        return False


def _mallopt(param: int, value: int) -> bool:
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(param, value) == 1


@functools.cache
def keep_temporaries_on_heap() -> bool:
    """Set glibc's mmap and trim thresholds once per process; True when
    glibc accepted both.  Later calls return the first call's answer."""
    if not _glibc() or any(k == "GLIBC_TUNABLES" or (k.startswith("MALLOC_") and k.endswith("_")) for k in os.environ):
        return False
    accepted = [_mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD), _mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)]
    return all(accepted)
