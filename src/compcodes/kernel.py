"""Kernel backend selection.

Imports the compiled signature kernel, which setup.py builds from
``_ckernel.c`` when a C compiler is available, otherwise the pure-Python
twin.  Set COMPCODES_PURE=1 to force the fallback (used by the
benchmark's gated runs and by CI's pure-kernel legs).

``full_signature(bits)`` signs one string.  ``full_signature(bits, top)``
signs only classes 1..top, for top in [0, n]: the first top(top+3)/2
bytes of the whole signature, computed at the cost of those classes
alone (the decoder's finish filter reads only the lower classes).  A
bound outside [0, n] raises ValueError.  ``signatures(rows, n)`` signs a
batch of strings of one length, passed as one concatenated buffer; the
oracle's sweeps sign whole codebooks that way.
``signatures(rows, n, top, bottom)`` signs only classes bottom..top, by
default 1..n: the bytes [(bottom-1)(bottom+2)/2, top(top+3)/2) of each
whole signature, empty for bottom = top + 1, and ValueError for a bottom
outside [1, top + 1].  The oracle signs the lower classes of a codebook
first and the upper ones only of the members that may still collide.
The pure kernel bit-slices a chunk of a batch across rows when it holds
at least 120n/(140 - n) rows (16, 25 and 48 rows at n = 16, 24 and 40;
never from n = 126), else signs row by row.  Bit-slicing was measured,
on whole signatures, to overtake at about 16, 23 and 42 rows at those n
(2-vCPU Intel Xeon, Python 3.11); a range's pass costs less, and the
switch was not measured again for it.
"""

import os

from compcodes._pykernel import MAX_N

if os.environ.get("COMPCODES_PURE"):
    from compcodes._pykernel import BACKEND, full_signature, signatures
else:
    try:
        # an extension built before a name, the class bound or the class
        # range was added lacks it, and then the whole pure kernel is used
        from compcodes._ckernel import (  # type: ignore[no-redef]
            BACKEND, full_signature, signatures)
        full_signature(b"\0", 0)
        signatures(b"\0", 1, 1, 2)
    except (ImportError, TypeError):
        from compcodes._pykernel import BACKEND, full_signature, signatures


def class_slice_bounds(n: int, k: int) -> tuple[int, int]:
    """Byte range of class k inside a length-n signature."""
    start = (k - 1) * (k + 2) // 2
    return start, start + k + 1


def kept_ranges(n: int, drop) -> list[tuple[int, int]]:
    """Signature byte ranges of the classes outside ``drop``, merged."""
    cuts = [b for k in sorted(drop) for b in class_slice_bounds(n, k)]
    bounds = [0, *cuts, class_slice_bounds(n, n)[1]]
    return [(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2]) if lo < hi]


def kept_mask(n: int, drop) -> int:
    """Integer with 0xFF over every byte of ``kept_ranges(n, drop)``.

    ANDed with ``int.from_bytes(signature, "big")`` it zeroes the dropped
    classes' counts, so two masked signatures are equal iff their kept
    classes are: every count fits in its byte.
    """
    mask = bytearray(class_slice_bounds(n, n)[1])
    for lo, hi in kept_ranges(n, drop):
        mask[lo:hi] = b"\xff" * (hi - lo)
    return int.from_bytes(mask, "big")


def class_counts(sig: bytes, n: int, k: int) -> tuple[int, ...]:
    """Window-weight counts (w = 0..k) of class k, as a tuple."""
    lo, hi = class_slice_bounds(n, k)
    return tuple(sig[lo:hi])

