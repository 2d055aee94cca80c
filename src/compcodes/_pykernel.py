"""Pure-Python kernel: canonical readout signatures.

The signature of a string packs, for every substring length k, the counts
of length-k windows per Hamming weight w.  Since a composition of a fixed
length is determined by its weight, this byte string is a canonical,
hashable encoding of the full composition multiset.  Layout: classes in
ascending k, each contributing k+1 count bytes (w = 0..k); class k starts
at offset (k-1)(k+2)/2.

``full_signature`` signs one string in prefix-sum lanes.  Byte i of one
big-endian integer holds pref[i], the ones among the first i bits, so
``lanes - (lanes >> 8*k)`` holds in bytes k..n every window weight
pref[j + k] - pref[j] of class k: no lane borrows (prefix sums never
decrease) and none overflows (n <= 255).  A window of class k is one of
class k - 1 plus a bit, so each end of the range of weights that occur
moves by at most one from class to class.  While that range is narrow
against a class's n - k + 1 windows, each weight in it is counted by one
``bytes.count``; from the first class where it is not, the remaining
classes are counted by a loop over their window bytes.  With a class
bound top, both stop after class top.  ``signatures`` signs a batch
bit-sliced across rows (see ``_bit_sliced``), over a class range
bottom..top: the bytes [(bottom-1)(bottom+2)/2, top(top+3)/2) of each
whole signature.

This module is the fallback when the compiled kernel in ``_ckernel.c``
was not built.  The two must accept the same buffers, return the same
bytes and raise ValueError on the same inputs.
"""

from math import isqrt
from operator import index

BACKEND = "pure"

MAX_N = 255  # window counts are stored in single bytes

# rows signed together by one bit-sliced pass, so memory does not grow
# with the batch
_CHUNK_ROWS = 1024

# full_signature counts a class weight by weight while it has at least
# this many windows per weight it may take (each bytes.count scans them
# all); measured times barely move between 4 and 8, at n = 11 to 40 and
# at n = 255
_WINDOWS_PER_COUNT = 7

# full_signature's loop counts whole classes into one list of at most
# this many counts at a time, so the list stays small (8 bytes a count);
# the largest class has 256
_BLOCK = 2048

# _PAIR[p] translates byte 2p to 1, byte 2p + 1 to 16 and every other
# byte to 0: one translate counts two weights, in a lane's two nibbles
_PAIR = [bytes(2 * p) + b"\1\x10" + bytes(254 - 2 * p) for p in range(128)]

# _bit_sliced adds at most this many windows into a nibble, the most a
# nibble holds, before it splits the two counts into byte lanes
_RUN = 15


def _as_bytes(buffer) -> bytes:
    """The bytes of a buffer, refused as the compiled kernel refuses it:
    TypeError for a non-buffer, BufferError for a non-contiguous one."""
    if type(buffer) is bytes:  # the common case, at no cost
        return buffer
    view = memoryview(buffer)
    if not view.c_contiguous:
        raise BufferError("memoryview: underlying buffer is not C-contiguous")
    return view.tobytes()


def _check_length(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"length must be in [1, {MAX_N}], got {n}")


def _check_bits(bits: bytes) -> None:
    if bits.translate(None, b"\0\1"):
        raise ValueError("bits must contain only 0 and 1 byte values")


def _check_top(bound, n: int) -> int:
    """The class bound as an index, refused outside [0, n]."""
    top = index(bound)
    if not 0 <= top <= n:
        raise ValueError(f"class bound must be in [0, {n}], got {bound!r}")
    return top


def _check_bottom(bound, top: int) -> int:
    """The lower class bound as an index, refused outside [1, top + 1]
    (top + 1 is the empty range)."""
    bottom = index(bound)
    if not 1 <= bottom <= top + 1:
        raise ValueError(f"lower class bound must be in [1, {top + 1}], "
                         f"got {bound!r}")
    return bottom


def full_signature(bits, top=None, /) -> bytes:
    """Signature of a 0/1 byte string; counts of window weights per length.

    With ``top``, only classes 1..top: the first top(top+3)/2 bytes.
    """
    bits = _as_bytes(bits)
    n = len(bits)
    _check_length(n)
    top = n if top is None else _check_top(top, n)
    _check_bits(bits)
    size = n + 1
    # the bits times 0x0101...01 (n ones), shifted down n - 1 bytes, hold
    # pref[i] in byte i of n + 1 big-endian bytes; no lane carries, since
    # none exceeds n
    lanes = (int.from_bytes(bits, "big")
             * int.from_bytes(b"\1" * n, "big")) >> 8 * (n - 1)
    out = bytearray(top * (top + 3) // 2)
    base = 0  # offset of class k
    # [lo, hi]: the weights that occur in class k - 1, starting from the
    # one empty window of class 0; class k's lie in [lo, hi + 1]
    lo = hi = 0
    k = 1
    while k <= top and _WINDOWS_PER_COUNT * (hi - lo + 2) <= size - k:
        windows = (lanes - (lanes >> 8 * k)).to_bytes(size, "big")[k:]
        out[base + lo:base + hi + 2] = map(windows.count, range(lo, hi + 2))
        if not out[base + lo]:
            lo += 1
        if out[base + hi + 1]:
            hi += 1
        base += k + 1
        k += 1
    while k <= top:
        # classes k..stop - 1, the most whole classes within _BLOCK counts:
        # their offsets (s - 1)(s + 2)/2 <= base + _BLOCK.  A list takes an
        # increment faster than a bytearray; one list per class would cost
        # a quarter more time at n <= 20
        stop = min(top + 1, (isqrt(9 + 8 * (base + _BLOCK)) - 1) // 2)
        end = (stop - 1) * (stop + 2) // 2
        block = [0] * (end - base)
        at = 0
        for k in range(k, stop):
            for w in (lanes - (lanes >> 8 * k)).to_bytes(size, "big")[k:]:
                block[at + w] += 1
            at += k + 1
        out[base:end] = block
        base, k = end, stop
    return bytes(out)


def signatures(rows, n: int, top=None, bottom=None, /) -> list[bytes]:
    """``full_signature`` of each length-n row of one concatenated 0/1
    buffer, in order.

    With ``top`` and ``bottom``, only classes bottom..top (by default
    1..n): the bytes [(bottom-1)(bottom+2)/2, top(top+3)/2) of each whole
    signature, empty when bottom = top + 1.
    """
    rows = _as_bytes(rows)
    _check_length(n)
    if len(rows) % n:
        raise ValueError(f"buffer of {len(rows)} bytes is not a whole "
                         f"number of rows of length {n}")
    top = n if top is None else _check_top(top, n)
    bottom = 1 if bottom is None else _check_bottom(bottom, top)
    _check_bits(rows)
    start = (bottom - 1) * (bottom + 2) // 2
    out: list[bytes] = []
    step = _CHUNK_ROWS * n
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step]
        # a bit-sliced pass costs about n^3/12 lane operations per chunk
        # however few its rows, so a small chunk is signed row by row.
        # Measured, bit-slicing overtakes at about 12, 16, 23, 42, 88 and
        # 230 rows at n = 11, 16, 24, 40, 64 and 100; at n = 128 a whole
        # chunk gains 6%, and from n = 160 none gains.  It switches at
        # 120n/(140 - n) rows: 11, 16, 25, 48, 102 and 300 at those n, and
        # never within a chunk from n = 126.  All of this was measured
        # on whole signatures
        if len(chunk) // n * (140 - n) < 120 * n:
            out += [full_signature(chunk[i:i + n], top)[start:]
                    for i in range(0, len(chunk), n)]
        else:
            out += _bit_sliced(chunk, n, bottom, top)
    return out


def _bit_sliced(chunk: bytes, n: int, bottom: int = 1,
                top: int | None = None) -> list[bytes]:
    """Classes bottom..top (by default 1..n) of the signatures of the rows
    of ``chunk``, all rows at once.

    Byte s of every big-endian integer below is a lane holding row s: bit
    plane i is ``chunk[i::n]``, prefix sums add planes, and a window's
    weights are a difference of two prefix sums.  No lane borrows (prefix
    sums never decrease) and none carries (a count is at most n - k + 1).
    Weights 2p and 2p + 1 are counted together, in the low and high
    nibble of each lane, over runs of at most ``_RUN`` windows; after each
    run the nibbles are split into the two weights' byte lanes.
    """
    rows = len(chunk) // n
    from_bytes = int.from_bytes
    low = from_bytes(b"\x0f" * rows, "big")
    pref = [0]
    for i in range(n):
        pref.append(pref[-1] + from_bytes(chunk[i::n], "big"))
    planes = []
    for k in range(bottom, (n if top is None else top) + 1):
        tables = _PAIR[:k // 2 + 1]
        counts = [0] * (2 * len(tables))
        for start in range(0, n - k + 1, _RUN):
            packed = [0] * len(tables)
            for j in range(start, min(start + _RUN, n - k + 1)):
                window = (pref[j + k] - pref[j]).to_bytes(rows, "big")
                for p, table in enumerate(tables):
                    packed[p] += from_bytes(window.translate(table), "big")
            for p, both in enumerate(packed):
                counts[2 * p] += both & low
                counts[2 * p + 1] += both >> 4 & low
        # an even k has no weight k + 1: its count is always 0
        planes += [c.to_bytes(rows, "big") for c in counts[:k + 1]]
    # plane by plane, in signature order: row s's signature is every
    # rows-th byte from s
    joined = b"".join(planes)
    return [joined[s::rows] for s in range(rows)]
