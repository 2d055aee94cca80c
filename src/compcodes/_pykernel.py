"""Pure-Python kernel: canonical readout signatures.

The signature of a string packs, for every substring length k, the counts
of length-k windows per Hamming weight w.  Since a composition of a fixed
length is determined by its weight, this byte string is a canonical,
hashable encoding of the full composition multiset.  Layout: classes in
ascending k, each contributing k+1 count bytes (w = 0..k); class k starts
at offset (k-1)(k+2)/2.

This module is the reference for the compiled kernel in ``_ckernel.c``,
which must return the same bytes and raise ValueError on the same inputs,
and the fallback when that extension was not built.
"""

BACKEND = "pure"

MAX_N = 255  # window counts are stored in single bytes

# rows signed together by one bit-sliced pass, so memory does not grow
# with the batch
_CHUNK_ROWS = 1024

# _EQ[w] translates byte w to 1 and every other byte to 0
_EQ = [bytes(w) + b"\1" + bytes(255 - w) for w in range(256)]


def full_signature(bits: bytes) -> bytes:
    """Signature of a 0/1 byte string; counts of window weights per length."""
    n = len(bits)
    if not 1 <= n <= MAX_N:
        raise ValueError(f"length must be in [1, {MAX_N}], got {n}")
    pref = [0] * (n + 1)
    acc = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("bits must contain only 0 and 1 byte values")
        acc += b
        pref[i + 1] = acc
    out = bytearray(n * (n + 3) // 2)
    base = 0
    for k in range(1, n + 1):
        for j in range(n - k + 1):
            out[base + pref[j + k] - pref[j]] += 1
        base += k + 1
    return bytes(out)


def signatures(rows: bytes, n: int) -> list[bytes]:
    """``full_signature`` of each length-n row of one concatenated 0/1
    buffer, in order."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"length must be in [1, {MAX_N}], got {n}")
    if len(rows) % n:
        raise ValueError(f"buffer of {len(rows)} bytes is not a whole "
                         f"number of rows of length {n}")
    if rows.translate(None, b"\0\1"):
        raise ValueError("bits must contain only 0 and 1 byte values")
    out: list[bytes] = []
    step = _CHUNK_ROWS * n
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step]
        # a bit-sliced pass costs about n^3/6 lane operations per chunk
        # however few its rows; it beats signing row by row (n^2/2 steps
        # per row) once a chunk holds about n^2/8 rows
        if 8 * (len(chunk) // n) < n * n:
            out += [full_signature(chunk[i:i + n])
                    for i in range(0, len(chunk), n)]
        else:
            out += _bit_sliced(chunk, n)
    return out


def _bit_sliced(chunk: bytes, n: int) -> list[bytes]:
    """Signatures of the rows of ``chunk``, all rows at once.

    Byte s of every big-endian integer below is a lane holding row s: bit
    plane i is ``chunk[i::n]``, prefix sums add planes, and a window's
    weights are a difference of two prefix sums.  No lane borrows (prefix
    sums never decrease) and none carries (a count is at most n - k + 1).
    """
    rows = len(chunk) // n
    from_bytes = int.from_bytes
    pref = [0]
    for i in range(n):
        pref.append(pref[-1] + from_bytes(chunk[i::n], "big"))
    planes = []
    for k in range(1, n + 1):
        counts = [0] * (k + 1)
        for j in range(n - k + 1):
            window = (pref[j + k] - pref[j]).to_bytes(rows, "big")
            for w in range(k + 1):
                counts[w] += from_bytes(window.translate(_EQ[w]), "big")
        planes += [c.to_bytes(rows, "big") for c in counts]
    # plane by plane, in signature order: row s's signature is every
    # rows-th byte from s
    joined = b"".join(planes)
    return [joined[s::rows] for s in range(rows)]
