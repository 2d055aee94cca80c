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
