"""Kernel backends must agree byte for byte."""

import importlib.machinery
import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from array import array
from pathlib import Path

import pytest

from compcodes import _pykernel, kernel

try:
    from compcodes import _ckernel
except ImportError:
    _ckernel = None

CKERNEL_SOURCE = Path(_pykernel.__file__).with_name("_ckernel.c")


@pytest.fixture(scope="module")
def ckernel(tmp_path_factory):
    """The built compiled kernel, else one compiled here from _ckernel.c.

    The module compiled here is loaded without entering sys.modules, so the
    rest of the suite keeps the backend it imported.
    """
    if _ckernel is not None:
        return _ckernel
    cc = sysconfig.get_config_var("CC") or ""
    argv = shlex.split(cc)
    if not argv or shutil.which(argv[0]) is None:
        pytest.skip(f"no C compiler found (sysconfig CC={cc!r})")
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip(f"no Python headers found (no Python.h in {include})")
    out = tmp_path_factory.mktemp("ckernel") / (
        "_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [*argv, "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror",
         f"-I{include}", str(CKERNEL_SOURCE), "-o", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loader = importlib.machinery.ExtensionFileLoader("compcodes._ckernel", str(out))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


def test_backend_reports_itself():
    assert kernel.BACKEND in ("compiled", "pure")


def test_signature_layout():
    sig = _pykernel.full_signature(bytes([0, 1]))
    # class 1: one '0' window, one '1' window; class 2: one weight-1 window
    assert sig == bytes([1, 1, 0, 1, 0])
    assert kernel.class_slice_bounds(2, 1) == (0, 2)
    assert kernel.class_slice_bounds(2, 2) == (2, 5)


def test_kept_mask_matches_joined_kept_ranges():
    # a masked signature must equal another exactly when the joined bytes
    # of their kept classes do; random bytes cover every count value
    rng = random.Random(13)
    for n in [*range(1, 21), 255]:
        size = kernel.class_slice_bounds(n, n)[1]
        for _ in range(6):
            drop = set(rng.sample(range(1, n + 1), rng.randint(0, min(n, 4))))
            ranges = kernel.kept_ranges(n, drop)
            kept = bytearray(size)
            for lo, hi in ranges:
                kept[lo:hi] = b"\x01" * (hi - lo)
            mask = kernel.kept_mask(n, drop)
            sig = rng.randbytes(size)
            # agrees with sig on every kept byte: the pair is a witness
            twin = bytes(b if keep else rng.randrange(256)
                         for b, keep in zip(sig, kept))
            # differs from sig in one kept byte: no collision
            other = bytearray(sig)
            if ranges:
                i = rng.randrange(*rng.choice(ranges))
                other[i] = (other[i] + rng.randrange(1, 256)) % 256
            for a, b in ((sig, twin), (sig, bytes(other)), (twin, bytes(other))):
                joined = [b"".join(x[lo:hi] for lo, hi in ranges) for x in (a, b)]
                masked = [mask & int.from_bytes(x, "big") for x in (a, b)]
                assert (masked[0] == masked[1]) == (joined[0] == joined[1]), (n, drop)
            assert (mask & int.from_bytes(sig, "big")).to_bytes(size, "big") == \
                bytes(b if keep else 0 for b, keep in zip(sig, kept))


def _reference_full_signature(bits: bytes) -> bytes:
    """The signature by its definition: one step per window."""
    n = len(bits)
    pref = [0]
    for b in bits:
        pref.append(pref[-1] + b)
    out = bytearray(n * (n + 3) // 2)
    base = 0
    for k in range(1, n + 1):
        for j in range(n - k + 1):
            out[base + pref[j + k] - pref[j]] += 1
        base += k + 1
    return bytes(out)


def _run_strings(n: int):
    """0^a 1^b and 1^a 0^b at a spread of splits, and blocks (0^r 1^r)*."""
    for a in sorted({0, 1, n // 3, n // 2, (n + 1) // 2, n - 1, n}):
        yield bytes(a) + bytes([1]) * (n - a)
        yield bytes([1]) * a + bytes(n - a)
    for r in (1, 2, 3, 5, 8, 16, 32, 64, 127):
        yield ((bytes(r) + bytes([1]) * r) * n)[:n]


def test_pure_kernel_matches_reference():
    # needs no compiler; at n = 255 these inputs reach both the classes
    # counted weight by weight and the classes counted by a loop
    for n in range(1, 13):
        for x in range(2 ** n):
            bits = bytes(int(b) for b in format(x, f"0{n}b"))
            assert _pykernel.full_signature(bits) == _reference_full_signature(bits)
    rng = random.Random(23)
    for n in range(13, _pykernel.MAX_N + 1):
        for p in (0.5, 0.1, 0.9):
            bits = bytes(rng.random() < p for _ in range(n))
            assert _pykernel.full_signature(bits) == _reference_full_signature(bits), (n, p)
    for n in (13, 20, 64, 127, 128, 200, 254, 255):
        for bits in _run_strings(n):
            assert _pykernel.full_signature(bits) == _reference_full_signature(bits), bits
    for bits in (bytes(255), bytes([1]) * 255):  # fullest count bytes
        assert _pykernel.full_signature(bits) == _reference_full_signature(bits)


def test_backends_agree_exhaustively(ckernel):
    assert (ckernel.BACKEND, ckernel.MAX_N) == ("compiled", _pykernel.MAX_N)
    for n in range(1, 11):
        for x in range(2 ** n):
            bits = bytes(int(b) for b in format(x, f"0{n}b"))
            assert ckernel.full_signature(bits) == _pykernel.full_signature(bits)
    rng = random.Random(5)
    for n in range(11, _pykernel.MAX_N + 1):
        for bits in (bytes(rng.getrandbits(1) for _ in range(n)),
                     bytes(rng.choices((0, 1), weights=(1, 9), k=n))):
            assert ckernel.full_signature(bits) == _pykernel.full_signature(bits)
    for bits in (bytes(255), bytes([1]) * 255):  # fullest count bytes
        assert ckernel.full_signature(bits) == _pykernel.full_signature(bits)


def test_backends_reject_bad_input_alike(ckernel):
    for bad in (b"", bytes([2]), bytes(256), bytes(300), bytes([0, 1, 2])):
        with pytest.raises(ValueError) as pure:
            _pykernel.full_signature(bad)
        with pytest.raises(ValueError) as compiled:
            ckernel.full_signature(bad)
        assert str(compiled.value) == str(pure.value)


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    if request.param == "pure":
        return _pykernel
    return request.getfixturevalue("ckernel")


def test_class_bound_signs_the_signature_prefix(backend):
    # full_signature(bits, top) is the first top(top+3)/2 bytes of the
    # whole signature for every top in [0, n]; at n = 64 and 255 the pure
    # kernel stops in its weight-by-weight classes or in its loop
    rng = random.Random(29)
    for n in [*range(1, 41), 64, 255]:
        for bits in (bytes(rng.getrandbits(1) for _ in range(n)),
                     bytes(n // 3) + bytes([1]) * (n - n // 3)):
            whole = backend.full_signature(bits)
            assert whole == _reference_full_signature(bits)
            assert backend.full_signature(bits, None) == whole
            for top in range(n + 1):
                assert backend.full_signature(bits, top) == \
                    whole[:top * (top + 3) // 2], (n, top)


def test_backends_refuse_a_bad_bound_alike(ckernel):
    # the bound is checked after the length and before the bits
    bad_values = ((bytes(5), -1), (bytes(5), 6), (bytes(255), 256),
                  (bytes(3), 10 ** 30), (bytes([0, 2]), 3), (b"", 0),
                  (bytes([2]), 1))
    for bits, top in bad_values:
        with pytest.raises(ValueError) as pure:
            _pykernel.full_signature(bits, top)
        with pytest.raises(ValueError) as compiled:
            ckernel.full_signature(bits, top)
        assert str(compiled.value) == str(pure.value), (bits, top)
    for top in (1.0, "2", [1]):
        with pytest.raises(TypeError) as pure:
            _pykernel.full_signature(bytes(3), top)
        with pytest.raises(TypeError) as compiled:
            ckernel.full_signature(bytes(3), top)
        assert str(compiled.value) == str(pure.value), top
    for module in (_pykernel, ckernel):
        with pytest.raises(TypeError):
            module.full_signature(bytes(3), 1, 2)


_LOW_BIT = bytes(b & 1 for b in range(256))


def test_backends_accept_the_same_buffers(backend):
    # every 5-bit row: one batch of 32 rows is bit-sliced, one row alone
    # is signed row by row
    n = 5
    rows = b"".join(bytes(int(b) for b in format(x, f"0{n}b")) for x in range(2 ** n))
    want = [_reference_full_signature(rows[i:i + n]) for i in range(0, len(rows), n)]
    for convert in (bytes, bytearray, memoryview, lambda b: array("B", b)):
        assert backend.full_signature(convert(rows[5:10])) == want[1]
        assert backend.signatures(convert(rows), n) == want
        assert backend.signatures(convert(rows[5:10]), n) == want[1:2]
    for bad in ([0, 1, 1], "011"):
        with pytest.raises(TypeError):
            backend.full_signature(bad)
        with pytest.raises(TypeError):
            backend.signatures(bad, 3)
    strided = memoryview(rows)[::2]
    with pytest.raises(BufferError):
        backend.full_signature(strided)
    with pytest.raises(BufferError):
        backend.signatures(strided, n)


def _row_by_row(rows: bytes, n: int) -> list[bytes]:
    return [_pykernel.full_signature(rows[i:i + n]) for i in range(0, len(rows), n)]


def test_signatures_of_every_row_at_once(backend):
    for n in range(1, 11):
        rows = b"".join(bytes(int(b) for b in format(x, f"0{n}b"))
                        for x in range(2 ** n))
        assert backend.signatures(rows, n) == _row_by_row(rows, n), n


def test_signatures_of_random_batches(backend):
    rng = random.Random(17)
    for n in range(11, _pykernel.MAX_N + 1):
        for count in (0, 1):
            rows = rng.randbytes(n * count).translate(_LOW_BIT)
            assert backend.signatures(rows, n) == _row_by_row(rows, n), (n, count)
    # past one chunk, and on both sides of the pure kernel's switch from
    # row by row to bit-sliced at 120n/(140 - n) rows
    for n, count in ((11, _pykernel._CHUNK_ROWS + 1), (16, _pykernel._CHUNK_ROWS + 1),
                     (24, 24), (24, 25), (40, 47), (40, 48)):
        rows = rng.randbytes(n * count).translate(_LOW_BIT)
        assert backend.signatures(rows, n) == _row_by_row(rows, n), (n, count)
        # the lower and upper classes the oracle signs apart, one class
        # and an empty range
        m = (n + 1) // 2
        _assert_ranges(backend, rows, n, [(m, 1), (n, m + 1), (n // 3, n // 3),
                                          (n // 3, n // 3 + 1)])


def _range_of(sig: bytes, top: int, bottom: int) -> bytes:
    """Classes bottom..top of a whole signature."""
    return sig[(bottom - 1) * (bottom + 2) // 2:top * (top + 3) // 2]


def _assert_ranges(backend, rows: bytes, n: int, ranges) -> None:
    whole = _row_by_row(rows, n)
    for top, bottom in ranges:
        assert backend.signatures(rows, n, top, bottom) == \
            [_range_of(sig, top, bottom) for sig in whole], (n, top, bottom)


def test_signatures_sign_a_class_range(backend):
    # every range at n = 1..12, empty ones (bottom = top + 1) included, on
    # a batch the pure kernel bit-slices and on one row it signs alone;
    # sampled ranges at n = 16, 31, 64 and 255
    rng = random.Random(31)
    for n in range(1, 13):
        every = [(top, bottom) for top in range(n + 1)
                 for bottom in range(1, top + 2)]
        for count in (1, 40):
            rows = rng.randbytes(n * count).translate(_LOW_BIT)
            _assert_ranges(backend, rows, n, every)
    for n, count in ((16, 40), (31, 60), (64, 3), (64, 120), (255, 2)):
        rows = rng.randbytes(n * count).translate(_LOW_BIT)
        sampled = [(n, 1), (n, n + 1), (0, 1), (n, n), (1, 1)]
        for _ in range(6):
            bottom, top = sorted(rng.sample(range(1, n + 1), 2))
            sampled += [(top, bottom), (top, top + 1), (bottom, bottom)]
        _assert_ranges(backend, rows, n, sampled)
        whole = _row_by_row(rows, n)
        assert backend.signatures(rows, n, None, None) == whole
        assert backend.signatures(rows, n, None, 2) == [sig[2:] for sig in whole]
    assert backend.signatures(b"", 7, 3, 2) == []


def test_signatures_refuse_a_bad_range_alike(ckernel):
    # the range is checked after the length and the row count and before
    # the bits: top in [0, n], then bottom in [1, top + 1]
    bad_values = ((bytes(5), 5, -1, None), (bytes(5), 5, 6, None),
                  (bytes(5), 5, 3, 5), (bytes(5), 5, 3, 0), (bytes(5), 5, None, 7),
                  (bytes(5), 5, 0, 2), (bytes(5), 5, 2, 10 ** 30),
                  (bytes(255), 255, 256, 1), (bytes([0, 2]), 2, 3, 1),
                  (bytes([0, 2]), 2, 1, 3), (bytes([0, 2]), 2, 1, 2),
                  (bytes(7), 2, 9, 9), (b"", 0, 9, 9))
    for rows, n, top, bottom in bad_values:
        with pytest.raises(ValueError) as pure:
            _pykernel.signatures(rows, n, top, bottom)
        with pytest.raises(ValueError) as compiled:
            ckernel.signatures(rows, n, top, bottom)
        assert str(compiled.value) == str(pure.value), (rows, n, top, bottom)
    for bound in (1.0, "2", [1]):
        for top, bottom in ((bound, 1), (3, bound)):
            with pytest.raises(TypeError) as pure:
                _pykernel.signatures(bytes(3), 3, top, bottom)
            with pytest.raises(TypeError) as compiled:
                ckernel.signatures(bytes(3), 3, top, bottom)
            assert str(compiled.value) == str(pure.value), (top, bottom)
    for module in (_pykernel, ckernel):
        with pytest.raises(TypeError):
            module.signatures(bytes(3), 3, 3, 1, 0)


def test_signatures_of_constant_rows(backend):
    # all-zero and all-one rows give the largest counts: n - k + 1 windows
    # of class k share one weight, up to 255 at n = 255
    for n, count in ((16, 64), (40, 200), (255, 2)):
        rows = (bytes(n) + bytes([1]) * n) * (count // 2)
        assert backend.signatures(rows, n) == _row_by_row(rows, n), n
    assert max(backend.signatures(bytes(255), 255)[0]) == 255


def test_signatures_of_constant_and_periodic_rows(backend):
    # one or two weights fill each class.  The pure kernel's packed pass
    # adds up to 15 windows per nibble: class 1 has one full run of 15
    # windows at n = 15, a run of 15 and one of 1 at n = 16, and two full
    # runs plus 0, 1 or 2 windows at n = 30, 31 and 32
    for n in (15, 16, 30, 31, 32):
        rows = b"".join([bytes(n), bytes([1]) * n, (b"\0\1" * n)[:n],
                         (b"\0\0\1\1" * n)[:n]]) * 16
        want = _row_by_row(rows, n)
        assert backend.signatures(rows, n) == want, n
        assert _pykernel._bit_sliced(rows, n) == want, n
        for top, bottom in ((n // 2, 1), (n, n // 2 + 1), (1, 1), (n, n)):
            part = [_range_of(sig, top, bottom) for sig in want]
            assert backend.signatures(rows, n, top, bottom) == part, (n, top, bottom)
            assert _pykernel._bit_sliced(rows, n, bottom, top) == part, (n, top, bottom)


def test_signatures_reject_bad_input_alike(ckernel):
    bad_inputs = ((b"", 0), (b"", 256), (bytes(3), -1), (bytes(5), 2),
                  (bytes(300), 255), (bytes([0, 2]), 2), (bytes([0, 1, 0, 3]), 2),
                  (bytes([1, 0]) * 200 + bytes([7, 0]), 2))
    for rows, n in bad_inputs:
        with pytest.raises(ValueError) as pure:
            _pykernel.signatures(rows, n)
        with pytest.raises(ValueError) as compiled:
            ckernel.signatures(rows, n)
        assert str(compiled.value) == str(pure.value), (rows, n)
    assert _pykernel.signatures(b"", 7) == ckernel.signatures(b"", 7) == []


def _run_in_fresh_interpreter(code: str) -> None:
    """Run code in a new interpreter free to pick the compiled kernel."""
    env = {k: v for k, v in os.environ.items() if k != "COMPCODES_PURE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(_pykernel.__file__).parents[1]), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_stale_extension_falls_back_to_pure_kernel():
    # an extension built before signatures() existed: the import must not
    # break, and the pure kernel must serve both functions
    code = (
        "import sys, types\n"
        "stale = types.ModuleType('compcodes._ckernel')\n"
        "stale.BACKEND = 'compiled'\n"
        "stale.full_signature = bytes\n"
        "sys.modules['compcodes._ckernel'] = stale\n"
        "from compcodes import _pykernel, kernel\n"
        "assert kernel.BACKEND == 'pure', kernel.BACKEND\n"
        "assert kernel.full_signature is _pykernel.full_signature\n"
        "assert kernel.signatures is _pykernel.signatures\n")
    _run_in_fresh_interpreter(code)


def test_extension_without_the_class_bound_falls_back_to_pure_kernel():
    # an extension built before full_signature took a class bound: the
    # whole pure kernel serves, and a decode, whose finish filter passes
    # the bound, raises no TypeError
    code = (
        "import sys, types\n"
        "stale = types.ModuleType('compcodes._ckernel')\n"
        "stale.BACKEND = 'compiled'\n"
        "stale.full_signature = lambda bits: bytes(bits)\n"
        "stale.signatures = lambda rows, n: []\n"
        "sys.modules['compcodes._ckernel'] = stale\n"
        "from compcodes import _pykernel, kernel\n"
        "assert kernel.BACKEND == 'pure', kernel.BACKEND\n"
        "assert kernel.full_signature is _pykernel.full_signature\n"
        "assert kernel.signatures is _pykernel.signatures\n"
        "from compcodes.codebooks import CodebookSpec\n"
        "from compcodes.core import full_readout\n"
        "from compcodes.reconstructor import decode_deletions\n"
        "r = full_readout('001010111').restrict({3})\n"
        "assert decode_deletions(r, CodebookSpec('SR', 9)).result == '001010111'\n")
    _run_in_fresh_interpreter(code)


def test_extension_without_the_class_range_falls_back_to_pure_kernel():
    # an extension built before signatures took a class range: the whole
    # pure kernel serves, and the oracle, which signs the lower and the
    # upper classes apart, raises no TypeError
    code = (
        "import sys, types\n"
        "stale = types.ModuleType('compcodes._ckernel')\n"
        "stale.BACKEND = 'compiled'\n"
        "stale.full_signature = lambda bits, top=None: bytes(bits)\n"
        "stale.signatures = lambda rows, n: []\n"
        "sys.modules['compcodes._ckernel'] = stale\n"
        "from compcodes import _pykernel, kernel, oracle\n"
        "assert kernel.BACKEND == 'pure', kernel.BACKEND\n"
        "assert kernel.full_signature is _pykernel.full_signature\n"
        "assert kernel.signatures is _pykernel.signatures\n"
        "assert oracle.count_classes(8)[0] == 135\n"
        "w = oracle.find_confusable_pair(6, 'sym_pair_delete', 1)\n"
        "assert w.deleted_classes == {3, 4}, w\n")
    _run_in_fresh_interpreter(code)
