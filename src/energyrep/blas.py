"""numpy's BLAS library, opened through ctypes, and the LAPACK routine of the
symmetric tridiagonal eigenproblem that it exports.

One lookup serves the CLI's thread pin (`cli.pin_blas_threads`) and the
solve: `library_paths` lists numpy's bundled library and then the
process's global symbols, each is opened on first use and kept, and
`find_symbol` returns the first of some names that one of them exports.
Importing this module opens nothing.

`dstevd` (Anderson et al., "LAPACK Users' Guide", 3rd ed., SIAM (1999))
solves a symmetric tridiagonal matrix from its diagonal and subdiagonal:
with eigenvectors by the divide-and-conquer method of Gu & Eisenstat (SIAM
J. Matrix Anal. Appl. 16 (1995)), the values alone by the root-free QL of
`dsterf`.  Those are the steps that LAPACK's `dsyevd`, behind numpy's
`eigh` and `eigvalsh`, runs after its Householder reduction to tridiagonal
form, behind the same scaling of the largest entry; on a matrix that is
tridiagonal already every reflector of that reduction has tau = 0, so
dstevd returns the bits of `eigh` and `eigvalsh` without the dense input
and without the O(N^3) reduction.  numpy's wheels bundle OpenBLAS with its
LAPACK symbols as `scipy_<name>_64_`: 64-bit integer arguments, and after
the last argument the hidden length of the JOBZ character.  A numpy on
another BLAS (MKL, Accelerate) exports none, and `dstevd` returns None.
"""
from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

STEVD = "scipy_dstevd_64_"


@functools.cache
def library_paths() -> tuple:
    """numpy's bundled BLAS (`numpy.libs` in Linux and Windows wheels,
    `numpy/.dylibs` in macOS ones), then the process's global symbols."""
    package = Path(np.__file__).parent
    bundled = [*package.parent.glob("numpy.libs/libscipy_openblas*"),
               *package.glob(".dylibs/libscipy_openblas*")]
    return tuple(str(path) for path in sorted(bundled)) + (None,)


@functools.cache
def _opened(path: str | None):
    """The library at path (None: the process's global symbols), opened
    once; None where it does not open."""
    try:
        return ctypes.CDLL(path)
    except (OSError, TypeError):
        return None


def find_symbol(names, paths) -> tuple | None:
    """(name, function) of the first of names that a library of paths
    exports, library by library in order; None where none does."""
    for library in map(_opened, paths):
        for name in () if library is None else names:
            function = getattr(library, name, None)
            if function is not None:
                return name, function
    return None


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def dstevd(diagonal: np.ndarray, lower: np.ndarray,
           vectors: bool = True):
    """The symmetric tridiagonal matrix with this diagonal and subdiagonal,
    solved by LAPACK's dstevd: the ascending eigenvalues and, with vectors,
    the C-contiguous (N, N) array of eigenvector columns.  None where
    numpy's BLAS does not export dstevd; LinAlgError where LAPACK
    reports a failure, as `eigh` raises.

    dstevd writes the eigenvectors column-major, so the array it fills
    holds them as rows; its workspace of 1 + 4N + N^2 doubles is freed
    before they are copied out in C order, the order `eigh` returns, so the
    peak is two N x N arrays.
    """
    found = find_symbol((STEVD,), library_paths())
    if found is None:
        return None
    solve = found[1]
    solve.restype = None
    n = diagonal.size
    values = np.array(diagonal, dtype=float)  # the eigenvalues on return
    off = np.array(lower, dtype=float)        # overwritten by dstevd
    rows = np.empty((n, n) if vectors else (1,))
    lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if vectors else (1, 1)
    work, iwork = np.empty(lwork), np.empty(liwork, np.int64)
    info = ctypes.c_int64()
    solve(b"V" if vectors else b"N", _int(n), values.ctypes, off.ctypes,
          rows.ctypes, _int(n if vectors else 1), work.ctypes, _int(lwork),
          iwork.ctypes, _int(liwork), ctypes.byref(info), ctypes.c_size_t(1))
    del work, iwork
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dstevd failed: info = {info.value}")
    return (values, np.ascontiguousarray(rows.T)) if vectors else values
