"""scipy's Cholesky and triangular solves and expit, without their packages.

penpath calls four scipy functions: cho_factor, cho_solve and
solve_triangular from scipy.linalg, and expit from scipy.special.  Importing
either package imports scipy's array-API layer, which imports numpy.f2py:
most of the time `import penpath` used to take.  This module loads the two
compiled extensions that do the work straight from their files, without
running scipy's or the packages' __init__:

- scipy/linalg/_flapack, for LAPACK's dpotrf, dpotrs and dtrtrs;
- scipy/special/_special_ufuncs, for the expit ufunc itself.

The three wrappers repeat what scipy 1.17.1 does around those routines
(`_cholesky` with clean=False and `_cho_solve` in
scipy/linalg/_decomp_cholesky.py, `solve_triangular` and
`_solve_triangular` in scipy/linalg/_basic.py): the same finiteness checks,
shape checks and empty-input returns, the same overwrite rule
(`_datacopied`), and the same routine on the same memory layout, so every
result has scipy's bits.  They take real 2-D matrices and 1-D or 2-D
right-hand sides, computed in double precision, and no batch dimensions.

Where an extension file or routine is missing (scipy releases that keep
them elsewhere), the scipy functions themselves are imported instead.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _extension(package, name):
    """The extension module scipy.<package>.<name>, loaded from its file.

    Neither scipy nor scipy.<package> is imported, and the module is not
    left in sys.modules, where it would stand without its parents.  If
    scipy.<package> is imported already, its module is returned.
    """
    fullname = f"scipy.{package}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    for directory in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, package, name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(fullname, path)
                spec = importlib.util.spec_from_loader(fullname, loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules.pop(fullname, None)
                return module
    raise ImportError(f"no extension file for {fullname}")


def _datacopied(arr, original):
    """Whether arr = np.asarray(original) shares no memory with original, so
    LAPACK may overwrite it (scipy.linalg._misc._datacopied)."""
    if arr is original:
        return False
    if not isinstance(original, np.ndarray) and hasattr(original, "__array__"):
        return False
    return arr.base is None


def _validated(a, check_finite):
    return np.asarray_chkfinite(a) if check_finite else np.asarray(a)


def cho_factor(a, lower=False, check_finite=True):
    """scipy.linalg.cho_factor: (c, lower), with the Cholesky factor of the
    symmetric positive definite `a` in c's `lower` (or upper) triangle and
    a's entries in the other.  Raises np.linalg.LinAlgError when a is not
    positive definite and ValueError, with check_finite, when a holds a
    non-finite entry."""
    a1 = np.atleast_2d(_validated(a, check_finite))
    if a1.ndim != 2:
        raise ValueError(f"Input array needs to be 2D but received a {a1.ndim}d-array.")
    if a1.shape[0] != a1.shape[1]:
        raise ValueError(
            f"Input array is expected to be square but has the shape: {a1.shape}."
        )
    if a1.size == 0:
        return np.empty_like(a1, dtype=float), lower
    c, info = _potrf(a1, lower=lower, overwrite_a=_datacopied(a1, a), clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(
            f'LAPACK reported an illegal value in {-info}-th argument on entry to "POTRF".'
        )
    return c, lower


def cho_solve(c_and_lower, b, check_finite=True):
    """scipy.linalg.cho_solve: the x with A x = b, for (c, lower) from
    cho_factor(A) and a vector b or each column of b."""
    c, lower = c_and_lower
    b1 = _validated(b, check_finite)
    c = _validated(c, check_finite)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("The factored matrix c is not square.")
    if c.shape[1] != b1.shape[0]:
        raise ValueError(f"incompatible dimensions ({c.shape} and {b1.shape})")
    if b1.size == 0:
        return np.empty_like(b1, dtype=float)
    x, info = _potrs(c, b1, lower=lower, overwrite_b=_datacopied(b1, b))
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def solve_triangular(a, b, lower=False, check_finite=True):
    """scipy.linalg.solve_triangular: the x with a x = b for the upper (or
    `lower`) triangle of a, for a vector b or each column of b.  Raises
    np.linalg.LinAlgError when a has a zero on its diagonal."""
    a1 = _validated(a, check_finite)
    b1 = _validated(b, check_finite)
    if a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
        raise ValueError("expected square matrix")
    if a1.shape[0] != b1.shape[0]:
        raise ValueError(f"shapes of a {a1.shape} and b {b1.shape} are incompatible")
    if b1.size == 0:
        return np.empty_like(b1, dtype=float)
    overwrite_b = _datacopied(b1, b)
    if a1.flags.f_contiguous:
        x, info = _trtrs(a1, b1, overwrite_b=overwrite_b, lower=lower, trans=0)
    else:
        # dtrtrs reads Fortran order, so a C-ordered a is passed as a.T and
        # the transposed system solved.
        x, info = _trtrs(a1.T, b1, overwrite_b=overwrite_b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


try:
    _flapack = _extension("linalg", "_flapack")
    _potrf, _potrs, _trtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs
    expit = _extension("special", "_special_ufuncs").expit
except (ImportError, AttributeError):
    from scipy.linalg import cho_factor, cho_solve, solve_triangular
    from scipy.special import expit
