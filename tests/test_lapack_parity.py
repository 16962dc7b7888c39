"""penpath._lapack against scipy.linalg and scipy.special.

_lapack calls the LAPACK routines of scipy's own _flapack extension with
the arguments scipy 1.17's wrappers pass, and takes expit from scipy's
_special_ufuncs, so every result must be bitwise equal to the installed
scipy's, which serves here as the oracle: same values, dtype, shape and
memory layout, and the same errors.
"""

import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from penpath import _lapack

SIZES = (1, 2, 5, 17, 40, 80)


def assert_same(ours, theirs):
    assert type(ours) is type(theirs)
    if isinstance(ours, tuple):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert_same(a, b)
        return
    if not isinstance(ours, np.ndarray):
        assert ours == theirs
        return
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.flags.c_contiguous == theirs.flags.c_contiguous
    assert ours.flags.f_contiguous == theirs.flags.f_contiguous
    assert ours.tobytes() == theirs.tobytes()


def spd(rng, n, order):
    a = rng.standard_normal((n, n + 3))
    return np.asarray(a @ a.T / n + 0.1 * np.eye(n), order=order)


def diagonal(rng, n, order):
    return np.asarray(np.diag(rng.uniform(0.1, 10.0, n)), order=order)


def rhs(rng, n, columns, order):
    if columns is None:
        return rng.standard_normal(n)
    return np.asarray(rng.standard_normal((n, columns)), order=order)


def both(name, *args, **kwargs):
    """(ours, scipy's) result of the function `name`, each on its own copy
    of the arguments, after checking that neither changed them."""
    results = []
    for module in (_lapack, scipy.linalg):
        copies = [a.copy(order="K") if isinstance(a, np.ndarray) else a for a in args]
        results.append(getattr(module, name)(*copies, **kwargs))
        for before, after in zip(args, copies):
            if isinstance(before, np.ndarray):
                assert_same(after, before)
    return results


@pytest.mark.parametrize("make", [spd, diagonal])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_cho_factor_and_solve_match_scipy(make, order, lower, n):
    rng = np.random.default_rng(n)
    a = make(rng, n, order)
    ours, theirs = both("cho_factor", a, lower=lower)
    assert_same(ours, theirs)
    for check_finite in (True, False):
        for columns in (None, 1, 3):
            for b_order in ("C", "F"):
                b = rhs(rng, n, columns, b_order)
                assert_same(*both("cho_solve", theirs, b, check_finite=check_finite))
    assert_same(*both("cho_factor", a.tolist(), lower=lower))
    assert_same(*both("cho_solve", theirs, b.tolist()))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_solve_triangular_matches_scipy(order, lower, n):
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    # The other triangle holds values the solve must not read.
    a = np.asarray(np.tril(a) + np.triu(a.T, 1) if lower else a, order=order)
    for check_finite in (True, False):
        for columns in (None, 1, 4):
            for b_order in ("C", "F"):
                b = rhs(rng, n, columns, b_order)
                ours, theirs = both("solve_triangular", a, b, lower=lower,
                                    check_finite=check_finite)
                assert_same(ours, theirs)
    assert_same(*both("solve_triangular", a.tolist(), b.tolist(), lower=lower))


def test_empty_inputs_match_scipy():
    empty = np.empty((0, 0))
    assert_same(*both("cho_factor", empty))
    factor = scipy.linalg.cho_factor(np.eye(3))
    for b in (np.empty(0), np.empty((0, 2)), np.empty((3, 0))):
        c = factor if b.shape[0] else (empty, False)
        assert_same(*both("cho_solve", c, b))
        assert_same(*both("solve_triangular", c[0], b))


def errors(name, *args, **kwargs):
    """The (type, message) each of ours and scipy's raises."""
    raised = []
    for module in (_lapack, scipy.linalg):
        with pytest.raises(Exception) as info:
            getattr(module, name)(*args, **kwargs)
        raised.append((type(info.value), str(info.value)))
    return raised


def test_errors_match_scipy():
    not_pd = np.array([[1.0, 2.0], [2.0, 1.0]])
    ours, theirs = errors("cho_factor", not_pd)
    assert ours == theirs and ours[0] is np.linalg.LinAlgError
    singular = np.array([[1.0, 1.0], [0.0, 0.0]])
    ours, theirs = errors("solve_triangular", singular, np.ones(2))
    assert ours == theirs and ours[0] is np.linalg.LinAlgError

    factor = scipy.linalg.cho_factor(np.eye(2))
    for bad in (np.inf, -np.inf, np.nan):
        a = np.array([[2.0, 0.0], [0.0, bad]])
        b = np.array([1.0, bad])
        for name, args in (("cho_factor", (a,)), ("cho_solve", (factor, b)),
                           ("cho_solve", ((a, False), np.ones(2))),
                           ("solve_triangular", (a, np.ones(2))),
                           ("solve_triangular", (np.eye(2), b))):
            ours, theirs = errors(name, *args)
            assert ours == theirs and ours[0] is ValueError

    ours, theirs = errors("cho_factor", np.ones((2, 3)))
    assert ours == theirs
    ours, theirs = errors("cho_solve", factor, np.ones(3))
    assert ours == theirs
    ours, theirs = errors("solve_triangular", np.eye(2), np.ones(3))
    assert ours == theirs


def test_expit_is_scipys_ufunc_bit_for_bit():
    rng = np.random.default_rng(7)
    x = np.concatenate([
        30.0 * rng.standard_normal(10**6),
        rng.uniform(-800.0, 800.0, 10**4),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 709.0, -709.0, 746.0, -746.0],
    ])
    assert_same(_lapack.expit(x), scipy.special.expit(x))
    assert_same(_lapack.expit(x[:, None].T), scipy.special.expit(x[:, None].T))
    assert _lapack.expit(0.5) == scipy.special.expit(0.5)


def test_the_extensions_are_loaded_from_their_files():
    # The fallback would bind scipy.linalg's own functions here.
    for name in ("cho_factor", "cho_solve", "solve_triangular"):
        assert getattr(_lapack, name).__module__ == _lapack.__name__
    assert isinstance(_lapack.expit, np.ufunc)


def test_import_loads_neither_scipy_package():
    # A fresh interpreter: penpath.cli and the solver load scipy's two
    # extensions from their files, and leave scipy's packages, its array-API
    # layer and the extensions themselves out of sys.modules.  The results
    # made there match scipy's once it is imported after them.
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import penpath.cli
        from penpath import _lapack
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 12))
        a = a @ a.T
        b = rng.standard_normal((9, 2))
        c = _lapack.cho_factor(a)
        x = _lapack.cho_solve(c, b)
        r = _lapack.solve_triangular(c[0], b)
        e = _lapack.expit(30.0 * b)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(loaded)
        import scipy.linalg, scipy.special
        c0 = scipy.linalg.cho_factor(a)
        same = (np.array_equal(c[0], c0[0])
                and np.array_equal(x, scipy.linalg.cho_solve(c0, b))
                and np.array_equal(r, scipy.linalg.solve_triangular(c0[0], b))
                and np.array_equal(e, scipy.special.expit(30.0 * b)))
        print(same)
    """)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True)
    loaded, same = result.stdout.splitlines()
    assert loaded == "[]"
    assert same == "True"
