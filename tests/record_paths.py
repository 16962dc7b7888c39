"""Record every run_path call of a test session, to compare two versions of
the solver bit for bit.

This module is a pytest plugin that the suite does not collect.  Load it by
name and give it a file to write:

    PYTHONPATH=src:tests python -m pytest -q -p record_paths --record-paths=A.jsonl

It wraps penpath's run_path before any test module imports it, keeps what
each call returns and, once the session is over, writes one JSON line per
call: the test's node id, the call's number within
that test, and either the exception the call raised or the path it returned
(status, mode, warnings, kinks, segment ends and configurations, and
beta_at and coefficients_at of the path and of the segment at five points
of each segment).  Every float
is written as float.hex, so a record holds the exact bits.  Hypothesis runs
derandomized, so two sessions make the same calls.  Calls made in forked
children (crossval folds, path.csv slices) are not seen.

Compare two recordings, of the same suite on two versions:

    python tests/record_paths.py A.jsonl B.jsonl [--rtol 1e-12]

A record is "tied" when some segment's active rows hold a tie (two
coordinates held equal).  Every untied record must be bitwise equal.  A
tied record may differ in its floats by at most rtol, relative to
max(1, |value|), with everything else (statuses, kinks' rows and sets,
configurations, warnings, raised exceptions) equal.  Records only in B
(new tests) are counted; the exit status is 1 when a record breaks its
rule or is missing from B.
"""

import argparse
import functools
import json
import os
import sys
import warnings

import numpy as np

FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _floats(values):
    return [float(v).hex() for v in np.ravel(values)]


def _lookup(call, rho):
    try:
        return _floats(call(rho) if call.__name__ == "beta_at" else call(rho).r_z)
    except Exception as exc:  # a lookup that raises is part of the record
        return f"{type(exc).__name__}: {exc}"


def _record_solution(sol):
    from penpath.constraints import TIE

    kind = sol.constraints.row_shapes.kind
    n_eq = sol.constraints.n_eq
    tied = False
    segments = []
    for seg in sol.segments:
        cfg = seg.config
        active = np.array(cfg.zero_eq + tuple(n_eq + j for j in cfg.zero_ineq), dtype=int)
        tied = tied or bool((kind[active] == TIE).any())
        rhos = [seg.rho_start + f * (seg.rho_end - seg.rho_start) for f in FRACTIONS]
        segments.append({
            "rho": _floats([seg.rho_start, seg.rho_end]),
            "termination": seg.termination,
            "config": [list(getattr(cfg, name)) for name in
                       ("neg_eq", "zero_eq", "pos_eq", "neg_ineq", "zero_ineq", "pos_ineq")],
            "beta": _floats([seg.beta_start, seg.beta_end]),
            "beta_at": [_lookup(sol.beta_at, rho) for rho in rhos],
            "coefficients_at": [_lookup(sol.coefficients_at, rho) for rho in rhos],
            "segment_beta_at": [_lookup(seg.beta_at, rho) for rho in rhos],
            "segment_coefficients_at": [_lookup(seg.coefficients_at, rho) for rho in rhos],
        })
    kinks = [[_floats([k.rho])[0], k.row_kind, k.index, k.from_set, k.to_set,
              None if k.boundary is None else float(k.boundary).hex(), k.df_after]
             for k in sol.kinks]
    return {"tied": tied, "status": sol.status, "mode": sol.mode,
            "warnings": [str(w) for w in sol.warnings], "kinks": kinks, "segments": segments}


class _Recorder:
    def __init__(self, path):
        self.path = path
        self.pid = os.getpid()
        self.node = None
        self.counts = {}
        self.calls = []

    def wrap(self, run_path):
        @functools.wraps(run_path)
        def recorded(*args, **kwargs):
            if os.getpid() != self.pid:
                return run_path(*args, **kwargs)
            number = self.counts.get(self.node, 0)
            self.counts[self.node] = number + 1
            record = {"node": self.node, "call": number}
            try:
                sol = run_path(*args, **kwargs)
            except Exception as exc:
                record["raised"] = f"{type(exc).__name__}: {exc}"
                self.calls.append((record, None))
                raise
            self.calls.append((record, sol))
            return sol

        return recorded


_recorder = None


def pytest_addoption(parser):
    parser.addoption("--record-paths", metavar="FILE",
                     help="write one JSON line per run_path call to FILE")


def pytest_configure(config):
    global _recorder
    path = config.getoption("--record-paths")
    if not path:
        return
    import penpath
    import penpath.path

    original = penpath.path.run_path
    _recorder = _Recorder(path)
    wrapped = _recorder.wrap(original)
    for name, module in list(sys.modules.items()):
        if name.startswith("penpath") and getattr(module, "run_path", None) is original:
            module.run_path = wrapped
    try:
        from hypothesis import settings
    except ImportError:
        return
    settings.register_profile("record_paths", derandomize=True, database=None)
    settings.load_profile("record_paths")


def pytest_runtest_protocol(item, nextitem):
    if _recorder is not None:
        _recorder.node = item.nodeid


def pytest_unconfigure(config):
    # The paths are read once the session is over, so the lookups neither
    # meet a test's monkeypatching nor add to the calls a test counts.
    if _recorder is None:
        return
    with open(_recorder.path, "w") as handle, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for record, sol in _recorder.calls:
            if sol is not None:
                record.update(_record_solution(sol))
            handle.write(json.dumps(record) + "\n")


# -- comparing two recordings --------------------------------------------------

def _load(path):
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    return {(r["node"], r["call"]): r for r in records}


def _float_gap(a, b):
    """The largest |a - b| / max(1, |a|) over two equal-shaped nestings of
    hex floats, or None when their structure or their other entries differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        a, b = list(a.values()), list(b.values())
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        gap = 0.0
        for x, y in zip(a, b):
            g = _float_gap(x, y)
            if g is None:
                return None
            gap = max(gap, g)
        return gap
    if isinstance(a, str) and isinstance(b, str) and a != b:
        try:
            x, y = float.fromhex(a), float.fromhex(b)
        except ValueError:
            return None
        if np.isnan(x) or np.isnan(y):
            return np.inf
        return abs(x - y) / max(1.0, abs(x))
    return 0.0 if a == b else None


def compare(a, b, rtol):
    """Lines describing each record that breaks its rule (see the module
    docstring), and a summary."""
    problems, tied, differing, worst = [], 0, 0, 0.0
    for key in sorted(set(a) | set(b), key=lambda k: (k[0] or "", k[1])):
        if key not in b:
            problems.append(f"{key}: missing from B")
            continue
        if key not in a:
            continue
        ra, rb = a[key], b[key]
        if ra == rb:
            tied += bool(ra.get("tied"))
            continue
        differing += 1
        is_tied = bool(ra.get("tied")) and bool(rb.get("tied"))
        tied += is_tied
        gap = _float_gap(ra, rb)
        if gap is None:
            problems.append(f"{key}: differs beyond its floats")
        elif not is_tied:
            problems.append(f"{key}: untied path not bitwise (largest gap {gap:.3g})")
        else:
            worst = max(worst, gap)
            if gap > rtol:
                problems.append(f"{key}: tied path moved by {gap:.3g} > {rtol:g}")
    summary = (f"{len(a)} records in A, {len(set(b) - set(a))} new in B; {tied} tied, "
               f"{differing} not bitwise (largest tied gap {worst:.3g}), "
               f"{len(problems)} breaking their rule")
    return problems, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest change allowed on a tied path (default 0)")
    args = parser.parse_args(argv)
    problems, summary = compare(_load(args.a), _load(args.b), args.rtol)
    for line in problems:
        print(line)
    print(summary)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
