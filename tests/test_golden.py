"""Golden CLI outputs on small fixed problems.

Each case under tests/golden/<case>/ holds a problem spec with its data
inline (spec.json), the command-line arguments (argv.json) and the files
the CLI wrote for them.  The test reruns the CLI and compares its output
with the stored files: the kink sequence (row_kind, index, from_set,
to_set, df_after), the df column and the non-numeric tokens of the report
lines exactly, every other number to 1e-12 relative (with a 1e-14 absolute
floor for entries that are zero up to rounding).

Regenerate the fixtures (only when an output change is intended and
stated) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from penpath.cli import main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12
ATOL = 1e-14
KINK_EXACT = ("kind", "row_kind", "index", "from_set", "to_set", "df_after")


def _least_squares_lasso():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(16, 8))
    y = x @ np.array([1.5, 0.0, -2.0, 0.0, 0.0, 0.7, 0.0, 0.0]) + rng.normal(size=16)
    spec = {
        "dimension": 8,
        "loss": {"kind": "quadratic", "design": x.tolist(), "response": y.tolist()},
        "constraints": [{"builder": "lasso"}],
        "options": {"mode": "direct"},
    }
    return spec, ["solve"]


def _fused_target(seed, p):
    rng = np.random.default_rng(seed)
    signal = np.repeat(rng.normal(scale=2.0, size=3), [p // 3, p // 3, p - 2 * (p // 3)])
    return (signal + 0.5 * rng.normal(size=p)).tolist()


def _fused_nullspace():
    spec = {
        "dimension": 12,
        "loss": {"kind": "quadratic", "target": _fused_target(2, 12)},
        "constraints": [{"builder": "fused_lasso"}],
        "options": {"mode": "nullspace", "samples_per_segment": 6},
    }
    return spec, ["solve"]


def _logistic_spec():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 4))
    eta = x @ np.array([1.0, -0.5, 0.0, 0.25])
    y = (rng.random(100) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return {
        "dimension": 4,
        "loss": {"kind": "glm", "family": "logistic", "design": x.tolist(),
                 "response": y.tolist()},
        "constraints": [{"builder": "lasso"}],
        "options": {"samples_per_segment": 10},
    }


def _fused_backward():
    spec = {
        "dimension": 8,
        "loss": {"kind": "quadratic", "target": _fused_target(4, 8)},
        "constraints": [{"builder": "fused_lasso"}],
        "options": {"direction": "backward", "samples_per_segment": 6},
    }
    return spec, ["solve"]


def _curve_target(seed, p):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, p)
    return (np.sin(6.0 * grid) + 0.3 * rng.normal(size=p)).tolist()


def _shape_direct():
    # Convex curvature rows have three terms, so every active row stays
    # general: the direct mode's Schur factor on each segment.
    spec = {
        "dimension": 10,
        "loss": {"kind": "quadratic", "target": _curve_target(6, 10)},
        "constraints": [{"builder": "shape", "kind": "convex"}],
        "options": {"mode": "direct", "samples_per_segment": 6},
    }
    return spec, ["solve"]


def _trend_nullspace():
    # An order-2 trend filter ties the boundary pairs beside the general
    # three-term interior rows.
    spec = {
        "dimension": 10,
        "loss": {"kind": "quadratic", "target": _curve_target(7, 10)},
        "constraints": [{"builder": "trend_filter", "order": 2}],
        "options": {"mode": "nullspace", "samples_per_segment": 6},
    }
    return spec, ["solve"]


CASES = {
    "lasso_direct": _least_squares_lasso,
    "fused_nullspace": _fused_nullspace,
    "logistic_solve": lambda: (_logistic_spec(), ["solve"]),
    "logistic_crossval": lambda: (_logistic_spec(), ["crossval", "--folds", "2", "--seed", "5"]),
    "fused_backward": _fused_backward,
    "shape_direct": _shape_direct,
    "trend_nullspace": _trend_nullspace,
}


def _run(case_dir, out):
    argv = json.loads((case_dir / "argv.json").read_text())
    command, extra = argv[0], argv[1:]
    assert main([command, str(case_dir / "spec.json"), *extra, "--out", str(out)]) == 0


def _floats_close(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


def _compare_csv(actual, expected):
    got, want = actual.read_text().splitlines(), expected.read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0].split(",")
    exact = [j for j, name in enumerate(header) if name == "df"]
    rows_got = [line.split(",") for line in got[1:]]
    rows_want = [line.split(",") for line in want[1:]]
    for j in range(len(header)):
        if j in exact:
            assert [r[j] for r in rows_got] == [r[j] for r in rows_want], header[j]
        else:
            _floats_close([float(r[j]) for r in rows_got], [float(r[j]) for r in rows_want])


def _compare_kinks(actual, expected):
    got = [json.loads(line) for line in actual.read_text().splitlines()]
    want = [json.loads(line) for line in expected.read_text().splitlines()]
    assert [[k[f] for f in KINK_EXACT] for k in got] == [[k[f] for f in KINK_EXACT] for k in want]
    _floats_close([k["rho"] for k in got], [k["rho"] for k in want])
    assert [k["boundary"] for k in got] == [k["boundary"] for k in want]


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _compare_report(actual, expected):
    got, want = actual.read_text().splitlines(), expected.read_text().splitlines()
    assert len(got) == len(want)
    for line_got, line_want in zip(got, want):
        tokens_got, tokens_want = line_got.split(), line_want.split()
        assert len(tokens_got) == len(tokens_want), line_want
        numbers = [_number(t) for t in tokens_want]
        assert [t for t, x in zip(tokens_got, numbers) if x is None] == [
            t for t, x in zip(tokens_want, numbers) if x is None
        ], line_want
        kept = [j for j, x in enumerate(numbers) if x is not None]
        _floats_close([float(tokens_got[j]) for j in kept], [numbers[j] for j in kept])


_COMPARE = {
    "path.csv": _compare_csv,
    "cv.csv": _compare_csv,
    "kinks.jsonl": _compare_kinks,
    "report.txt": _compare_report,
    "cv_report.txt": _compare_report,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    case_dir = GOLDEN / case
    out = tmp_path / "out"
    _run(case_dir, out)
    expected = sorted(p.name for p in (case_dir / "out").iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        _COMPARE[name](out / name, case_dir / "out" / name)


def write_fixtures():
    """Write every case's spec, argv and CLI output under tests/golden/."""
    for case, build in CASES.items():
        spec, argv = build()
        case_dir = GOLDEN / case
        shutil.rmtree(case_dir, ignore_errors=True)
        case_dir.mkdir(parents=True)
        (case_dir / "spec.json").write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
        (case_dir / "argv.json").write_text(json.dumps(argv) + "\n")
        _run(case_dir, case_dir / "out")


if __name__ == "__main__":
    write_fixtures()
    sys.exit(0)
