"""Write the CLI outputs of the benchmark's jobs, to compare two versions of
penpath byte for byte, and compare two such sets of outputs.

This script is not collected by pytest.  For jobs 0 and 1 of seeds 3 and 11
of lasso_ls, fused_fsa and logistic_cv (perfbench/workloads.make_job, full
size), it writes the job's input files under OUT/<workload>-<seed>/job<index>/
and runs `penpath.cli.main` on them in this process, which writes the job's
outputs to out/ there: path.csv, kinks.jsonl and report.txt of a `solve`
job, cv.csv and cv_report.txt of a `crossval` one.

Run it from the root of each checkout, forked (one BLAS thread, so the CLI
shares its work with forked children on a host with two or more CPUs) and
serial (two BLAS threads), then compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_outputs.py A/forked
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/cli_outputs.py A/serial
    (the same from the other checkout into B/forked and B/serial)
    python tests/cli_outputs.py --compare A B

OUT must not exist yet.  The exit status is 1 when a job exits nonzero.

--compare A B walks both directories (any two, `tests/golden` too) and
prints, for each file that differs, how many of its lines changed.  For a
CSV file with the same header and row count in both, it also prints the
largest absolute change in each kind of column (rho, beta, df,
negloglik/aic/bic, and cv for cv.csv's fold and mean columns), and for a
path.csv how many of the changed rows lie at a kink's rho (from the
kinks.jsonl beside it, in either directory).  For any other file it shows
the changed lines.  The exit status is 1 when a file differs or is missing
from one side.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

SHOWN_LINES = 5


def column_kind(name):
    """The kind of a CSV column, by its header name."""
    if name.startswith("beta_"):
        return "beta"
    if name in ("negloglik", "aic", "bic"):
        return "negloglik/aic/bic"
    if name.startswith("fold_") or name == "mean":
        return "cv"
    return name


def kink_rhos(*directories):
    """The rho of every kink in the kinks.jsonl of each of directories."""
    rhos = set()
    for directory in directories:
        path = directory / "kinks.jsonl"
        if path.is_file():
            rhos.update(json.loads(line)["rho"] for line in path.read_text().splitlines())
    return rhos


def table_changes(a, b, old, new):
    """The report on a CSV file's changed rows, old and new its lines."""
    x, y = (np.array([[float(c) for c in line.split(",")] for line in lines[1:]], ndmin=2)
            for lines in (old, new))
    change = np.abs(x - y)
    change[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
    largest = {}
    for name, column in zip(old[0].split(","), change.T):
        kind = column_kind(name)
        largest[kind] = max(largest.get(kind, 0.0), float(column.max(initial=0.0)))
    text = ", ".join(f"{kind} {value:.3g}" for kind, value in largest.items())
    report = [f"    largest change: {text}"]
    if a.name == "path.csv":
        kinks = kink_rhos(a.parent, b.parent)
        rows = [float(u.split(",", 1)[0]) for u, v in zip(old[1:], new[1:]) if u != v]
        report.append(f"    {sum(rho in kinks for rho in rows)} of the changed rows "
                      f"at a kink's rho, of {len(kinks)} kink rhos")
    return report


def compare_file(a, b):
    """Lines describing how file b differs from file a; none if equal."""
    if a.read_bytes() == b.read_bytes():
        return []
    old, new = a.read_text().splitlines(), b.read_text().splitlines()
    changed = [(u, v) for u, v in zip(old, new) if u != v]
    report = [f"{len(changed)} of {len(old)} lines changed"
              + (f", and {len(old)} lines against {len(new)}" if len(old) != len(new) else "")]
    if a.suffix == ".csv" and len(old) == len(new) and old[:1] == new[:1]:
        return report + table_changes(a, b, old, new)
    for u, v in changed[:SHOWN_LINES]:
        report += [f"    - {u}", f"    + {v}"]
    if len(changed) > SHOWN_LINES:
        report.append(f"    ... and {len(changed) - SHOWN_LINES} more")
    return report


def compare(a, b):
    """Print how the files under b differ from those under a; 1 if any does."""
    names = sorted({path.relative_to(root) for root in (a, b)
                    for path in root.rglob("*") if path.is_file()})
    differ = 0
    for name in names:
        if not (a / name).is_file() or not (b / name).is_file():
            print(f"{name}: only in {a if (a / name).is_file() else b}")
            differ += 1
            continue
        report = compare_file(a / name, b / name)
        if report:
            print(f"{name}: {report[0]}", *report[1:], sep="\n")
            differ += 1
    print(f"{len(names)} files, {len(names) - differ} identical")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT or --compare A B")

    from workloads import WORKLOADS, make_job

    from penpath import cli

    failed = 0
    for name in ("lasso_ls", "fused_fsa", "logistic_cv"):
        for seed in (3, 11):
            for index in (0, 1):
                job = make_job(WORKLOADS[name], "full", seed, index, args.out / f"{name}-{seed}")
                code = cli.main(job.argv)
                print(f"{name} seed {seed} job {index}: exit {code}", flush=True)
                failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
