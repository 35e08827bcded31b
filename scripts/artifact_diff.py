#!/usr/bin/env python3
"""Compare the scenario artifacts that two source trees write, byte for byte.

Usage:

    python scripts/artifact_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that each hold a selfpredict package (a
checkout's src/).  A parent commit's tree can be unpacked without touching
the repository's index or worktrees:

    mkdir -p /tmp/parent && git archive HEAD src | tar -x -C /tmp/parent
    python scripts/artifact_diff.py /tmp/parent/src src

Each tree runs the same 38-file set through `python -m selfpredict`:

* the seven scenarios at --runs 30 --seed 0 --iters 200;
* fig2_collapse again at --n-step 2;
* appendix_target_beta at --runs 30 --n-states 160 --k 8 --iters 100
  --workers 2.

Every file is compared byte for byte.  For a CSV that differs, the largest
absolute difference of each numeric column is printed.  The exit status is 0
when both trees wrote the same files with the same bytes, and 1 otherwise.

First, the line count of each module of both packages is printed (as wc -l
counts them), with the totals and the difference between the trees, and then
each tree's public names (selfpredict.__all__).  Public names that differ
between the trees also make the exit status 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np

SCENARIOS = ("fig2_collapse", "fig4_trace_ratio", "fig5_failure_mode",
             "example1_critical_points", "appendix_target_beta", "appendix_finite_lr",
             "appendix_noisy_predictor")
BASE = ["--runs", "30", "--seed", "0", "--iters", "200"]
# (output subdirectory, command line flags); each run writes <subdir>/<scenario>/.
RUNS = [("default", ["--scenario", s, *BASE]) for s in SCENARIOS] + [
    ("n_step_2", ["--scenario", "fig2_collapse", *BASE, "--n-step", "2"]),
    ("n160_k8", ["--scenario", "appendix_target_beta", "--runs", "30", "--seed", "0",
                 "--n-states", "160", "--k", "8", "--iters", "100", "--workers", "2"]),
]
EXPECTED_FILES = 38


def write_artifacts(src: Path, out: Path) -> None:
    """Run every entry of RUNS with src first on the import path, into out."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
    for sub, flags in RUNS:
        cmd = [sys.executable, "-m", "selfpredict", *flags, "--out", str(out / sub)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{src}: {' '.join(flags)} exited {proc.returncode}:\n{proc.stderr}")


def line_counts(src: Path) -> dict:
    """Lines of each module of src's selfpredict package, by file name."""
    return {p.name: p.read_bytes().count(b"\n") for p in (src / "selfpredict").glob("*.py")}


def report_lines(old: Path, new: Path) -> None:
    """Print each module's line count in both trees, the totals and the differences."""
    a, b = line_counts(old), line_counts(new)
    print(f"{'module':<20} {'old':>6} {'new':>6} {'diff':>6}")
    for name in sorted(a.keys() | b.keys()) + [None]:
        x, y = (sum(c.values()) if name is None else c.get(name, 0) for c in (a, b))
        print(f"{name or 'total':<20} {x:>6} {y:>6} {y - x:>+6}")


def public_names(src: Path) -> list:
    """selfpredict.__all__ of src's package, read in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
    code = "import selfpredict; print(*selfpredict.__all__)"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


def report_names(old: Path, new: Path) -> bool:
    """Print both trees' public names, shared first; returns whether they are the same."""
    a, b = public_names(old), public_names(new)
    print(f"public names (selfpredict.__all__): old {len(a)}, new {len(b)}")
    for label, names in (("both", [x for x in a if x in b]), ("only in old", set(a) - set(b)),
                         ("only in new", set(b) - set(a))):
        if names:
            print(textwrap.fill(", ".join(sorted(names)), 88, initial_indent=f"  {label}: ",
                                subsequent_indent="    "))
    return sorted(a) == sorted(b)


def files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def column_gaps(old: Path, new: Path) -> str:
    """The largest absolute difference per numeric column of two CSVs of one header."""
    heads = [p.read_text().split("\n", 1)[0] for p in (old, new)]
    if heads[0] != heads[1]:
        return f"    headers differ: {heads[0]!r} / {heads[1]!r}"
    a, b = (np.genfromtxt(p, delimiter=",", skip_header=1, ndmin=2) for p in (old, new))
    if a.shape != b.shape:
        return f"    shapes differ: {a.shape} / {b.shape}"
    lines = []
    with np.errstate(invalid="ignore"):
        for name, x, y in zip(heads[0].split(","), a.T, b.T):
            same = (x == y) | (np.isnan(x) & np.isnan(y))
            gap = np.abs(x - y)[~same].max() if not same.all() else 0.0
            lines.append(f"    {name}: {gap:.3g}")
    return "\n".join(lines)


def compare(old: Path, new: Path) -> int:
    """Print every difference between two artifact roots; returns how many files differ."""
    a, b = files(old), files(new)
    bad = 0
    for rel in sorted(a ^ b):
        print(f"only in {'old' if rel in a else 'new'}: {rel}")
        bad += 1
    for rel in sorted(a & b):
        if (old / rel).read_bytes() != (new / rel).read_bytes():
            bad += 1
            print(f"differs: {rel}")
            if rel.suffix == ".csv":
                print(column_gaps(old / rel, new / rel))
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path, help="the reference tree's src/ directory")
    p.add_argument("new", type=Path, help="the changed tree's src/ directory")
    args = p.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "selfpredict" / "__init__.py").is_file():
            p.error(f"{src} holds no selfpredict package")
    report_lines(args.old, args.new)
    same_names = report_names(args.old, args.new)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for label, src in (("old", args.old), ("new", args.new)):
            start = time.perf_counter()
            write_artifacts(src, root / label)
            print(f"{label}: {len(files(root / label))} files from {src} "
                  f"in {time.perf_counter() - start:.1f} s")
        bad = compare(root / "old", root / "new")
        count = len(files(root / "new"))
    if count != EXPECTED_FILES:
        print(f"expected {EXPECTED_FILES} files, got {count}")
        return 1
    print(f"{count - bad} of {count} files identical")
    return 1 if bad or not same_names else 0


if __name__ == "__main__":
    sys.exit(main())
