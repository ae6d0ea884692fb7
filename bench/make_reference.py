"""Regenerate the committed seed-0 reference tables under bench/reference/.

    python3 bench/make_reference.py [workload ...]

Runs each workload's seed-0 configs once through ``nlcavity.cli.main`` and
keeps the compared columns of every ungated row (every
``checker.PROFILE_STRIDE``-th row of a hawking profile). Regenerate only
when a change is meant to move the outputs, and say so in the change.
"""

from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402
from nlcavity import cli  # noqa: E402


def make(workload: str) -> None:
    work = ROOT / ".bench_run" / "reference" / workload
    if work.exists():
        shutil.rmtree(work)
    out = work / "out"
    tables: dict[str, list] = {}
    for path, sc in zip(workloads.write_configs(workload, 0, work / "configs"),
                        workloads.scenarios(workload, 0)):
        code = cli.main(["run", str(path), "--out", str(out)])
        if code not in (0, 3):
            raise SystemExit(f"{sc.label}: exit {code}")
        if code == 3:
            continue
        table = checker.TABLE_OF_KIND[sc.kind]
        names = [table] + (["profile"] if table == "summary" else [])
        for name in names:
            rows = checker.read_table(out / f"{sc.label}_{name}.csv")
            tables.setdefault(name, []).extend(checker.reference_rows(name, sc.label, rows))
    checker.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, rows in tables.items():
        with open(checker.reference_path(workload, name), "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["label", "row"] + checker.COMPARED[name])
            w.writerows(rows)


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        make(name)
        print(f"reference for {name} written")
