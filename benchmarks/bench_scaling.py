#!/usr/bin/env python3
"""Record how the pipeline's cost grows with the packing size.

Each row generates a random sequential adsorption packing (`gen_random`,
seed 42), saturates it (`greedy_saturate`), builds its diagram
(`build_diagram`) and runs the checks (`check_thue` on that diagram). Every
row runs in its own Python process, so its peak RSS (`ru_maxrss`) is its
own. The script appends one record to BENCH_scaling.json: the git commit
of the measured tree, the backend, and per row the centre count before
and after saturation, the wall time of each stage, the peak RSS and the
verdict.

Build the compiled kernel first (`python setup.py build_ext --inplace`),
or the rows run on the pure-Python kernel; each row records which ran.

Run:  python3 benchmarks/bench_scaling.py [--src DIR] [--note TEXT]
          [--skip ROW ... --skip-reason TEXT] [--out BENCH_scaling.json]

`--src` measures another tree's `src/` (say, a clean copy of the parent
commit); the record then names that tree's commit.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (domain kind, side)
ROWS = {
    "rsa-torus-40": ("torus", 40.0),
    "rsa-torus-80": ("torus", 80.0),
    "rsa-torus-160": ("torus", 160.0),
    "rsa-torus-320": ("torus", 320.0),
    "rsa-box-60": ("box", 60.0),
    "rsa-box-100": ("box", 100.0),
}
SEED = 42


def run_row(name):
    """Time one row in this process and return its measurements."""
    import thuelab
    from thuelab.packing import Domain, gen_random, greedy_saturate
    from thuelab.tessellation import build_diagram
    from thuelab.verifier import check_thue

    kind, side = ROWS[name]
    stamps = [time.perf_counter()]
    config = gen_random(Domain(kind, side, side), seed=SEED)
    stamps.append(time.perf_counter())
    saturated = greedy_saturate(config)
    stamps.append(time.perf_counter())
    diagram = build_diagram(saturated)
    stamps.append(time.perf_counter())
    report = check_thue(saturated, diagram=diagram)
    stamps.append(time.perf_counter())
    stages = ("generate_s", "saturate_s", "build_s", "checks_s")
    return {
        "row": name,
        "backend": thuelab.BACKEND_NAME,
        "n_before": config.n,
        "n_after": saturated.n,
        **{stage: round(b - a, 4) for stage, a, b in zip(stages, stamps, stamps[1:])},
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "verdict": "pass" if report.verdict else "fail",
        "failed_checks": [c.check_id for c in report.checks if not c.passed],
    }


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git(tree, *args):
    proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding thuelab/")
    parser.add_argument("--skip", action="append", default=[], help="record ROW as not run")
    parser.add_argument("--skip-reason", default="", help="why the skipped rows did not run")
    parser.add_argument("--note", default="", help="free text kept with the record")
    parser.add_argument("--out", default=str(ROOT / "BENCH_scaling.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    src = Path(args.src).resolve()

    if args.child:
        sys.path.insert(0, str(src))
        print(json.dumps(run_row(args.child)))
        return

    rows = []
    unknown = set(args.skip) - set(ROWS)
    if unknown:
        parser.error(f"unknown rows {sorted(unknown)}; expected some of {', '.join(ROWS)}")
    for name in ROWS:
        if name in args.skip:
            rows.append({"row": name, "not_run": args.skip_reason or "skipped"})
            print(f"{name}: not run", file=sys.stderr)
            continue
        proc = subprocess.run(
            [sys.executable, __file__, "--child", name, "--src", str(src)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            rows.append({"row": name, "error": (proc.stderr.strip().splitlines() or ["?"])[-1]})
            print(f"{name}: failed\n{proc.stderr}", file=sys.stderr)
            continue
        rows.append(json.loads(proc.stdout.splitlines()[-1]))
        print(json.dumps(rows[-1]), file=sys.stderr)

    tree = src.parent
    status = git(tree, "status", "--porcelain", "--", "src")
    record = {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git(tree, "rev-parse", "HEAD"),
        "uncommitted_src_changes": None if status is None else bool(status),
        "note": args.note,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "seed": SEED,
        "rows": rows,
    }
    out = Path(args.out)
    records = json.loads(out.read_text()) if out.is_file() else []
    records.append(record)
    out.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
