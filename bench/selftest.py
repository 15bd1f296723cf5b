"""Self-test of the benchmark harness, run at the smallest sizes.

    python3 bench/selftest.py

It shows that
  1. every metric named in BENCHMARK.json is printed, with its unit, by
     every workload in the untraced and the traced run;
  2. a corrupted expected value makes its operation count as failed;
  3. the calibration loop imports nothing from rootposets.
Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def metrics_printed(spec):
    found = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for wl in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--size", "small"],
                capture_output=True, text=True, cwd=ROOT, check=False)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            text = set(lines[:-1])
            ok = (got == want and result.get("correct") is True
                  and result.get("failed") == 0
                  and all(any(t.startswith(f"{n} ") and t.endswith(f" {u}")
                              for t in text) for n, u in want.items()))
            found.append((f"{wl['name']} trace {trace}: all {len(want)} metrics "
                          "printed with units, no operation failed", ok))
    return found


def corrupted_value_fails():
    sys.path.insert(0, str(HERE))
    import run
    import workloads
    rows = workloads.CENSUS_EXPECTED["A4 closed"]
    saved = rows[0]
    rows[0] = (saved[0], saved[1] + 1)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.main(["--workload", "census", "--seed", "1",
                               "--seconds", "0", "--size", "small"])
    finally:
        rows[0] = saved
    return [("a corrupted expected value counts as failed",
             result["failed"] > 0 and result["correct"] is False)]


def calibration_is_independent():
    tree = ast.parse((HERE / "calib.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names]
    imported += [n.module or "" for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom)]
    probe = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import calib; "
             "calib.loop_seconds(); "
             "print(sorted(m for m in sys.modules if m.startswith('rootposets')))")
    proc = subprocess.run([sys.executable, "-c", probe, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, check=False)
    return [("calib.py imports nothing from rootposets",
             not any(m.startswith("rootposets") for m in imported)
             and proc.returncode == 0 and proc.stdout.strip() == "[]")]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = (metrics_printed(spec) + corrupted_value_fails()
               + calibration_is_independent())
    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
