"""Run one workload on several seeds and summarise the run-to-run spread.

    python3 perfbench/spread.py --workload star32-bright --seeds 1-10 --seconds 30

Runs ``run.py`` once per seed, one after another, and prints for every
metric the median, the first and third quartiles and the quartile
spread (q3 - q1) / median, plus the median probe times, and the share
of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
    return {"seed": seed, "result": json.loads(lines[-1]), "info": info}


def summary(runs: list[dict]) -> str:
    out = []
    names = runs[0]["result"]["metrics"]
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        out.append(f"{name:28s} {unit:8s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                   f"spread {spread:.2%}")
    for key in ("numpy_s", "python_s"):
        vals = [r["info"][p][key] for r in runs for p in ("probe_start", "probe_end")]
        out.append(f"probe {key:22s} median {statistics.median(vals):.6g}  "
                   f"min {min(vals):.6g}  max {max(vals):.6g}")
    att = sum(r["result"]["attempted"] for r in runs)
    fail = sum(r["result"]["failed"] for r in runs)
    ok = all(r["result"]["correct"] for r in runs)
    out.append(f"runs {len(runs)}  attempted {att}  failed {fail}  all correct {ok}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    runs = []
    for seed in args.seeds:
        runs.append(run_one(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + json.dumps(runs[-1]["result"]["metrics"]), flush=True)
    print(summary(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
