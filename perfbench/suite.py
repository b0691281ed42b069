"""Run every workload and print each metric with its unit.

    python3 perfbench/suite.py [--seconds S] [--workload NAME ...]

For each workload, three fresh processes run one after another: untraced at
the workload's default seed (end-to-end metrics and the exact output
checks), traced at the same seed (per-layer metrics and the tracing
overhead), and untraced at a non-default seed (the harness does not depend
on the seed). The result set, with the environment of every run, is written
to ``.perfbench_out/suite.json``. Exits non-zero when any run fails a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    record = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def main(argv=None) -> int:
    from bench_workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    results = {}
    all_correct = True
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        default = WORKLOADS[name].default_seed
        runs = {
            "default_seed": run(name, default, args.seconds, 0),
            "traced": run(name, default, args.seconds, 1),
            "other_seed": run(name, default + 1, args.seconds, 0),
        }
        results[name] = runs
        for label, record in runs.items():
            res = record["result"]
            all_correct &= res["correct"]
            print(f"{name} [{label}, seed {record['environment']['seed']}]: "
                  f"correct={res['correct']} failed {res['failed']} of {res['attempted']} "
                  f"(ops_failed_frac {res['failed'] / res['attempted']:.3g})")
            if label == "traced":
                overhead = res["metrics"]["trace.overhead_s"]["value"]
                print(f"  tracing overhead = {overhead:.6g} s (traced run_s - untraced run_s)")
                continue
            for metric, m in res["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            for problem in record["problems"][:5]:
                print(f"  check failed: {problem}")
    (OUT / "suite.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"result set written to {(OUT / 'suite.json').relative_to(ROOT)}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
