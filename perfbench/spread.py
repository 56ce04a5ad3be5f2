"""Run the benchmark on several seeds per workload and report, per
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) against the metric's bound
in BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 [--workloads rank1,dykstra] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path, default=None, help="also write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        records = []
        failed = 0
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, *spec["command"][1:], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180, check=True)
            record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
            records.append(record["perfbench"])
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            steady = spread < bounds[metric] / 3
            ok = ok and steady
            print(f"{name:10s} {metric:16s} median {med:12.4f}  spread {spread:.4f}  bound {bounds[metric]}"
                  f"{'' if steady else '  NOT below a third of the bound'}")
        ok = ok and failed == 0
        print(f"{name:10s} failed requests: {failed}")
        summary[name] = {"failed": failed, "metrics": rows, "records": records}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
