"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload campaign --seeds 1-10 --trace 0

Runs ``perfbench/run.py`` once per seed, one run at a time, from the root of
the checkout.  For every metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median; with ``--out`` it also writes
them, with every value, to a JSON file under ``perfbench/out/``.  Every
end-to-end spread should stay under a third of the metric's bound in
BENCHMARK.json; a wider one is flagged ``WIDE``.  Each run measures for
BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range of seeds, as '1-10'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="file name under perfbench/out/ for the summary")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(done.stdout.splitlines()[-1]) if done.stdout else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            if name in bounds or args.trace), flush=True)

    summary = {name: summarise(vals) for name, vals in values.items()}
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = "" if bound is None or s["spread"] < bound / 3 else "  WIDE"
        print(f"{name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
              f"spread {s['spread']:.4f}" + (f" (bound {bound})" if bound else "") + flag)
    if args.out:
        (HERE / "out").mkdir(exist_ok=True)
        record = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
                  "seeds": _seeds(args.seeds), "metrics": summary}
        (HERE / "out" / args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
