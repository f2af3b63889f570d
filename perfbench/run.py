"""scpkit benchmark: one command per workload, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1729 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` makes the separate traced run and reports
the per-layer metrics.  Each metric is printed as ``metric <name> <value>
<unit>``; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run record goes to
``perfbench/out/BENCH_<workload>_<mode>_s<seed>.json`` and, when traced, the
spans to ``perfbench/out/spans_<workload>_s<seed>.csv``.  The exit code is 0
only when every correctness check passed; it is 2 when scpkit's sources are
not in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1729


def _import_scpkit():
    """Import scpkit from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "scpkit" / "__init__.py").is_file():
        raise ImportError(f"no scpkit sources at {SRC / 'scpkit'}")
    sys.path.insert(0, str(SRC))
    import scpkit

    if Path(scpkit.__file__).resolve().parent != SRC / "scpkit":
        raise ImportError(f"imported scpkit from {scpkit.__file__}, not from {SRC}")
    return scpkit


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import scpkit and set the workload up, then exit (times a cold set-up)",
    )
    return parser.parse_args(argv)


def _cold_setup_s(args) -> float:
    """Wall time of a fresh interpreter that imports scpkit and sets up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    start = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


class ColdSetups:
    """Cold set-ups spread evenly over the timed loop, one between two calls
    when due.  A shared host's speed drifts within seconds, so set-ups taken
    back to back all land in one phase of it; spread out, their median sees
    the same phases as the loop does."""

    def __init__(self, args) -> None:
        self.args = args
        self.samples: list[float] = []
        self.interval = args.seconds / args.sizes.setup_reps
        self.due = perf_counter() + self.interval / 2

    def __call__(self) -> float:
        """Run one set-up if one is due; return the seconds it took."""
        if len(self.samples) == self.args.sizes.setup_reps or perf_counter() < self.due:
            return 0.0
        took = _cold_setup_s(self.args)
        self.samples.append(took)
        self.due = perf_counter() + self.interval
        return took

    def finish(self) -> list[float]:
        """Every sample, after taking those the loop ended before."""
        while len(self.samples) < self.args.sizes.setup_reps:
            self.samples.append(_cold_setup_s(self.args))
        return self.samples


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "scpkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _end_to_end(wl, state, args, gate) -> tuple[dict, dict]:
    from workloads import tail

    cold_setups = ColdSetups(args)
    measured = wl.measure(state, args.seconds, gate, cold_setups)
    setups = cold_setups.finish()
    latency = measured["latency_ms"]
    tail_pct, tail_ms = tail(latency) if latency else (0.0, 0.0)
    if wl.workers > 1:  # campaign-w2's memory is its pool workers'
        rss = measured["workers_rss_mb"]
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    metrics = {
        "throughput": measured["throughput"],
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    info = {
        # printed, not in BENCHMARK.json: it jumps with a shared host's speed
        "latency_p50_ms": statistics.median(latency) if latency else 0.0,
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(latency),
        "throughput_repeats": measured["repeats"],
        "setup_s_samples": setups,
    }
    return metrics, info


def _per_layer(wl, state, args, gate) -> tuple[dict, dict]:
    tracer = Tracer()
    traced = wl.trace(state, args.seconds, gate, tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"spans_{args.workload}_s{args.seed}.csv")
    self_by_name: dict[str, int] = {}
    for (name, _), (_, own, _) in tracer.summary().items():
        self_by_name[name] = self_by_name.get(name, 0) + own
    info = dict(traced["info"])
    info["traced_wall_s"] = tracer.wall_ns() / 1e9
    info["self_s"] = {name: ns / 1e9 for name, ns in sorted(self_by_name.items())}
    return traced["metrics"], info


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        scpkit = _import_scpkit()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy
    from workloads import FULL, TINY, WORKLOADS, Gate

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    args.sizes = TINY if args.tiny else FULL
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed, args.sizes)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    load_start = os.getloadavg()
    gate = Gate()
    state = wl.setup(args.seed, args.sizes)
    measure = _per_layer if args.trace else _end_to_end
    values, info = measure(wl, state, args, gate)

    # A layer the workload never calls did no work there: it reads 0.
    metrics = {m["name"]: {"value": float(values.pop(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    if values:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    correct = gate.failed == 0 and gate.attempted > 0
    error_rate = gate.failed / gate.attempted if gate.attempted else 1.0
    record = {
        "workload": args.workload,
        "mode": "traced" if args.trace else "end_to_end",
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "shape": wl.shape(args.sizes),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "scpkit": scpkit.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "error_rate": error_rate,
        "failures": gate.notes,
        "metrics": metrics,
        "info": info,
    }
    OUT.mkdir(exist_ok=True)
    mode = "traced" if args.trace else "e2e"
    (OUT / f"BENCH_{args.workload}_{mode}_s{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    reported = {name: (metric["value"], metric["unit"]) for name, metric in metrics.items()}
    if "latency_p50_ms" in info:
        reported["latency_p50_ms"] = (info["latency_p50_ms"], "ms")
    reported["error_rate"] = (error_rate, "ratio")
    for name, (value, unit) in reported.items():
        print(f"metric {name} {value!r} {unit}")
    for key, value in info.items():
        if key not in reported:
            print(f"info {key} {json.dumps(value)}")
    for note in gate.notes:
        print(f"failure {note}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
