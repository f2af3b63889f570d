"""Command-line front end: solve, gen, bench, feasprob.

Exit status: 0 on success, 1 on runtime or parse errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from .bench import CampaignSpec, emit_table, run_campaign
from .formats import parse_instance, serialize_instance
from .generate import FeasibilityPolicy, GeneratorConfig, feasibility_probability, generate_instance
from .solvers import big_step_greedy, classical_greedy, exact_min_cover

_POLICIES = {
    "reject": FeasibilityPolicy.REJECT_RESAMPLE,
    "raw": FeasibilityPolicy.KEEP_RAW,
}


def _int_at_least(low: int, what: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")


def _positive_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(_positive_int(tok) for tok in text.split(",") if tok)
    except argparse.ArgumentTypeError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers >= 1, got {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scpkit",
        description="Unicost set-cover solvers, instance generator, and benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--algo", choices=["greedy", "bigstep", "exact"], required=True)
    solve.add_argument("--p", type=_positive_int, default=2, help="step size for bigstep (default 2)")
    solve.add_argument("--input", required=True, help="instance file in the native format")
    solve.add_argument("--trace", action="store_true", help="print per-step details")

    gen = sub.add_parser("gen", help="write random instance files")
    gen.add_argument("--n", type=_positive_int, required=True)
    gen.add_argument("--m", type=_positive_int, required=True)
    gen.add_argument("--q", type=float, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=_positive_int, required=True)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--policy", choices=sorted(_POLICIES), default="reject")

    bench = sub.add_parser("bench", help="compare the two greedy solvers head to head")
    bench.add_argument("--n", type=_positive_int, required=True)
    bench.add_argument("--q", type=float, required=True)
    bench.add_argument("--m", type=_positive_int_list, required=True, help="set counts, e.g. 10,20,35")
    bench.add_argument("--p", type=_positive_int, default=2)
    bench.add_argument(
        "--count", type=_non_negative_int, required=True, help="instances per m value"
    )
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--policy", choices=sorted(_POLICIES), default="reject")
    bench.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    bench.add_argument("--workers", type=_positive_int, default=1)

    feasprob = sub.add_parser("feasprob", help="closed-form feasibility probability")
    feasprob.add_argument("--n", type=_positive_int, required=True)
    feasprob.add_argument("--m", type=_positive_int, required=True)
    feasprob.add_argument("--q", type=float, required=True)
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    with open(args.input, encoding="utf-8") as f:
        instance = parse_instance(f.read())
    trace = None
    if args.algo == "greedy":
        cover, trace = classical_greedy(instance)
    elif args.algo == "bigstep":
        cover, trace = big_step_greedy(instance, args.p)
    else:
        cover = exact_min_cover(instance)
    print(f"size {cover.size}")
    print("indices " + " ".join(str(i) for i in cover.chosen))
    if args.trace and trace is not None:
        for t, step in enumerate(trace.steps, start=1):
            added = " ".join(str(i) for i in step.chosen)
            print(
                f"step {t}: add {added} "
                f"newly_covered {step.newly_covered} "
                f"candidates {step.candidates_evaluated}"
            )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        n=args.n, m=args.m, q=args.q, seed=args.seed, feasibility_policy=_POLICIES[args.policy]
    )
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        instance = generate_instance(config, i)
        path = os.path.join(args.out, f"instance_{i:06d}.scp")
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(serialize_instance(instance))
    print(f"wrote {args.count} instances to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = CampaignSpec(
        n=args.n,
        q=args.q,
        m_values=args.m,
        p=args.p,
        count=args.count,
        seed=args.seed,
        feasibility_policy=_POLICIES[args.policy],
    )
    rows = run_campaign(spec, workers=args.workers)
    print(emit_table(rows, args.format), end="")
    return 0


def _cmd_feasprob(args: argparse.Namespace) -> int:
    config = GeneratorConfig(n=args.n, m=args.m, q=args.q, seed=0)
    print(f"{feasibility_probability(config):.6g}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "feasprob": _cmd_feasprob,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"scpkit: error: {exc}", file=sys.stderr)
        return 1


main = cli_main

if __name__ == "__main__":
    sys.exit(main())
