"""Head-to-head campaigns: classical greedy vs big-step greedy.

A campaign draws `count` instances per m value from the seeded generator,
runs both solvers on each, and tallies which found the smaller cover.  Work
is sharded by instance-index ranges and tallies merge by addition, so any
worker count produces the identical table.

Every row is solved in batches: the generator returns the accepted draws of
a sub-batch as one packed uint64 array (under keep-raw, the draws whose
coverage count falls short of n are dropped), and both greedy rules run on
it in lockstep, in a kernel that returns the cover sizes of the scalar
solvers, for any p.
"""

from __future__ import annotations

import csv
import enum
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from .core import Instance, _reach, check_int
from .generate import (
    FeasibilityPolicy,
    GeneratorConfig,
    ResampleLimitError,
    _draws,
)
from .solvers import _batch_cover_sizes, _batch_size, big_step_greedy, classical_greedy


class Outcome(enum.Enum):
    BIGSTEP_BETTER = "bigstep_better"
    GREEDY_BETTER = "greedy_better"
    EQUAL = "equal"


@dataclass(frozen=True)
class ComparisonRow:
    """One table row: win/loss/tie tallies for a single (q, m) cell."""

    m: int
    q: float
    count: int
    bigstep_better: int
    greedy_better: int
    equal: int
    p: int

    def __post_init__(self):
        for name in ("bigstep_better", "greedy_better", "equal"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        total = self.bigstep_better + self.greedy_better + self.equal
        if total != self.count:
            raise ValueError(f"tallies sum to {total}, expected count {self.count}")


@dataclass(frozen=True)
class CampaignSpec:
    """Full description of a campaign; fixes the instance stream per row.

    count may be 0, producing all-zero rows.
    """

    n: int
    q: float
    m_values: tuple[int, ...]
    p: int
    count: int
    seed: int
    feasibility_policy: FeasibilityPolicy = FeasibilityPolicy.REJECT_RESAMPLE

    def __post_init__(self):
        object.__setattr__(self, "m_values", tuple(self.m_values))
        if not self.m_values:
            raise ValueError("m_values must be nonempty")
        check_int("step size p", self.p)
        check_int("count", self.count, 0)
        # n, m, q, seed, and policy limits are enforced by the generator config,
        # for every row up front so a bad m fails before any row has run
        for m in self.m_values:
            GeneratorConfig(self.n, m, self.q, self.seed, self.feasibility_policy)


def compare_one(instance: Instance, p: int) -> Outcome:
    """Which solver covers this instance with fewer sets (by size alone)."""
    big, _ = big_step_greedy(instance, p)
    greedy, _ = classical_greedy(instance)
    if big.size < greedy.size:
        return Outcome.BIGSTEP_BETTER
    if big.size > greedy.size:
        return Outcome.GREEDY_BETTER
    return Outcome.EQUAL


def _tally_range(args: tuple) -> tuple[int, int, int]:
    """Tallies for instance indices [lo, hi) of one row.  Top-level so worker
    processes can receive it; under keep-raw an infeasible draw counts as
    equal (neither solver runs)."""
    spec, m, lo, hi = args
    config = GeneratorConfig(spec.n, m, spec.q, spec.seed, spec.feasibility_policy)
    screen = config.feasibility_policy is FeasibilityPolicy.KEEP_RAW
    step = _batch_size(spec.n, m, spec.p)
    wins = losses = 0
    for start in range(lo, hi, step):
        sets = _draws(config, range(start, min(start + step, hi)))
        if screen:
            sets = sets[:, _reach(sets)[1] == spec.n]
        if not sets.shape[1]:
            continue
        big = _batch_cover_sizes(sets, spec.n, spec.p)
        greedy = _batch_cover_sizes(sets, spec.n, 1)
        wins += int((big < greedy).sum())
        losses += int((big > greedy).sum())
    return wins, losses, hi - lo - wins - losses


ProgressSink = Callable[[int, int, int], None]


def run_campaign(
    spec: CampaignSpec,
    progress_sink: ProgressSink | None = None,
    *,
    workers: int = 1,
) -> list[ComparisonRow]:
    """Run every (m, index) cell of the campaign and aggregate rows.

    Rows come back in m_values order.  ``progress_sink``, if given, is called
    as sink(m, instances_done, count) after each completed chunk of a row.
    ``workers`` > 1 fans chunks out to a process pool; the result is
    byte-identical to the sequential run because instance streams are keyed
    by index alone and tally merging is addition.
    """
    check_int("workers", workers)
    rows: list[ComparisonRow] = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for m in spec.m_values:
            chunks = _index_chunks(spec.count, workers)
            args = [(spec, m, lo, hi) for lo, hi in chunks]
            wins = losses = ties = 0
            done = 0
            try:
                results = pool.map(_tally_range, args) if pool else map(_tally_range, args)
                for (w, l, t), (lo, hi) in zip(results, chunks):
                    wins += w
                    losses += l
                    ties += t
                    done += hi - lo
                    if progress_sink is not None:
                        progress_sink(m, done, spec.count)
            except ResampleLimitError as exc:
                raise ResampleLimitError(
                    f"campaign row (q={spec.q}, m={m}) aborted: {exc}"
                ) from exc
            rows.append(
                ComparisonRow(
                    m=m,
                    q=spec.q,
                    count=spec.count,
                    bigstep_better=wins,
                    greedy_better=losses,
                    equal=ties,
                    p=spec.p,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown()
    return rows


def _index_chunks(count: int, workers: int) -> list[tuple[int, int]]:
    if count == 0:
        return []
    if workers == 1:
        size = min(count, 10_000)
    else:
        size = max(1, -(-count // (workers * 4)))
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


_COLUMNS = ("m", "count", "bigstep_better", "greedy_better", "equal")


def emit_table(rows: list[ComparisonRow], format: str = "markdown") -> str:
    """Render rows as a markdown or csv table (columns: m, count, tallies).

    Rows must share one (q, p) pair; order is preserved.  Output always ends
    with a newline and uses LF line endings in both formats.
    """
    if format not in ("markdown", "csv"):
        raise ValueError(f"format must be 'markdown' or 'csv', got {format!r}")
    if rows:
        q, p = rows[0].q, rows[0].p
        for row in rows[1:]:
            if (row.q, row.p) != (q, p):
                raise ValueError(
                    f"rows mix (q, p) pairs: ({q}, {p}) vs ({row.q}, {row.p})"
                )
    records = [(r.m, r.count, r.bigstep_better, r.greedy_better, r.equal) for r in rows]
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(records)
        return out.getvalue()
    lines = ["| " + " | ".join(_COLUMNS) + " |", "|" + " --- |" * len(_COLUMNS)]
    for record in records:
        lines.append("| " + " | ".join(str(v) for v in record) + " |")
    return "\n".join(lines) + "\n"
