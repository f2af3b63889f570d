import re
from unittest import mock

import pytest

import scpkit.solvers
from scpkit import (
    CampaignSpec,
    ComparisonRow,
    FeasibilityPolicy,
    GeneratorConfig,
    Instance,
    Outcome,
    ResampleLimitError,
    compare_one,
    emit_table,
    exact_min_cover,
    generate_instance,
    is_feasible,
    run_campaign,
)


def test_compare_one_worked_example(example1):
    assert compare_one(example1, 2) is Outcome.BIGSTEP_BETTER


def test_compare_one_unique_cover_is_equal():
    inst = Instance.from_memberships(4, [[0, 1, 2, 3]])
    assert compare_one(inst, 2) is Outcome.EQUAL


def test_compare_one_small_derived_case():
    inst = Instance.from_memberships(6, [[0, 1, 2, 3], [0, 2, 4], [1, 3, 5]])
    assert compare_one(inst, 2) is Outcome.BIGSTEP_BETTER


def test_comparison_row_checks_tallies():
    row = ComparisonRow(m=10, q=0.3, count=5, bigstep_better=2, greedy_better=1, equal=2, p=2)
    assert row.count == 5
    with pytest.raises(ValueError):
        ComparisonRow(m=10, q=0.3, count=5, bigstep_better=2, greedy_better=1, equal=1, p=2)
    with pytest.raises(ValueError):
        ComparisonRow(m=10, q=0.3, count=0, bigstep_better=0, greedy_better=-1, equal=1, p=2)


def test_campaign_spec_validation():
    with pytest.raises(ValueError):
        CampaignSpec(n=10, q=0.3, m_values=(), p=2, count=5, seed=1)
    with pytest.raises(ValueError):
        CampaignSpec(n=10, q=0.3, m_values=(4,), p=0, count=5, seed=1)
    with pytest.raises(ValueError):
        CampaignSpec(n=10, q=0.3, m_values=(4,), p=True, count=5, seed=1)
    with pytest.raises(ValueError):
        CampaignSpec(n=10, q=0.3, m_values=(4,), p=2, count=-1, seed=1)
    with pytest.raises(ValueError):
        CampaignSpec(n=10, q=0.3, m_values=(4,), p=2, count=False, seed=1)
    with pytest.raises(ValueError):
        CampaignSpec(n=10, q=1.5, m_values=(4,), p=2, count=5, seed=1)
    # a bad m after the first fails at construction, before any row runs
    with pytest.raises(ValueError):
        CampaignSpec(n=10, q=0.3, m_values=(5, 0), p=2, count=5, seed=1)
    with pytest.raises(ValueError):
        CampaignSpec(n=10, q=0.3, m_values=(5, -3), p=2, count=0, seed=1)
    spec = CampaignSpec(n=10, q=0.3, m_values=[4, 6], p=2, count=5, seed=1)
    assert spec.m_values == (4, 6)


def test_zero_count_rows_are_vacuous():
    spec = CampaignSpec(n=10, q=0.3, m_values=(4, 6), p=2, count=0, seed=1)
    rows = run_campaign(spec)
    assert [(r.m, r.count, r.bigstep_better, r.greedy_better, r.equal) for r in rows] == [
        (4, 0, 0, 0, 0),
        (6, 0, 0, 0, 0),
    ]


def test_campaign_rows_follow_m_values_order_and_conserve_tallies():
    spec = CampaignSpec(n=50, q=0.3, m_values=(12, 8, 10), p=2, count=120, seed=42)
    rows = run_campaign(spec)
    assert [r.m for r in rows] == [12, 8, 10]
    for row in rows:
        assert row.bigstep_better + row.greedy_better + row.equal == row.count == 120
        assert row.q == 0.3 and row.p == 2


def test_campaign_matches_direct_per_instance_loop():
    # every row takes the batch kernel; a lowered cap makes it scan the
    # subsets in slices (3,000 bytes: the 4-subset layout is built slice by
    # slice too) or one subset at a time from layouts never held whole (0)
    reject, keep_raw = FeasibilityPolicy.REJECT_RESAMPLE, FeasibilityPolicy.KEEP_RAW
    cap = scpkit.solvers._PAIR_SCAN_MAX_BYTES
    cases = [(2, reject, cap), (1, reject, cap), (3, reject, cap), (4, reject, cap),
             (2, keep_raw, cap), (4, keep_raw, cap),
             (2, reject, 0), (4, reject, 3_000), (2, keep_raw, 3_000), (4, keep_raw, 0)]
    for p, policy, cap in cases:
        spec = CampaignSpec(n=40, q=0.35, m_values=(9,), p=p, count=60, seed=5,
                            feasibility_policy=policy)
        with mock.patch.object(scpkit.solvers, "_PAIR_SCAN_MAX_BYTES", cap):
            row = run_campaign(spec)[0]
        config = GeneratorConfig(n=40, m=9, q=0.35, seed=5, feasibility_policy=policy)
        expected = {Outcome.BIGSTEP_BETTER: 0, Outcome.GREEDY_BETTER: 0, Outcome.EQUAL: 0}
        for i in range(60):
            instance = generate_instance(config, i)
            outcome = compare_one(instance, p) if is_feasible(instance) else Outcome.EQUAL
            expected[outcome] += 1
        assert row.bigstep_better == expected[Outcome.BIGSTEP_BETTER]
        assert row.greedy_better == expected[Outcome.GREEDY_BETTER]
        assert row.equal == expected[Outcome.EQUAL]


def test_worker_counts_agree():
    spec = CampaignSpec(n=60, q=0.3, m_values=(8, 14), p=2, count=90, seed=17)
    assert run_campaign(spec) == run_campaign(spec, workers=3)


def test_keep_raw_counts_infeasible_draws_as_equal():
    spec = CampaignSpec(
        n=40,
        q=0.12,
        m_values=(3,),
        p=2,
        count=80,
        seed=23,
        feasibility_policy=FeasibilityPolicy.KEEP_RAW,
    )
    row = run_campaign(spec)[0]
    config = GeneratorConfig(
        n=40, m=3, q=0.12, seed=23, feasibility_policy=FeasibilityPolicy.KEEP_RAW
    )
    from scpkit import is_feasible

    infeasible = sum(
        not is_feasible(generate_instance(config, i)) for i in range(80)
    )
    assert infeasible > 0
    assert row.equal >= infeasible
    assert row.bigstep_better + row.greedy_better + row.equal == 80


def test_retry_cap_aborts_row_naming_cell():
    spec = CampaignSpec(n=30, q=1e-6, m_values=(2,), p=2, count=3, seed=1)
    with pytest.raises(ResampleLimitError, match=r"\(q=1e-06, m=2\)"):
        run_campaign(spec)


def test_progress_sink_is_monotone_per_row():
    spec = CampaignSpec(n=30, q=0.4, m_values=(6, 9), p=2, count=40, seed=3)
    calls = []
    run_campaign(spec, progress_sink=lambda m, done, total: calls.append((m, done, total)))
    for m in (6, 9):
        per_row = [(done, total) for cm, done, total in calls if cm == m]
        assert per_row[-1] == (40, 40)
        assert [d for d, _ in per_row] == sorted(d for d, _ in per_row)


def test_workers_validation():
    spec = CampaignSpec(n=10, q=0.5, m_values=(3,), p=2, count=1, seed=1)
    for bad in (0, -1, 1.5, 2.0, "2", True, None):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            run_campaign(spec, workers=bad)


def test_nonequal_verdicts_respect_the_optimum():
    """Whoever wins still cannot beat the exact minimum."""
    config = GeneratorConfig(n=50, m=12, q=0.3, seed=1001)
    from scpkit import big_step_greedy, classical_greedy

    checked = 0
    for i in range(120):
        inst = generate_instance(config, i)
        verdict = compare_one(inst, 2)
        if verdict is Outcome.EQUAL:
            continue
        optimum = exact_min_cover(inst).size
        winner = min(big_step_greedy(inst, 2)[0].size, classical_greedy(inst)[0].size)
        assert winner >= optimum
        checked += 1
    assert checked > 5


MARKDOWN_EXPECTED = """\
| m | count | bigstep_better | greedy_better | equal |
| --- | --- | --- | --- | --- |
| 10 | 5 | 2 | 1 | 2 |
| 12 | 5 | 0 | 0 | 5 |
"""


def _rows():
    return [
        ComparisonRow(m=10, q=0.3, count=5, bigstep_better=2, greedy_better=1, equal=2, p=2),
        ComparisonRow(m=12, q=0.3, count=5, bigstep_better=0, greedy_better=0, equal=5, p=2),
    ]


def test_emit_table_markdown():
    assert emit_table(_rows(), "markdown") == MARKDOWN_EXPECTED


def test_emit_table_csv():
    text = emit_table(_rows(), "csv")
    lines = text.split("\n")
    assert lines[0] == "m,count,bigstep_better,greedy_better,equal"
    assert lines[1] == "10,5,2,1,2"
    assert lines[2] == "12,5,0,0,5"
    assert text.endswith("\n")


def test_emit_table_empty_rows_is_header_only():
    assert emit_table([], "csv") == "m,count,bigstep_better,greedy_better,equal\n"
    markdown = emit_table([], "markdown")
    assert markdown.count("\n") == 2  # header + separator, nothing else


def test_emit_table_rejects_mixed_rows():
    mixed_q = _rows()
    mixed_q[1] = ComparisonRow(m=12, q=0.4, count=5, bigstep_better=0, greedy_better=0, equal=5, p=2)
    with pytest.raises(ValueError):
        emit_table(mixed_q, "markdown")
    mixed_p = _rows()
    mixed_p[1] = ComparisonRow(m=12, q=0.3, count=5, bigstep_better=0, greedy_better=0, equal=5, p=3)
    with pytest.raises(ValueError):
        emit_table(mixed_p, "csv")


def test_emit_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_table(_rows(), "tsv")


def test_default_table_format_is_markdown():
    assert emit_table(_rows()) == MARKDOWN_EXPECTED
