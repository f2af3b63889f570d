import pathlib
import runpy
import subprocess
import sys

import pytest

from scpkit import GeneratorConfig, generate_instance, serialize_instance
from scpkit.cli import cli_main

from helpers import ag_instance

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.fixture
def example1_file(tmp_path, example1):
    path = tmp_path / "example1.scp"
    path.write_text(serialize_instance(example1))
    return str(path)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_bigstep(capsys, example1_file):
    code, out, _ = run_cli(capsys, "solve", "--algo", "bigstep", "--p", "2", "--input", example1_file)
    assert code == 0
    assert out == "size 2\nindices 1 2\n"


def test_solve_greedy(capsys, example1_file):
    code, out, _ = run_cli(capsys, "solve", "--algo", "greedy", "--input", example1_file)
    assert code == 0
    assert out.startswith("size 3\n")
    assert "indices 0 3 2" in out


def test_solve_exact(capsys, example1_file):
    code, out, _ = run_cli(capsys, "solve", "--algo", "exact", "--input", example1_file)
    assert code == 0
    assert out.splitlines()[0] == "size 2"


def test_solve_trace_lines(capsys, example1_file):
    code, out, _ = run_cli(
        capsys, "solve", "--algo", "greedy", "--input", example1_file, "--trace"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "step 1: add 0 newly_covered 6 candidates 5"
    assert lines[4] == "step 3: add 2 newly_covered 1 candidates 3"


def test_solve_exact_ignores_trace_flag(capsys, example1_file):
    _, with_flag, _ = run_cli(
        capsys, "solve", "--algo", "exact", "--input", example1_file, "--trace"
    )
    _, without_flag, _ = run_cli(capsys, "solve", "--algo", "exact", "--input", example1_file)
    assert with_flag == without_flag


def test_solve_missing_file_is_runtime_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--algo", "greedy", "--input", "no-such-file.scp")
    assert code == 1
    assert "scpkit: error:" in err


def test_solve_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.scp"
    bad.write_text("3 1\n2 0 5\n")
    code, _, err = run_cli(capsys, "solve", "--algo", "greedy", "--input", str(bad))
    assert code == 1
    assert "element 5 out of range at line 2" in err


def test_solve_infeasible_instance(capsys, tmp_path):
    path = tmp_path / "infeasible.scp"
    path.write_text("3 1\n1 0\n")
    code, _, err = run_cli(capsys, "solve", "--algo", "bigstep", "--input", str(path))
    assert code == 1
    assert "uncoverable elements" in err


def test_usage_errors_exit_2(capsys, tmp_path):
    assert cli_main([]) == 2
    capsys.readouterr()
    assert cli_main(["solve", "--algo", "sorcery", "--input", "x"]) == 2
    capsys.readouterr()
    assert cli_main(["bench", "--n", "10"]) == 2
    capsys.readouterr()
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()
    bench = ["bench", "--n", "10", "--q", "0.3", "--m", "4", "--count", "2", "--seed", "1"]
    for flag, value in [("--workers", "0"), ("--workers", "-1"), ("--p", "0"), ("--p", "-2")]:
        assert cli_main(bench + [flag, value]) == 2
        assert "must be a positive integer" in capsys.readouterr().err
    assert cli_main(["solve", "--algo", "bigstep", "--p", "0", "--input", "x"]) == 2
    capsys.readouterr()
    gen = ["gen", "--n", "10", "--m", "4", "--q", "0.3", "--seed", "1", "--out", str(tmp_path)]
    for value in ("0", "-2"):
        assert cli_main(gen + ["--count", value]) == 2
        assert "must be a positive integer" in capsys.readouterr().err
    assert cli_main(bench + ["--count", "-1"]) == 2
    assert "must be a non-negative integer" in capsys.readouterr().err
    for argv in (gen, bench, ["feasprob", "--n", "10", "--m", "4", "--q", "0.3"]):
        assert cli_main(argv + ["--n", "0"]) == 2
        assert "must be a positive integer" in capsys.readouterr().err
    for argv in (gen, ["feasprob", "--n", "10", "--m", "4", "--q", "0.3"]):
        for value in ("0", "-3"):
            assert cli_main(argv + ["--m", value]) == 2
            assert "must be a positive integer" in capsys.readouterr().err
    for argv in (gen, bench, ["feasprob", "--n", "10", "--m", "3", "--q", "0.3"]):
        for value in ("1.5", "-0.1", "inf", "nan", "half"):
            assert cli_main(argv + ["--q", value]) == 2
            assert "must be a probability in [0, 1]" in capsys.readouterr().err
    for argv in (gen, bench):
        for value in ("-1", str(2**64), "1.5"):
            assert cli_main(argv + ["--seed", value]) == 2
            assert "must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # gen wrote nothing before the usage errors


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0


def test_gen_writes_parseable_files(capsys, tmp_path):
    out_dir = tmp_path / "instances"
    code, out, _ = run_cli(
        capsys,
        "gen", "--n", "30", "--m", "5", "--q", "0.4", "--seed", "6", "--count", "3",
        "--out", str(out_dir),
    )
    assert code == 0
    assert "wrote 3 instances" in out
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["instance_000000.scp", "instance_000001.scp", "instance_000002.scp"]
    config = GeneratorConfig(n=30, m=5, q=0.4, seed=6)
    for i, name in enumerate(files):
        assert (out_dir / name).read_text() == serialize_instance(generate_instance(config, i))


def test_gen_raw_policy(capsys, tmp_path):
    out_dir = tmp_path / "raw"
    code, _, _ = run_cli(
        capsys,
        "gen", "--n", "30", "--m", "2", "--q", "0.05", "--seed", "6", "--count", "2",
        "--out", str(out_dir), "--policy", "raw",
    )
    assert code == 0
    assert len(list(out_dir.iterdir())) == 2


def test_bench_table_and_conservation(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench", "--n", "40", "--q", "0.3", "--m", "6,9", "--p", "2",
        "--count", "50", "--seed", "7",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| m | count | bigstep_better | greedy_better | equal |"
    for line in lines[2:]:
        cells = [int(tok) for tok in line.strip("|").split("|")]
        assert cells[2] + cells[3] + cells[4] == cells[1] == 50


def test_bench_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench", "--n", "40", "--q", "0.3", "--m", "6", "--p", "2",
        "--count", "20", "--seed", "7", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "m,count,bigstep_better,greedy_better,equal"


def test_bench_rejects_malformed_m_list(capsys):
    for m_list in ("6,nine", "6,0", ","):
        code, _, err = run_cli(
            capsys,
            "bench", "--n", "40", "--q", "0.3", "--m", m_list, "--p", "2",
            "--count", "10", "--seed", "7",
        )
        assert code == 2
        assert "comma-separated integers" in err


def test_feasprob(capsys):
    code, out, _ = run_cli(capsys, "feasprob", "--n", "100", "--m", "20", "--q", "0.3")
    assert code == 0
    assert out.strip() == "0.923279"
    code, out, _ = run_cli(capsys, "feasprob", "--n", "5", "--m", "2", "--q", "1.0")
    assert out.strip() == "1"


def test_step_too_large_to_enumerate_is_a_clean_error(tmp_path):
    # p=35 of m=70 sets is a step of C(70, 35) > 2**63 - 1 subsets.  With
    # the 70 singletons of 70 elements, no 34 sets or fewer can finish the
    # cover, so the step cannot be settled by the finisher search.
    path = tmp_path / "singletons.scp"
    path.write_text("70 70\n" + "".join(f"1 {e}\n" for e in range(70)))
    result = subprocess.run(
        [sys.executable, "-m", "scpkit", "solve", "--algo", "bigstep", "--p", "35",
         "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("scpkit: error: a step of k=35 of m=70 sets")
    assert "C(70, 35) = 112186277816662845432" in result.stderr
    assert "Traceback" not in result.stderr


def test_uncoverable_wide_universe_is_listed_in_linear_time(tmp_path):
    # One set of one element in a universe of 2,000,000: listing the
    # 1,999,999 uncoverable elements must not cost a scan of n bits each.
    path = tmp_path / "wide.scp"
    path.write_text("2000000 1\n1 5\n")
    result = subprocess.run(
        [sys.executable, "-m", "scpkit", "solve", "--algo", "greedy", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "scpkit: error: uncoverable elements: 0, 1, 2, 3, 4, 6, 7, 8, ...\n"


def test_steiner_triple_demo_file_gives_the_expected_trace(capsys, tmp_path):
    """The demo's AG(k, 3) is the tests' instance, and the AG(4, 3) file it
    writes solves at p=3 to the trace recorded beside it, which CI checks
    through the CLI too."""
    demo = runpy.run_path(str(DEMOS / "steiner_triples.py"))
    for k in (2, 3, 4):
        assert demo["ag_instance"](k) == ag_instance(k)
    path = tmp_path / "ag4.scp"
    path.write_text(serialize_instance(ag_instance(4)))
    code, out, _ = run_cli(capsys, "solve", "--algo", "bigstep", "--p", "3", "--trace", "--input", str(path))
    assert code == 0
    assert out == (DEMOS / "steiner_triples_ag4_p3.expected").read_text()


def test_module_entry_point(example1_file):
    result = subprocess.run(
        [sys.executable, "-m", "scpkit", "solve", "--algo", "greedy", "--input", example1_file],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "size 3\nindices 0 3 2\n"
