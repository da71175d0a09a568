"""Command-line behaviour: verdict lines, exit codes, exports."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from shisat import run_cli
from shisat.cli import export_dot
from shisat import decide_sat, format_kb, parse_kb

from helpers import EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT, pullback_kb


@pytest.fixture
def kbfile(tmp_path):
    def write(text, name="kb.kb"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_sat_unsat_exit_codes(kbfile, capsys):
    assert run_cli(["sat", kbfile(EX1_TEXT)]) == 1
    assert capsys.readouterr().out.strip() == "UNSAT"
    assert run_cli(["sat", kbfile("inst a A\n")]) == 0
    assert capsys.readouterr().out.strip() == "SAT"


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert run_cli(["sat", str(tmp_path / "nope.kb")]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_is_reported(kbfile, capsys):
    assert run_cli(["sat", kbfile("inst a (and A)\n")]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_model_listing(kbfile, capsys):
    assert run_cli(["sat", kbfile("inst a (some r A)\n"), "--model"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("SAT")
    assert "domain: " in out
    assert "role r:" in out
    assert "individuals: a=a" in out


def test_stats_block(kbfile, capsys):
    assert run_cli(["sat", kbfile(EX2_TEXT), "--stats"]) == 1
    out = capsys.readouterr().out
    assert "nodes: " in out and "states: " in out
    assert "rule applications:" in out


def test_strategy_flag(kbfile, capsys):
    for strategy in ("dfs", "fifo"):
        assert run_cli(["sat", kbfile(EX1_TEXT), "--strategy", strategy]) == 1
        capsys.readouterr()


def test_oracle_flag(kbfile, capsys):
    assert run_cli(["sat", kbfile(EX2_TEXT), "--oracle", "2"]) == 1
    out = capsys.readouterr().out
    assert "oracle: no model with at most 2 elements" in out
    assert run_cli(["sat", kbfile("inst a A\n"), "--oracle", "2"]) == 0
    assert "oracle: found a model" in capsys.readouterr().out


def test_oracle_budget_exhaustion_keeps_the_verdict(kbfile, capsys, monkeypatch):
    from shisat import cli
    from shisat.oracle import bounded_model_search

    monkeypatch.setattr(cli, "bounded_model_search", lambda kb, k: bounded_model_search(kb, k, budget=5))
    assert run_cli(["sat", kbfile(EX2_TEXT), "--oracle", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "UNSAT\noracle: no answer within the search budget\n"
    assert captured.err == ""


# A satisfiable knowledge base (a one-element model has a0 s-related to
# itself, in A and B, and C empty) that the engine has refuted under both
# strategies: a contradicted verdict must not exit as UNSAT.
WRONG_UNSAT_TEXT = (
    "impl top (some s (all s- B))\n"
    "impl (some s- top) A\n"
    "impl (and C B) (all s- C)\n"
)


@pytest.mark.parametrize("strategy", ["dfs", "fifo"])
def test_oracle_model_of_an_unsat_verdict_never_exits_as_unsat(kbfile, capsys, strategy):
    code = run_cli(["sat", kbfile(WRONG_UNSAT_TEXT), "--oracle", "2", "--strategy", strategy])
    captured = capsys.readouterr()
    assert code != 1
    assert "oracle: found a model of size 1" in captured.out
    if code == 2:
        assert captured.out.startswith("UNSAT\n")
        assert captured.err == "error: oracle disagrees with the UNSAT verdict\n"
    else:
        assert code == 0 and captured.out.startswith("SAT\n")


def test_witness_that_fails_its_check_is_not_printed(kbfile, capsys, monkeypatch):
    from shisat import cli
    from shisat.models import Interpretation

    # a:A is asserted, but this interpretation leaves A empty
    bogus = Interpretation(domain=["a"], atoms={"A": set()}, roles={}, individuals={"a": "a"})
    monkeypatch.setattr(cli, "build_witness", lambda graph, kb, idx: bogus)
    assert run_cli(["sat", kbfile("inst a A\n"), "--model"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "SAT\n"
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_python_dash_m_runs_the_command(kbfile):
    import shisat

    env = dict(os.environ, PYTHONPATH=str(Path(shisat.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "shisat", "sat", kbfile(EX1_TEXT)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == "UNSAT\n"
    assert proc.stderr == ""


@pytest.mark.parametrize("bound", ["0", "-1", "x"])
def test_oracle_bound_below_one_is_a_usage_error(kbfile, capsys, bound):
    # Rejected before the knowledge base is read: no verdict is printed.
    assert run_cli(["sat", kbfile("inst a A\n"), "--oracle", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--oracle" in captured.err


def test_dot_export_file(kbfile, tmp_path, capsys):
    dot_path = tmp_path / "graph.dot"
    assert run_cli(["sat", kbfile(EX2_TEXT), "--dot", str(dot_path)]) == 1
    capsys.readouterr()
    text = dot_path.read_text()
    assert text.startswith("digraph tableau {")
    kb = parse_kb(EX2_TEXT)
    verdict = decide_sat(kb)
    assert text.count("[label=") == verdict.stats["nodes"]
    assert text.count("peripheries=2") == verdict.stats["states"]
    assert "->" in text


def test_dot_contains_successor_label(kbfile, tmp_path, capsys):
    dot_path = tmp_path / "graph.dot"
    run_cli(["sat", kbfile(EX1_TEXT), "--dot", str(dot_path)])
    capsys.readouterr()
    text = dot_path.read_text()
    for piece in ("(not I)", "F", "(all P F)"):
        assert piece in text


def test_instance_command(kbfile, capsys):
    path = kbfile(EX1_BASE_TEXT)
    assert run_cli(["instance", path, "b", "(all L I)"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run_cli(["instance", path, "a", "(not F)"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_instance_unknown_individual(kbfile, capsys):
    assert run_cli(["instance", kbfile("inst a A\n"), "zz", "A"]) == 2
    assert "unknown individual" in capsys.readouterr().err


def test_instance_asserted_membership(kbfile, capsys):
    path = kbfile("inst a A\n")
    assert run_cli(["instance", path, "a", "A"]) == 0
    capsys.readouterr()
    assert run_cli(["instance", path, "a", "B"]) == 1
    capsys.readouterr()


def test_consistent_command(kbfile, capsys):
    ex2_axioms = "sub r s\nsub r- s\ntrans s\nimpl top (some r (and A (all s (not A))))\n"
    assert run_cli(["consistent", kbfile(ex2_axioms + "inst a top\n"), "top"]) == 1
    capsys.readouterr()
    assert run_cli(["consistent", kbfile("inst a top\n"), "(and A (not A))"]) == 1
    capsys.readouterr()
    assert run_cli(["consistent", kbfile("inst a top\n"), "A"]) == 0
    capsys.readouterr()


def test_consistent_query_individual_is_not_the_files(kbfile, capsys):
    # The query replaces the ABox, so its individual q0 meets no assertion
    # of the file about a q0 of its own.
    assert run_cli(["consistent", kbfile("inst q0 (not A)\n"), "A"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_internal_error_is_not_a_verdict(kbfile, capsys):
    # 1200 nested negations overflow the recursive parser. The crash must
    # exit 2 with a one-line message, never 1 (UNSAT); once parsing is
    # stack-safe the input is plainly SAT.
    code = run_cli(["sat", kbfile("inst a " + "(not " * 1200 + "A" + ")" * 1200 + "\n")])
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.strip() == "SAT"
    else:
        assert code == 2
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""


def test_a_deep_converse_repair_cascade_is_decided(kbfile, capsys):
    # 340 repairs deep: a status flow that recursed once per repair exited
    # 2 here with a RecursionError.
    assert run_cli(["sat", kbfile(format_kb(pullback_kb(340))), "--model"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "SAT"


def test_usage_error_exit_code(capsys):
    assert run_cli([]) == 2
    assert run_cli(["sat"]) == 2
    capsys.readouterr()


def test_export_dot_well_formed():
    kb = parse_kb("inst a A\n")
    verdict = decide_sat(kb)
    text = export_dot(verdict.graph)
    assert text.endswith("}\n")
    for line in text.splitlines():
        if "[label=" in line:
            body = line.split("[label=", 1)[1]
            assert body.rstrip().endswith('];')
            quotes = [i for i, ch in enumerate(body) if ch == '"' and (i == 0 or body[i - 1] != "\\")]
            assert len(quotes) == 2


def test_dot_label_lines_are_graphviz_line_breaks():
    # Graphviz reads \n in a label as a line break; an escaped \\n prints literally.
    text = export_dot(decide_sat(parse_kb("inst a (and A B)\n")).graph)
    assert "\\\\n" not in text
    assert 'label="(0) and\'\\nsat\\na:(and A B)"' in text


def test_dot_export_single_refuted_root():
    kb = parse_kb("inst a A\ninst a (not A)\n")
    verdict = decide_sat(kb)
    text = export_dot(verdict.graph)
    assert text.count("[label=") == 1
    assert "->" not in text
