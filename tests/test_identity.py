"""tools/identity.py: the gate a behaviour-preserving refactor is checked by."""
from __future__ import annotations

import importlib.util
import pickle
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

CASES = [
    ("sat/dfs", "inst a (some r A)\n", "dfs"),  # SAT, with a two-element witness
    ("unsat/dfs", "inst a (and A (not A))\n", "dfs"),
    ("broken/dfs", "inst a (and A)\n", "dfs"),  # does not parse, so `_record` raises
]


@pytest.fixture
def dumps(tmp_path, monkeypatch, capsys):
    """Two dumps of `CASES`, with the dump messages read off."""
    monkeypatch.setattr(identity, "_corpus", lambda: CASES)
    paths = [tmp_path / "a.pkl", tmp_path / "b.pkl"]
    for path in paths:
        identity.dump(str(path))
    capsys.readouterr()
    return paths


def _write(path, runs: dict) -> None:
    """`runs` as a dump: one (name, record) pickle per run."""
    with open(path, "wb") as fh:
        for item in runs.items():
            pickle.dump(item, fh)


def _differing(out: str) -> dict:
    """Field -> the number of runs `compare` reports differing on it."""
    return {line.split(":")[0]: int(line.split()[1]) for line in out.splitlines()}


def test_two_dumps_of_one_tree_agree_on_every_field(dumps, capsys):
    a, b = dumps
    assert identity.compare(str(a), str(b)) == 0
    assert _differing(capsys.readouterr().out) == {field: 0 for field in identity.FIELDS}
    assert len(identity.FIELDS) == 11
    runs = dict(identity.runs(str(a)))
    assert list(runs) == [name for name, *_ in CASES]
    assert runs["sat/dfs"]["verdict"] is True and len(runs["sat/dfs"]["witness"][0]) == 2
    assert runs["unsat/dfs"]["verdict"] is False and runs["unsat/dfs"]["witness"] is None
    broken = runs["broken/dfs"]
    assert broken.keys() == set(identity.FIELDS)
    assert all(value.startswith("error: ParseError: ") for value in broken.values())


def test_an_edited_node_list_is_counted_on_that_field_alone(dumps, tmp_path, capsys):
    a, _ = dumps
    runs = dict(identity.runs(str(a)))
    runs["sat/dfs"]["nodes"] = runs["sat/dfs"]["nodes"][:-1]
    edited = tmp_path / "edited.pkl"
    _write(edited, runs)
    assert identity.compare(str(a), str(edited)) == 1
    counts = _differing(capsys.readouterr().out)
    assert counts == {field: int(field == "nodes") for field in identity.FIELDS}


def test_compare_names_ten_differing_runs_and_counts_the_rest(tmp_path, capsys):
    left = {f"run/{i}": {field: 0 for field in identity.FIELDS} for i in range(12)}
    right = {name: {**record, "trace": 1} for name, record in left.items()}
    paths = [tmp_path / "a.pkl", tmp_path / "b.pkl"]
    for path, runs in zip(paths, (left, right)):
        _write(path, runs)
    assert identity.compare(*map(str, paths)) == 1
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    named = ", ".join(f"run/{i}" for i in range(10))
    assert lines["trace"] == f"trace: 12 of 12 runs differ: {named} and 2 more"
    assert lines["verdict"] == "verdict: 0 of 12 runs differ"


@pytest.mark.parametrize("cut", [slice(None, -1), slice(1, None)], ids=["one run short", "first run missing"])
def test_dumps_whose_run_names_part_are_not_compared(dumps, tmp_path, capsys, cut):
    a, _ = dumps
    runs = dict(list(identity.runs(str(a)))[cut])
    other = tmp_path / "other.pkl"
    _write(other, runs)
    assert identity.compare(str(a), str(other)) == 1
    out = capsys.readouterr().out
    assert out.startswith("run names part at run ") and "differ" not in out
