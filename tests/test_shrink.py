"""tools/shrink.py: delta debugging over statements and subterms."""
from __future__ import annotations

import pytest

import shrink
from shisat import decide_sat, parse_kb

# a:A forces an r-successor in B, and B is empty; the rest is padding.
PADDED_UNSAT = """\
sub r s
trans s
impl D (or E (all s- F))
inst b (and E (some s D))
inst a A
rel s b a
impl A (some r (and B G))
impl F (all r E)
impl B (and C (not C))
inst a (or G (not D))
"""


def _unsat(text: str) -> bool:
    return not decide_sat(parse_kb(text)).sat


def _unsat_without_constants(text: str) -> bool:
    # Without top and bot the core cannot collapse to one statement.
    return "top" not in text and "bot" not in text and _unsat(text)


@pytest.mark.parametrize("still_fails", [_unsat, _unsat_without_constants])
def test_shrunk_unsat_kb_is_one_minimal(still_fails):
    assert still_fails(PADDED_UNSAT)
    shrunk = shrink.shrink(PADDED_UNSAT, still_fails)
    statements = shrunk.splitlines()
    assert _unsat(shrunk)
    assert 0 < len(statements) < len(PADDED_UNSAT.splitlines())
    for i in range(len(statements)):
        rest = statements[:i] + statements[i + 1:]
        assert not _unsat("".join(s + "\n" for s in rest)), (shrunk, i)


def test_input_must_show_the_fault():
    with pytest.raises(ValueError):
        shrink.shrink("inst a A\n", _unsat)


@pytest.mark.parametrize(
    "args, message",
    [
        (["missing.kb"], "No such file or directory"),
        (["malformed.kb"], "(and ...) expects at least 2 arguments"),
        (["padded.kb", "-k", "0"], "domain bound must be at least 1, got 0"),
    ],
    ids=["unreadable", "malformed", "k-below-1"],
)
def test_usage_errors_exit_2_with_one_error_line(tmp_path, monkeypatch, capsys, args, message):
    """Exit 1 means the input does not show the fault, so a usage error exits 2."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "malformed.kb").write_text("inst a (and A)\n")
    (tmp_path / "padded.kb").write_text(PADDED_UNSAT)
    try:
        code = shrink.main(["unsound", *args])
    except SystemExit as exc:  # argparse rejects -k
        code = exc.code
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error: " in line]
    assert code == 2 and out == ""
    assert len(errors) == 1 and message in errors[0], err
