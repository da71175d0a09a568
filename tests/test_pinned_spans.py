"""The names `bench/tracing.py` wraps still exist, and the transfer span
counts every transfer the engine makes, once."""
from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from tracing import INNER_SPANS, Tracer, traced_layers  # noqa: E402

from shisat import decide_sat, engine, parse_kb, rbox  # noqa: E402

from helpers import EX1_TEXT  # noqa: E402

# Retired engine names the benchmark still wraps; the engine keeps them as None.
RETIRED = ("transfer_assertions", "transfer_assertions_from")


def test_every_inner_span_wraps_a_name_that_resolves():
    for owner, attr, name in INNER_SPANS:
        value = getattr(owner, attr)
        if owner is engine and attr in RETIRED:
            assert value is None, f"{attr} is retired and kept as None"
        else:
            assert callable(value), f"span {name} wraps {owner.__name__}.{attr}, which is not callable"


def _engine_transfers(text) -> int:
    """The calls the engine's own code makes to the transfer operators in
    a plain decision of `text`, wherever it looks them up."""
    codes = {rbox.transfer_concepts.__code__, rbox.transfer_concepts_to.__code__}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes and frame.f_back.f_globals is vars(engine):
            calls += 1

    kb = parse_kb(text)
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        decide_sat(kb)
    finally:
        sys.setprofile(outer)
    return calls


def test_the_transfer_span_counts_each_transfer_the_engine_makes(monkeypatch):
    made = _engine_transfers(EX1_TEXT)
    assert made > 0

    tracer = Tracer()
    with traced_layers(tracer):
        decide_sat(parse_kb(EX1_TEXT))
    assert tracer.calls["transfer"] == made

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for attr in ("transfer_concepts", "transfer_concepts_to"):
        monkeypatch.setattr(engine, attr, counted(getattr(engine, attr)))
    decide_sat(parse_kb(EX1_TEXT))
    assert len(calls) == made
