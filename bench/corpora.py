"""The benchmark's workloads: fixed corpora of knowledge-base texts.

Every input is text, so each run exercises the parser as `shisat sat`
does. The corpora are fixed and the seed only shuffles the order in which
a pass visits them. A suite drawn afresh per seed differs too much from
seed to seed to compare runs: over seeds 1..10 of
`differential_suite(500, seed)` the total node count ranged from 48k to
126k and the per-input tail time spread by 41% of its median.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from helpers import EX1_BASE_TEXT, EX1_TEXT, EX2_TEXT
from kbgen import chain_kb_text, differential_suite

SUITE_SEED = 20240817  # the corpus tier-1's differential check uses
SUITE_SIZE = 500
ORACLE_BOUND = 3  # `shisat sat --oracle 3`
GATE_BOUND = 2  # untimed cross-check of UNSAT verdicts on `suite`

CHAIN_DEPTHS = range(1, 61)
# Depth sweeps, dense enough that their 41 inputs give a p75 tail, and
# shallow enough that a pass takes about 3 s on the VM described in README.md.
AND_DEPTHS = (5, 7, 10, 14, 20, 28, 40, 55, 75, 100, 135, 180, 240, 320)
SOME_DEPTHS = (5, 7, 10, 14, 20, 28, 40, 55, 75, 100, 125, 160, 200)
TRANS_DEPTHS = (3, 4, 6, 8, 10, 12, 15, 18, 22, 26, 30, 35, 40, 45)
HOSTILE_DEPTH = 1200  # past the default recursion limit


@dataclass(frozen=True)
class Case:
    """One input and what the benchmark does with it.

    `expect` is the known verdict ("sat" or "unsat"), or None for random
    suite inputs. `oracle_on` names the verdict ("sat" or "unsat") after
    which the timed oracle runs, or None. `gate_bound`, when set, is the
    domain bound of the untimed oracle check of an UNSAT verdict.
    """

    name: str
    text: str
    expect: str | None = None
    oracle_on: str | None = None
    gate_bound: int | None = None


def and_nest(depth: int) -> str:
    concept = f"A{depth}"
    for i in range(depth - 1, 0, -1):
        concept = f"(and A{i} {concept})"
    return f"inst a {concept}\n"


def some_nest(depth: int, transitive: bool = False) -> str:
    concept = "A"
    for _ in range(depth):
        concept = f"(some r {concept})"
    axioms = "trans r\n" if transitive else ""
    return f"{axioms}inst a (and (all r B) {concept})\n"


def not_nest(depth: int) -> str:
    return "inst a " + "(not " * depth + "A" + ")" * depth + "\n"


def _suite(oracle_on: str, gate_bound: int | None) -> list:
    texts = differential_suite(SUITE_SIZE, SUITE_SEED)
    cases = [Case(f"suite[{i}]", t, None, oracle_on, gate_bound) for i, t in enumerate(texts)]
    instance_query = EX1_BASE_TEXT + "inst b (not (all L I))\n"  # UNSAT iff b is an (all L I)
    for name, text in (("example1", EX1_TEXT), ("example2", EX2_TEXT), ("example1.instance", instance_query)):
        cases.append(Case(name, text, "unsat", oracle_on, gate_bound))
    return cases


def suite_cases() -> list:
    # The oracle runs after SAT verdicts, where it stops at its first model.
    return _suite("sat", GATE_BOUND)


def oracle_cases() -> list:
    # Acceptance criterion 4: every UNSAT verdict is cross-checked at bound 3,
    # which the oracle can only answer by exhausting the bound.
    return _suite("unsat", None)


def chain_cases() -> list:
    return [Case(f"chain[{d}]", chain_kb_text(d), "sat", "sat") for d in CHAIN_DEPTHS]


def deep_cases() -> list:
    # The oracle backtracks one stack frame per variable, so it overflows the
    # recursion limit on conjunction nests of about 500 atoms; it is not run
    # on that family (see README.md).
    cases = [Case(f"and[{d}]", and_nest(d), "sat") for d in AND_DEPTHS]
    cases += [Case(f"some[{d}]", some_nest(d), "sat", "sat") for d in SOME_DEPTHS]
    cases += [Case(f"some.trans[{d}]", some_nest(d, True), "sat", "sat") for d in TRANS_DEPTHS]
    cases.append(Case(f"not[{HOSTILE_DEPTH}]", not_nest(HOSTILE_DEPTH), "sat", "sat"))
    return cases


WORKLOADS = {
    "suite": suite_cases,
    "chain": chain_cases,
    "deep": deep_cases,
    "oracle": oracle_cases,
}


def build(workload: str, seed: int) -> list:
    """The workload's cases in the order the seed gives."""
    cases = WORKLOADS[workload]()
    random.Random(seed).shuffle(cases)
    return cases
