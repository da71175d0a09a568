"""Command-line front end.

    shisat sat FILE [--dot PATH] [--model] [--oracle K] [--stats]
                    [--strategy dfs|fifo]
    shisat instance FILE IND CONCEPT
    shisat consistent FILE CONCEPT

Exit codes: 0 for SAT/true, 1 for UNSAT/false, 2 for usage, parse, or
input errors, for internal errors, and for a verdict its own cross-check
contradicts: a witness that fails `check_model`, or an `--oracle` model of
a knowledge base the engine called UNSAT.

    python -m shisat ...    # the same command, without the entry point
"""
from __future__ import annotations

import argparse
import sys

from .engine import Verdict, decide_sat
from .graph import STATE, TableauGraph
from .kbparse import ParseError, parse_concept_text, parse_kb
from .models import Interpretation, build_witness, check_model
from .oracle import SearchBudgetExceeded, bounded_model_search
from .syntax import KnowledgeBase, build_kb, formula_text, ordered


def _query(kb: KnowledgeBase, abox) -> KnowledgeBase:
    """The role box and terminology of `kb` over the ABox `abox`."""
    return build_kb(kb.store, kb.role_subsumptions, kb.transitive_roles, kb.tbox_axioms, abox)


def check_instance(kb: KnowledgeBase, ind: str, concept) -> bool:
    """Is `ind` an instance of `concept` in every model of `kb`?

    Decided by refuting the complemented assertion.
    """
    if ind not in kb.individuals:
        raise ValueError(f"unknown individual {ind!r}")
    extra = kb.store.inst(ind, kb.store.negate(concept))
    return not decide_sat(_query(kb, list(kb.abox) + [extra])).sat


def check_concept_consistency(kb: KnowledgeBase, concept) -> bool:
    """Can `concept` be non-empty given the role and terminology axioms?
    The query replaces the ABox with one assertion of `concept`, so its
    individual meets no assertion of `kb`."""
    return decide_sat(_query(kb, [kb.store.inst("q0", concept)])).sat


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: TableauGraph) -> str:
    """Render the and-or graph: one box per node (id, expanding rule,
    status, label formulas); states get a doubled border."""
    lines = ["digraph tableau {", "  node [shape=box];"]
    for node in graph.nodes:
        parts = [f"({node.id}) {node.rule or '-'}", node.status]
        parts.extend(formula_text(f) for f in ordered(node.label))
        label = "\\n".join(_dot_escape(p) for p in parts)  # escape, then join with DOT's line break
        extra = ", peripheries=2" if node.node_type == STATE else ""
        lines.append(f'  n{node.id} [label="{label}"{extra}];')
    for node in graph.nodes:
        for w in node.succs:
            lines.append(f"  n{node.id} -> n{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_witness(interp: Interpretation) -> str:
    lines = ["domain: " + " ".join(str(e) for e in interp.domain)]
    lines.append(
        "individuals: " + " ".join(f"{a}={interp.individuals[a]}" for a in sorted(interp.individuals))
    )
    for name in sorted(interp.atoms):
        members = " ".join(str(e) for e in sorted(interp.atoms[name], key=str))
        lines.append(f"atom {name}: {members}")
    for name in sorted(interp.roles):
        pairs = " ".join(f"({a},{b})" for a, b in sorted(interp.roles[name], key=str))
        lines.append(f"role {name}: {pairs}")
    return "\n".join(lines) + "\n"


def _print_stats(verdict: Verdict) -> None:
    stats = verdict.stats
    print(f"nodes: {stats['nodes']}")
    print(f"states: {stats['states']}")
    print("rule applications:")
    for tag in sorted(stats["rule_applications"]):
        print(f"  {tag}: {stats['rule_applications'][tag]}")


def _cmd_sat(args) -> int:
    kb = parse_kb(_read(args.file))
    verdict = decide_sat(kb, strategy=args.strategy)
    print("SAT" if verdict.sat else "UNSAT")
    if args.stats:
        _print_stats(verdict)
    if args.model and verdict.sat:
        witness = build_witness(verdict.graph, kb, verdict.engine.idx)
        if not check_model(witness, kb):
            print("error: the extracted witness is not a model of the knowledge base", file=sys.stderr)
            return 2
        print(format_witness(witness), end="")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(verdict.graph))
    if args.oracle is not None:
        try:
            found = bounded_model_search(kb, args.oracle)
        except SearchBudgetExceeded:
            print("oracle: no answer within the search budget")
            return 0 if verdict.sat else 1
        if found is None:
            print(f"oracle: no model with at most {args.oracle} elements")
        else:
            print(f"oracle: found a model of size {len(found.domain)}")
        if not verdict.sat and found is not None:
            print("error: oracle disagrees with the UNSAT verdict", file=sys.stderr)
            return 2
    return 0 if verdict.sat else 1


def _cmd_check(args) -> int:
    """`instance` and `consistent`: print the answer, exit 0 if true, 1 if false."""
    kb = parse_kb(_read(args.file))
    concept = parse_concept_text(args.concept, kb.store)
    if args.command == "instance":
        result = check_instance(kb, args.individual, concept)
    else:
        result = check_concept_consistency(kb, concept)
    print("true" if result else "false")
    return 0 if result else 1


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _domain_bound(text: str) -> int:
    bound = int(text)
    if bound < 1:
        raise argparse.ArgumentTypeError(f"domain bound must be at least 1, got {bound}")
    return bound


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shisat", description="SHI knowledge base satisfiability checker"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sat = sub.add_parser("sat", help="decide satisfiability of a knowledge base")
    sat.add_argument("file")
    sat.add_argument("--dot", metavar="PATH", help="write the search graph in DOT form")
    sat.add_argument("--model", action="store_true", help="print a witness model when SAT")
    sat.add_argument("--oracle", type=_domain_bound, metavar="K",
                     help="cross-check with bounded search up to K >= 1 elements")
    sat.add_argument("--stats", action="store_true", help="print node and rule statistics")
    sat.add_argument("--strategy", choices=("dfs", "fifo"), default="dfs")
    sat.set_defaults(run=_cmd_sat)

    inst = sub.add_parser("instance", help="check whether IND is an instance of CONCEPT")
    inst.add_argument("file")
    inst.add_argument("individual")
    inst.add_argument("concept")
    inst.set_defaults(run=_cmd_check)

    cons = sub.add_parser("consistent", help="check concept consistency w.r.t. the axioms")
    cons.add_argument("file")
    cons.add_argument("concept")
    cons.set_defaults(run=_cmd_check)
    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never let a crash read as a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
