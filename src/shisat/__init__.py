"""shisat: satisfiability of SHI description-logic knowledge bases.

A tableau-based decision procedure over rooted and-or graphs with global
state caching, plus witness-model extraction, a semantic model checker,
a bounded model-search oracle for differential testing, and a small CLI.
"""

from .cli import check_concept_consistency, check_instance, export_dot, run_cli
from .engine import TableauEngine, Verdict, decide_sat
from .kbparse import ParseError, format_kb, parse_concept_text, parse_kb
from .models import (
    Interpretation,
    ModelGraph,
    build_witness,
    check_model,
    complete_relations,
    eval_concept,
    extract_model_graph,
    saturation_path,
)
from .oracle import SearchBudgetExceeded, bounded_model_search
from .rbox import RBoxIndex, build_ext, kb_index
from .syntax import (
    Concept,
    FormulaStore,
    KnowledgeBase,
    Role,
    build_kb,
    closure,
    complement,
    internalize_tbox,
)

__version__ = "0.1.0"

__all__ = [
    "Concept",
    "FormulaStore",
    "Interpretation",
    "KnowledgeBase",
    "ModelGraph",
    "ParseError",
    "RBoxIndex",
    "Role",
    "SearchBudgetExceeded",
    "TableauEngine",
    "Verdict",
    "bounded_model_search",
    "build_kb",
    "build_ext",
    "build_witness",
    "check_concept_consistency",
    "check_instance",
    "check_model",
    "closure",
    "complement",
    "complete_relations",
    "decide_sat",
    "eval_concept",
    "export_dot",
    "extract_model_graph",
    "format_kb",
    "internalize_tbox",
    "kb_index",
    "parse_concept_text",
    "parse_kb",
    "run_cli",
    "saturation_path",
]
