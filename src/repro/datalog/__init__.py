"""The Datalog substrate: language, storage, and bottom-up evaluation.

This subpackage is everything the paper's algorithms stand on: terms,
atoms, rules, and programs (:mod:`terms`, :mod:`atoms`, :mod:`rules`,
:mod:`programs`); a Prolog-flavoured parser (:mod:`parser`); tuple
storage with lazy hash indexes (:mod:`database`); join evaluation
(:mod:`joins`); naive and semi-naive fixpoint evaluation (:mod:`naive`,
:mod:`seminaive`); conjunctive-query containment (:mod:`conjunctive`);
Procedure Expand (:mod:`expansion`); and rule rectification
(:mod:`rectify`).
"""

from .atoms import Atom, atom, connected_components, shared_variables
from .conjunctive import (
    ConjunctiveQuery,
    containment_mapping,
    equivalent,
    is_contained_in,
)
from .database import Database, Relation
from .errors import (
    ArityError,
    BudgetExceeded,
    CyclicDataError,
    DatalogSyntaxError,
    EvaluationError,
    NotFullSelectionError,
    NotLinearError,
    NotSeparableError,
    ReproError,
    SafetyError,
    UnknownPredicateError,
)
from .expansion import ExpansionString, expand, expansion_strings
from .joins import EQ, evaluate_body_into, instantiate_args
from .naive import naive_evaluate
from .parser import (
    ParsedProgram,
    parse_atom,
    parse_program,
    parse_query,
    parse_rule,
)
from .pretty import answers_to_text, database_to_text, program_to_text
from .programs import Definition, Program
from .rectify import rectify_definition, rectify_program, rectify_rule
from .rules import Rule, rule
from .seminaive import seminaive_evaluate
from .terms import Constant, Term, Variable, make_term
from .unify import match_atom, unify_atoms

__all__ = [
    "Atom",
    "atom",
    "connected_components",
    "shared_variables",
    "ConjunctiveQuery",
    "containment_mapping",
    "equivalent",
    "is_contained_in",
    "Database",
    "Relation",
    "ArityError",
    "BudgetExceeded",
    "CyclicDataError",
    "DatalogSyntaxError",
    "EvaluationError",
    "NotFullSelectionError",
    "NotLinearError",
    "NotSeparableError",
    "ReproError",
    "SafetyError",
    "UnknownPredicateError",
    "ExpansionString",
    "expand",
    "expansion_strings",
    "EQ",
    "evaluate_body_into",
    "instantiate_args",
    "naive_evaluate",
    "ParsedProgram",
    "parse_atom",
    "parse_program",
    "parse_query",
    "parse_rule",
    "answers_to_text",
    "database_to_text",
    "program_to_text",
    "Definition",
    "Program",
    "rectify_definition",
    "rectify_program",
    "rectify_rule",
    "Rule",
    "rule",
    "seminaive_evaluate",
    "Constant",
    "Term",
    "Variable",
    "make_term",
    "match_atom",
    "unify_atoms",
]
