"""Partial selections and the Lemma 2.1 rewrite, on Example 2.4.

The paper's ternary recursion has a two-column equivalence class, so
the query ``t(c, Y, Z)?`` binds only *part* of class e_1 and is not a
full selection.  Lemma 2.1 rewrites the recursion into ``t_full`` and
``t_part`` so that sideways information passing turns the query into a
union of full selections.  This example prints the explicit rewrite,
the compiled plans for both halves -- the ``t_full`` union runs as one
fixpoint that keeps a carry and a seen per seed -- and verifies the
answers against semi-naive materialization.

Run:  python examples/partial_selections.py
"""

from repro import Database, parse_program, seminaive_evaluate
from repro.core import (
    classify_selection,
    compile_plan,
    compile_selection,
    evaluate_separable,
    require_separable,
)
from repro.core.rewrite import choose_rewrite_class, rewrite_partial_selection
from repro.datalog.parser import parse_atom

PROGRAM = """
% Example 2.4 of the paper.
t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).
t(X, Y, Z) :- t(X, Y, W) & b(W, Z).
t(X, Y, Z) :- t0(X, Y, Z).
"""

DATABASE = {
    "a": [
        ("c", "d", "e", "f"),
        ("e", "f", "g", "h"),
        ("c", "x", "e", "f"),
        ("g", "h", "c", "d"),  # a cycle through class e_1
    ],
    "b": [("p", "q"), ("q", "r"), ("z", "p")],
    "t0": [("g", "h", "p"), ("e", "f", "z"), ("c", "d", "z")],
}


def main() -> None:
    program = parse_program(PROGRAM).program
    db = Database.from_facts(DATABASE)
    analysis = require_separable(program, "t")

    query = parse_atom("t(c, Y, Z)")
    selection = classify_selection(analysis, query)
    print(f"query {query}? is a full selection: {selection.is_full}")
    print(
        "bound columns:",
        sorted(p + 1 for p in selection.bound),
        "| class e_1 columns:",
        [p + 1 for p in analysis.classes[0].positions],
    )

    # The explicit Lemma 2.1 program.
    cls = choose_rewrite_class(analysis, set(selection.bound))
    rewritten = rewrite_partial_selection(analysis, cls)
    print("\n=== Lemma 2.1 rewrite (t_full / t_part) ===")
    print(rewritten)

    # The two compiled plans the evaluation actually uses.  The seeds
    # the sideways pass finds run together through the one-seed plan,
    # each with its own carry and seen, in lockstep rounds.
    print("\n=== plan for the t_full half (every seed, one fixpoint) ===")
    print(compile_plan(analysis, selected_class=cls).describe())

    from repro.core.rewrite import program_without_class

    part_analysis = require_separable(
        program_without_class(analysis, cls), "t"
    )
    part_selection = classify_selection(part_analysis, query)
    print("\n=== plan for the t_part half (selection now persistent) ===")
    print(compile_selection(part_selection).describe())

    # Evaluate and verify.
    answers = evaluate_separable(program, db, query, analysis=analysis)
    oracle = {
        fact
        for fact in seminaive_evaluate(program, db).tuples("t")
        if fact[0] == "c"
    }
    print("\n=== answers ===")
    for fact in sorted(answers):
        print(f"  t{fact}")
    print(f"\nmatches semi-naive materialization: {set(answers) == oracle}")


if __name__ == "__main__":
    main()
