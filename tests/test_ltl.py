"""Tests for the LTL module: parsing, lasso semantics, and the tableau
translation to Buchi automata."""

import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genplan import ltl as L
from genplan.errors import AlphabetMismatchError, LtlParseError, UnknownLetterError
from genplan.ltl import (
    TRUE,
    And,
    Letter,
    Next,
    Until,
    Word,
    eval_lasso,
    eventually,
    always,
    implies,
    lnot,
    lor,
    ltl_to_nba,
    parse_ltl,
    pretty,
)

from .helpers import nba_accepts_lasso, rand_formula, rand_word, reference_nba, reference_trim

SIGMA = {"Inc", "Dec", "X=0", "X>0"}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def test_parse_constraint_formula():
    """The running example parses with implication at lowest precedence."""
    f = parse_ltl('F G ! Inc & G F Dec -> G F "X=0"', SIGMA)
    expected = implies(
        And(
            eventually(always(lnot(Letter("Inc")))),
            always(eventually(Letter("Dec"))),
        ),
        always(eventually(Letter("X=0"))),
    )
    assert f == expected


def test_parse_true():
    assert parse_ltl("true", SIGMA) == TRUE


def test_parse_until_right_nested():
    f = parse_ltl("a U (b U c)", {"a", "b", "c"})
    assert f == Until(Letter("a"), Until(Letter("b"), Letter("c")))
    # and U is right-associative without parentheses
    assert parse_ltl("a U b U c", {"a", "b", "c"}) == f


def test_parse_precedence():
    f = parse_ltl("! a & b | c -> X d", {"a", "b", "c", "d"})
    expected = implies(
        lor(And(lnot(Letter("a")), Letter("b")), Letter("c")), Next(Letter("d"))
    )
    assert f == expected


def test_parse_error_position():
    with pytest.raises(LtlParseError):
        parse_ltl("a U ", {"a"})
    with pytest.raises(LtlParseError):
        parse_ltl("(a", {"a"})


def test_unknown_letter():
    with pytest.raises(UnknownLetterError):
        parse_ltl("a & z", {"a"})


def test_quoted_letters():
    f = parse_ltl('"X=0" U "X>0"', SIGMA)
    assert f == Until(Letter("X=0"), Letter("X>0"))


def test_formula_size():
    f = parse_ltl("a U b", {"a", "b"})
    assert f.size == 3
    assert TRUE.size == 1


def test_nesting_limit():
    """Nesting up to MAX_NESTING, in the text or in the syntax tree, parses,
    translates and survives the recursive formula functions; one level more
    is a parse error, not a RecursionError."""
    n = L.MAX_NESTING

    def parens(k):
        return "(" * k + "a" + ")" * k

    def chain(k):  # a left-deep conjunction: a syntax tree of height k
        return " & ".join(["a"] * k)

    for text in (parens(n), chain(n)):
        f = parse_ltl(text, {"a", "b"})
        assert parse_ltl(pretty(f)) == f
        assert len(L.subformulas(f)) <= f.size
        hash(f)
        nba = ltl_to_nba(f, {"a", "b"})
        assert nba_accepts_lasso(nba, Word((), ("a",)))
        assert not nba_accepts_lasso(nba, Word((), ("b", "a")))
    for text in (parens(n + 1), chain(n + 1), "X " * n + "a", "a U " * n + "a"):
        with pytest.raises(LtlParseError, match="nested deeper"):
            parse_ltl(text)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**30))
def test_pretty_roundtrip(seed):
    """The printer and parser are mutually inverse on the AST."""
    rng = random.Random(seed)
    letters = ["a", "b", "X=0"]
    f = rand_formula(rng, 4, letters)
    assert parse_ltl(pretty(f), set(letters)) == f


# ---------------------------------------------------------------------------
# Semantics on lassos: one test per inductive clause
# ---------------------------------------------------------------------------

AB = {"a", "b"}


def test_semantics_true():
    assert eval_lasso(TRUE, Word((), ("a",)), AB)


def test_semantics_letter():
    """A letter holds iff it is the symbol at the first position."""
    assert eval_lasso(Letter("a"), Word(("a",), ("b",)), AB)
    assert not eval_lasso(Letter("a"), Word(("b",), ("a",)), AB)


def test_semantics_and():
    f = And(Letter("a"), lnot(Letter("b")))
    assert eval_lasso(f, Word(("a",), ("b",)), AB)
    assert not eval_lasso(f, Word(("b",), ("b",)), AB)


def test_semantics_not():
    assert eval_lasso(lnot(Letter("a")), Word(("b",), ("a",)), AB)
    assert not eval_lasso(lnot(Letter("a")), Word(("a",), ("a",)), AB)


def test_semantics_next():
    f = Next(Letter("b"))
    assert eval_lasso(f, Word(("a", "b"), ("a",)), AB)
    assert not eval_lasso(f, Word(("a", "a"), ("b",)), AB)
    # wraparound: at the last cycle position, next is the cycle start
    assert eval_lasso(Next(Letter("a")), Word((), ("a",)), AB)


def test_semantics_until():
    f = Until(Letter("a"), Letter("b"))
    assert eval_lasso(f, Word(("a", "a", "b"), ("a",)), AB)
    assert not eval_lasso(f, Word(("a", "a"), ("a",)), AB)  # b never arrives
    assert eval_lasso(f, Word(("b",), ("a",)), AB)  # j = 0 allowed
    # the a-chain must be unbroken
    assert not eval_lasso(f, Word(("a", "b2", "b"), ("a",)), {"a", "b", "b2"})


def test_until_least_fixpoint_on_cycle():
    """F b is false on a pure a-loop even though the loop is consistent with
    carrying the obligation forever."""
    assert not eval_lasso(eventually(Letter("b")), Word((), ("a",)), AB)
    assert eval_lasso(eventually(Letter("b")), Word((), ("a", "b")), AB)


def test_spec_examples():
    psi = parse_ltl('F G ! Inc & G F Dec -> G F "X=0"', SIGMA)
    # unfair decrement loop: antecedent holds, consequent fails
    assert not eval_lasso(psi, Word((), ("X>0", "Dec")), SIGMA)
    # prefix reaching zero then looping on zero
    w = Word(("X>0", "Dec"), ("X=0", "Dec"))
    assert eval_lasso(eventually(Letter("X=0")), w, SIGMA)
    # no decrement at all
    assert not eval_lasso(always(eventually(Letter("Dec"))), Word((), ("X>0", "Inc")), SIGMA)
    # increment loop: the antecedent fails, so the constraint holds
    assert eval_lasso(psi, Word((), ("X>0", "Inc")), SIGMA)


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        eval_lasso(TRUE, Word((), ("z",)), AB)


# ---------------------------------------------------------------------------
# Tableau NBA
# ---------------------------------------------------------------------------


def test_nba_eventually_goal():
    nba = ltl_to_nba(eventually(Letter("goal")), {"goal", "other"})
    assert len(nba.states) <= 4
    assert nba_accepts_lasso(nba, Word(("other", "other"), ("goal",)))
    assert nba_accepts_lasso(nba, Word(("goal",), ("other",)))
    assert not nba_accepts_lasso(nba, Word((), ("other",)))


def test_nba_true_universal():
    nba = ltl_to_nba(TRUE, {"a", "b"})
    assert len(nba.states) == 1
    for cycle in itertools.product("ab", repeat=2):
        assert nba_accepts_lasso(nba, Word((), cycle))


def test_nba_empty_language():
    nba = ltl_to_nba(L.FALSE, {"a", "b"})
    assert len(nba.states) == 0
    assert not nba_accepts_lasso(nba, Word((), ("a",)))


def test_nba_exhaustive_small():
    """NBA membership matches the semantic oracle on every lasso up to
    3+3 over a two-letter alphabet, for a basket of formulas."""
    a, b = Letter("a"), Letter("b")
    formulas = [
        eventually(a),
        always(a),
        Until(a, b),
        lnot(Until(a, b)),
        eventually(always(a)),
        always(eventually(a)),
        Next(And(a, Next(b))),
        implies(always(eventually(a)), always(eventually(b))),
    ]
    for f in formulas:
        nba = ltl_to_nba(f, AB)
        for pl in range(4):
            for prefix in itertools.product("ab", repeat=pl):
                for cl in range(1, 4):
                    for cycle in itertools.product("ab", repeat=cl):
                        w = Word(prefix, cycle)
                        assert nba_accepts_lasso(nba, w) == eval_lasso(f, w, AB), (
                            f"{pretty(f)} on {w}"
                        )


def test_nba_sampling_agreement():
    """Oracle agreement on random formulas and lassos (the larger sweep runs
    in the acceptance suite)."""
    rng = random.Random(7)
    letters = ["a", "b", "c"]
    for _ in range(60):
        f = rand_formula(rng, 4, letters)
        nba = ltl_to_nba(f, set(letters))
        for _ in range(25):
            w = rand_word(rng, letters)
            assert nba_accepts_lasso(nba, w) == eval_lasso(f, w, set(letters))


def test_nba_negation_duality():
    rng = random.Random(11)
    letters = ["a", "b"]
    for _ in range(40):
        f = rand_formula(rng, 3, letters)
        pos = ltl_to_nba(f, AB)
        neg = ltl_to_nba(lnot(f), AB)
        for _ in range(20):
            w = rand_word(rng, letters, 4, 4)
            assert nba_accepts_lasso(pos, w) != nba_accepts_lasso(neg, w)


def test_nba_budget():
    from genplan.errors import SizeBudgetExceededError

    f = parse_ltl("G F a & F G b & G F c", {"a", "b", "c"})
    with pytest.raises(SizeBudgetExceededError):
        ltl_to_nba(f, {"a", "b", "c"}, budget=2)


def test_tableau_budget_is_checked_while_enumerating():
    """X^20 a has 2^21 atoms; the budget stops the enumeration at the first
    atom past it instead of after building them all."""
    from genplan.errors import SizeBudgetExceededError

    f = parse_ltl("X " * 20 + "a")
    start = time.perf_counter()
    with pytest.raises(SizeBudgetExceededError, match="tableau .* budget 1000"):
        ltl_to_nba(f, {"a", "b"}, budget=1000)
    assert time.perf_counter() - start < 1.0


def test_nba_numbering_ignores_hash_seed():
    """The same formula and alphabet give the same NBA under any string
    hash seed."""
    code = (
        "from genplan.ltl import ltl_to_nba, parse_ltl\n"
        "n = ltl_to_nba(parse_ltl('F d & c U b'), {'a', 'b', 'c', 'd'})\n"
        "print(n.states, sorted(n.transitions.items()), sorted(n.initial), sorted(n.accepting))"
    )
    src = os.path.dirname(os.path.dirname(L.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]


# formulas over a and b in which true and false are frequent leaves
formulas = st.recursive(
    st.sampled_from([TRUE, L.FALSE, Letter("a"), Letter("b")]),
    lambda sub: st.one_of(
        st.builds(lnot, sub),
        st.builds(Next, sub),
        st.builds(And, sub, sub),
        st.builds(lor, sub, sub),
        st.builds(Until, sub, sub),
        st.builds(eventually, sub),
        st.builds(always, sub),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    formulas,
    st.lists(st.sampled_from("ab"), max_size=4),
    st.lists(st.sampled_from("ab"), min_size=1, max_size=4),
)
def test_constant_agrees_with_the_semantics(f, prefix, cycle):
    """Every subformula that constant folding decides has that truth value
    on the word, by the semantic oracle."""
    w = Word(tuple(prefix), tuple(cycle))
    for g in L.subformulas(f):
        value = L.constant(g)
        if value is not None:
            assert eval_lasso(g, w, AB) == value, pretty(g)


def _nba_parts(nba):
    return nba.states, nba.transitions, nba.initial, nba.accepting


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_nba_equals_the_reference_construction(f):
    """The one-prune trim gives the round-based trim's NBA on every
    untrimmed construction, and ltl_to_nba, which skips disjuncts that
    fold to false, gives the NBA of the construction that keeps them."""
    raw = L._nba_for(f, frozenset(AB), L.DEFAULT_BUDGET)
    assert _nba_parts(L.trim_nba(raw)) == _nba_parts(reference_trim(raw)), pretty(f)
    assert _nba_parts(ltl_to_nba(f, AB)) == _nba_parts(reference_nba(f, AB)), pretty(f)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30), st.integers(20, 80))
def test_nba_wide_alphabet(seed, width):
    """Formulas over three letters read over 20-80 symbols: the symbols the
    formula does not mention share the "no closure letter" atoms, and
    lassos that use them must still agree with the oracle."""
    rng = random.Random(seed)
    letters = ["a", "b", "c"]
    outside = [f"z{k}" for k in range(width - len(letters))]
    alphabet = set(letters) | set(outside)
    f = rand_formula(rng, rng.randint(1, 4), letters)
    nba = ltl_to_nba(f, alphabet)
    for _ in range(20):
        w = rand_word(rng, letters + rng.sample(outside, 3), 4, 4)
        assert nba_accepts_lasso(nba, w) == eval_lasso(f, w, alphabet), f"{pretty(f)} on {w}"
