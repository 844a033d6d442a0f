"""Linear-time temporal logic over a finite alphabet of symbols.

Words assign exactly one alphabet symbol to each position, so a letter
formula holds iff it is the symbol at the current position.  The module
provides the concrete syntax, evaluation on ultimately periodic words
(the semantic oracle used to test every automaton in the pipeline), and
the closure-tableau translation to nondeterministic Buchi automata.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import graph
from .errors import (
    AlphabetMismatchError,
    LtlParseError,
    SizeBudgetExceededError,
    UnknownLetterError,
)

DEFAULT_BUDGET = 10**6


# ---------------------------------------------------------------------------
# Ultimately periodic words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """An ultimately periodic word: ``prefix`` followed by ``cycle`` forever."""

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("word cycle must be nonempty")
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))

    @property
    def letters(self):
        return self.prefix + self.cycle

    def symbol_set(self):
        return set(self.letters)

    def at(self, i):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    @property
    def size(self):
        """Node count of the syntax tree."""
        return 1 + sum(c.size for c in children(self))


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class Letter(Formula):
    name: str


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


TRUE = TrueF()
FALSE = Not(TRUE)


def children(f):
    if isinstance(f, (TrueF, Letter)):
        return ()
    if isinstance(f, (Not, Next)):
        return (f.operand,)
    return (f.left, f.right)


def lnot(f):
    """Negation, collapsing double negations."""
    if isinstance(f, Not):
        return f.operand
    return Not(f)


def land(*fs):
    fs = [f for f in fs if f != TRUE]
    if not fs:
        return TRUE
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def lor(*fs):
    return lnot(land(*[lnot(f) for f in fs])) if fs else FALSE


def implies(f, g):
    return lnot(And(f, lnot(g)))


def eventually(f):
    return Until(TRUE, f)


def always(f):
    return lnot(Until(TRUE, lnot(f)))


def constant(f):
    """True or False when ``f`` holds on every word or on none by folding
    its constants (``l U true`` is true, ``l U false`` false), else None."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, Not):
        value = constant(f.operand)
        return None if value is None else not value
    if isinstance(f, And):
        values = {constant(f.left), constant(f.right)}
        return False if False in values else (True if values == {True} else None)
    if isinstance(f, (Next, Until)):
        return constant(children(f)[-1])
    return None


def letters_of(f):
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Letter):
            out.add(g.name)
        stack.extend(children(g))
    return out


def subformulas(f):
    """All distinct subformulas, children before parents."""
    seen = {}

    def visit(g):
        if g in seen:
            return
        for c in children(g):
            visit(c)
        seen[g] = len(seen)

    visit(f)
    return sorted(seen, key=seen.get)


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<quoted>"[^"]*")
      | (?P<arrow>->)
      | (?P<punct>[!&|()])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)

_RESERVED = {"X", "U", "F", "G", "true", "false"}

# The deepest nesting parse_ltl accepts, counted both in the text (each
# operator operand and each parenthesis opens a level) and in the syntax
# tree (its height).  The parser recurses six frames per parenthesis, and
# Formula.size, subformulas, pretty and formula hashing one or two per
# tree level, so this keeps them all well under Python's default
# recursion limit of 1000.
MAX_NESTING = 100
_TOO_DEEP = f"formula nested deeper than {MAX_NESTING} levels"


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise LtlParseError(f"unexpected character {rest[0]!r}", position=pos)
        if m.group("quoted"):
            tokens.append(("letter", m.group("quoted")[1:-1], m.start()))
        elif m.group("arrow"):
            tokens.append(("op", "->", m.start()))
        elif m.group("punct"):
            tokens.append(("op", m.group("punct"), m.start()))
        else:
            name = m.group("ident")
            if name in _RESERVED:
                tokens.append(("kw", name, m.start()))
            else:
                tokens.append(("letter", name, m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent with precedence unary > U > & > | > ->."""

    def __init__(self, tokens, alphabet):
        self.tokens = tokens
        self.alphabet = alphabet
        self.i = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.take()
        if val != value:
            raise LtlParseError(f"expected {value!r}, found {val!r}", position=pos)

    def nested(self, parse):
        """Parse with ``parse`` one nesting level deeper."""
        self.level += 1
        if self.level > MAX_NESTING:
            raise LtlParseError(_TOO_DEEP, position=self.peek()[2])
        f = parse()
        self.level -= 1
        return f

    def parse(self):
        f = self.impl()
        kind, val, pos = self.peek()
        if kind != "end":
            raise LtlParseError(f"trailing input at {val!r}", position=pos)
        if _height(f) > MAX_NESTING:
            raise LtlParseError(_TOO_DEEP, position=0)
        return f

    def impl(self):
        left = self.disj()
        if self.peek()[1] == "->":
            self.take()
            return implies(left, self.nested(self.impl))
        return left

    def disj(self):
        out = self.conj()
        while self.peek()[1] == "|":
            self.take()
            out = lor(out, self.conj())
        return out

    def conj(self):
        out = self.until()
        while self.peek()[1] == "&":
            self.take()
            out = And(out, self.until())
        return out

    def until(self):
        left = self.unary()
        if self.peek()[0] == "kw" and self.peek()[1] == "U":
            self.take()
            return Until(left, self.nested(self.until))
        return left

    def unary(self):
        kind, val, pos = self.peek()
        if val == "!":
            self.take()
            return lnot(self.nested(self.unary))
        if kind == "kw" and val == "X":
            self.take()
            return Next(self.nested(self.unary))
        if kind == "kw" and val == "F":
            self.take()
            return eventually(self.nested(self.unary))
        if kind == "kw" and val == "G":
            self.take()
            return always(self.nested(self.unary))
        if val == "(":
            self.take()
            f = self.nested(self.impl)
            self.expect(")")
            return f
        if kind == "kw" and val == "true":
            self.take()
            return TRUE
        if kind == "kw" and val == "false":
            self.take()
            return FALSE
        if kind == "letter":
            self.take()
            if self.alphabet is not None and val not in self.alphabet:
                raise UnknownLetterError(f"letter {val!r} not in alphabet", position=pos)
            return Letter(val)
        raise LtlParseError(f"unexpected token {val!r}", position=pos)


def _height(f):
    """Height of the syntax tree, computed without recursion."""
    best, stack = 0, [(f, 1)]
    while stack:
        g, h = stack.pop()
        best = max(best, h)
        stack.extend((c, h + 1) for c in children(g))
    return best


def parse_ltl(text, alphabet=None):
    """Parse LTL text over ``alphabet``; letters are bare identifiers or
    quoted.  Nesting deeper than ``MAX_NESTING`` raises LtlParseError."""
    return _Parser(_tokenize(text), alphabet).parse()


_BARE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _letter_text(name):
    if _BARE_RE.match(name) and name not in _RESERVED:
        return name
    return f'"{name}"'


def pretty(f):
    """Render a formula; ``parse_ltl(pretty(f))`` rebuilds exactly ``f``."""
    return _pretty(f, 0)


# precedence levels: 0 impl, 1 or, 2 and, 3 until, 4 unary/atom
def _pretty(f, level):
    if f == TRUE:
        return "true"
    if f == FALSE:
        return "false"
    if isinstance(f, Letter):
        return _letter_text(f.name)
    if isinstance(f, Until) and f.left == TRUE:
        return _wrap(f"F {_pretty(f.right, 4)}", 4, level)
    if isinstance(f, Not):
        g = f.operand
        if isinstance(g, Until) and g.left == TRUE and isinstance(g.right, Not):
            return _wrap(f"G {_pretty(g.right.operand, 4)}", 4, level)
        if isinstance(g, And) and isinstance(g.left, Not) and isinstance(g.right, Not):
            # !(!a & !b) prints as a | b
            return _wrap(
                f"{_pretty(g.left.operand, 1)} | {_pretty(g.right.operand, 2)}", 1, level
            )
        if isinstance(g, And) and isinstance(g.right, Not):
            # !(a & !b) prints as a -> b
            return _wrap(f"{_pretty(g.left, 1)} -> {_pretty(g.right.operand, 0)}", 0, level)
        return _wrap(f"! {_pretty(g, 4)}", 4, level)
    if isinstance(f, Next):
        return _wrap(f"X {_pretty(f.operand, 4)}", 4, level)
    if isinstance(f, And):
        return _wrap(f"{_pretty(f.left, 2)} & {_pretty(f.right, 3)}", 2, level)
    if isinstance(f, Until):
        return _wrap(f"{_pretty(f.left, 4)} U {_pretty(f.right, 3)}", 3, level)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text, prec, level):
    return f"({text})" if prec < level else text


# ---------------------------------------------------------------------------
# Semantics on ultimately periodic words
# ---------------------------------------------------------------------------


def eval_lasso(f, w, alphabet=None):
    """Decide ``prefix . cycle^omega |= f`` by tabulating subformula truth.

    Until is a least fixpoint; on the loop it is solved exactly by a
    backward pass over two unrollings of the cycle (a minimal witness for
    U lies within one period).  This function is the semantic oracle for
    all automata in the pipeline and shares no code with them.
    """
    if alphabet is not None:
        extra = w.symbol_set() - set(alphabet)
        if extra:
            raise AlphabetMismatchError(f"word symbols outside alphabet: {sorted(extra)}")
    subs = subformulas(f)
    np, nc = len(w.prefix), len(w.cycle)
    letters = w.prefix + w.cycle
    val = {}  # sub -> list of truth values over the np + nc positions

    def nxt(i):
        return i + 1 if i + 1 < np + nc else np

    for g in subs:
        if isinstance(g, TrueF):
            val[g] = [True] * (np + nc)
        elif isinstance(g, Letter):
            val[g] = [letters[i] == g.name for i in range(np + nc)]
        elif isinstance(g, Not):
            val[g] = [not v for v in val[g.operand]]
        elif isinstance(g, And):
            val[g] = [a and b for a, b in zip(val[g.left], val[g.right])]
        elif isinstance(g, Next):
            sub = val[g.operand]
            val[g] = [sub[nxt(i)] for i in range(np + nc)]
        elif isinstance(g, Until):
            lv, rv = val[g.left], val[g.right]
            cyc = [False] * nc
            acc = False
            for k in range(2 * nc - 1, -1, -1):
                i = k % nc
                acc = rv[np + i] or (lv[np + i] and acc)
                if k < nc:
                    cyc[i] = acc
            out = [False] * np + cyc
            for i in range(np - 1, -1, -1):
                out[i] = rv[i] or (lv[i] and out[i + 1])
            val[g] = out
        else:
            raise TypeError(f"not a formula: {g!r}")
    return val[f][0]


# ---------------------------------------------------------------------------
# Nondeterministic Buchi automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Nba:
    """Nondeterministic Buchi automaton over explicit letters.

    ``transitions`` maps (state, letter) to a tuple of successor states;
    missing entries mean no move.  A run is accepting iff it visits
    ``accepting`` infinitely often.
    """

    states: tuple
    alphabet: frozenset
    transitions: dict
    initial: frozenset
    accepting: frozenset

    def successors(self, q, a):
        return self.transitions.get((q, a), ())


def _disjuncts(f):
    """Top-level disjunctive decomposition (¬(g ∧ h) = ¬g ∨ ¬h)."""
    if isinstance(f, Not) and isinstance(f.operand, And):
        yield from _disjuncts(lnot(f.operand.left))
        yield from _disjuncts(lnot(f.operand.right))
    else:
        yield f


def ltl_to_nba(f, alphabet=None, budget=DEFAULT_BUDGET):
    """Closure-tableau translation; ``L(result) = mod(f)`` over the alphabet.

    The formula is decomposed along its top-level boolean structure first:
    disjuncts become an automaton union and conjuncts a synchronized Buchi
    product, so each closure tableau stays small.  Tableau states are the
    maximally consistent closure subsets (atoms, each an int bitmask over
    the indexed subformulas) with generalized-Buchi acceptance (one set
    per Until obligation), degeneralized with a counter.  The result is
    reduced by `trim_nba` (pruning, then forward and backward bisimulation
    quotients), and its state numbering does not depend on string hashing.
    """
    if alphabet is None:
        alphabet = letters_of(f)
    alphabet = frozenset(alphabet)
    missing = letters_of(f) - alphabet
    if missing:
        raise UnknownLetterError(f"formula letters outside alphabet: {sorted(missing)}")
    return trim_nba(_nba_for(f, alphabet, budget))


def _nba_for(f, alphabet, budget):
    branches = list(_disjuncts(f))
    if len(branches) > 1:
        # a false branch adds only states that the trim after a union prunes
        branches = [g for g in branches if constant(g) is not False]
        return _union_nba([_nba_for(g, alphabet, budget) for g in branches], alphabet)
    if isinstance(f, And):
        left = trim_nba(_nba_for(f.left, alphabet, budget))
        right = trim_nba(_nba_for(f.right, alphabet, budget))
        return _product_nba(left, right, alphabet, budget)
    return _tableau_nba(f, alphabet, budget)


def _product_nba(a, b, alphabet, budget):
    """Synchronized product with a two-phase counter: accepting iff both
    components accept."""
    if not a.initial or not b.initial:
        return Nba(
            states=(), alphabet=alphabet, transitions={},
            initial=frozenset(), accepting=frozenset(),
        )
    states = []
    index = {}

    def sid(qa, qb, i):
        key = (qa, qb, i)
        if key not in index:
            if len(states) >= budget:
                raise SizeBudgetExceededError(
                    f"NBA conjunction product exceeded budget: {len(states)} states "
                    f"built, budget {budget}"
                )
            index[key] = len(states)
            states.append(key)
        return index[key]

    initial = frozenset(sid(qa, qb, 0) for qa in a.initial for qb in b.initial)
    letters = sorted(alphabet)
    transitions = {}
    queue = list(initial)
    seen = set(queue)
    while queue:
        s = queue.pop()
        qa, qb, i = states[s]
        if i == 0 and qa in a.accepting:
            i2 = 1
        elif i == 1 and qb in b.accepting:
            i2 = 0
        else:
            i2 = i
        for sym in letters:
            tgts = []
            for ra in a.successors(qa, sym):
                for rb in b.successors(qb, sym):
                    t = sid(ra, rb, i2)
                    tgts.append(t)
                    if t not in seen:
                        seen.add(t)
                        queue.append(t)
            if tgts:
                transitions[(s, sym)] = tuple(sorted(tgts))
    accepting = frozenset(
        s for s, (qa, qb, i) in enumerate(states) if i == 0 and qa in a.accepting
    )
    return Nba(
        states=tuple(range(len(states))),
        alphabet=alphabet,
        transitions=transitions,
        initial=initial,
        accepting=accepting,
    )


def _union_nba(parts, alphabet):
    states = []
    transitions = {}
    initial = set()
    accepting = set()
    for part in parts:
        offset = len(states)
        states.extend(range(offset, offset + len(part.states)))
        for (q, a), tgts in part.transitions.items():
            transitions[(q + offset, a)] = tuple(t + offset for t in tgts)
        initial.update(q + offset for q in part.initial)
        accepting.update(q + offset for q in part.accepting)
    return Nba(
        states=tuple(states),
        alphabet=alphabet,
        transitions=transitions,
        initial=frozenset(initial),
        accepting=frozenset(accepting),
    )


def _tableau_nba(f, alphabet, budget):
    """Closure tableau of ``f``: its maximally consistent atoms, explored
    from those that contain ``f``.

    Subformulas are indexed once, children before parents, and an atom is
    an int bitmask over those indices: bit i is set iff subformula i holds.
    Each letter option (one per closure letter, plus one "no closure
    letter" option that carries every other alphabet symbol) fixes the
    letter bits, and each choice of the X and U bits then fixes the
    boolean ones; the atom is kept if every Until agrees with its local
    expansion.  An explored atom's X and U obligations become one
    (must_one, must_zero) mask pair that its successors must match.
    Until obligations are generalized-Buchi sets, degeneralized with a
    counter.  The budget bounds atoms x counter values, which bounds the
    states, and is checked as each atom is enumerated.
    """
    subs = subformulas(f)
    index = {g: i for i, g in enumerate(subs)}

    def bit(g):
        return 1 << index[g]

    nexts = [(bit(g), bit(g.operand)) for g in subs if isinstance(g, Next)]
    untils = [(bit(g), bit(g.left), bit(g.right)) for g in subs if isinstance(g, Until)]
    # X bits, then U bits, in the choice counter: this order numbers the atoms
    free = [x for x, _ in nexts] + [u for u, _, _ in untils]
    # boolean subformulas in closure order, as (bit, child bits, value of
    # the child bits that makes the subformula true)
    ops = []
    for g in subs:
        if isinstance(g, Not):
            ops.append((bit(g), bit(g.operand), 0))
        elif isinstance(g, And):
            both = bit(g.left) | bit(g.right)
            ops.append((bit(g), both, both))
    top = sum(bit(g) for g in subs if isinstance(g, TrueF))
    closure = {g.name: bit(g) for g in subs if isinstance(g, Letter)}
    options = [(top | b, (name,)) for name, b in closure.items() if name in alphabet]
    other = tuple(sorted(a for a in alphabet if a not in closure))
    if other:
        options.append((top, other))
    k = max(1, len(untils))

    masks, letters = [], []
    for start, symbols in options:
        for choice in range(1 << len(free)):
            m = start
            for j, b in enumerate(free):
                if choice >> j & 1:
                    m |= b
            for b, children_bits, want in ops:
                if m & children_bits == want:
                    m |= b
            if any(
                (m & r and not m & u) or (m & u and not m & (l | r))
                for u, l, r in untils
            ):
                continue
            masks.append(m)
            letters.append(symbols)
            if len(masks) * k > budget:
                raise SizeBudgetExceededError(
                    f"tableau would need at least {len(masks)} x {k} states, "
                    f"budget {budget}"
                )

    def must(m):
        one = zero = 0
        for x, operand in nexts:
            if m & x:
                one |= operand
            else:
                zero |= operand
        for u, l, r in untils:
            if m & u and not m & r:
                one |= u
            elif not m & u and m & l:
                zero |= u
        return one, zero

    # reachable tableau exploration
    initial_atoms = [i for i, m in enumerate(masks) if m & bit(f)]
    reach = set(initial_atoms)
    frontier = list(initial_atoms)
    succs = {}
    while frontier:
        i = frontier.pop()
        one, zero = must(masks[i])
        nxt = tuple(j for j, m in enumerate(masks) if m & one == one and not m & zero)
        succs[i] = nxt
        for j in nxt:
            if j not in reach:
                reach.add(j)
                frontier.append(j)

    def acc_ok(i, idx):
        if not untils:
            return True
        u, _, r = untils[idx]
        return not masks[i] & u or bool(masks[i] & r)

    states = []
    number = {}

    def sid(i, c):
        key = (i, c)
        if key not in number:
            number[key] = len(states)
            states.append(key)
        return number[key]

    transitions = {}
    initial = frozenset(sid(i, 0) for i in initial_atoms)
    pending = list(initial)
    seen = set(pending)
    while pending:
        s = pending.pop()
        i, c = states[s]
        c2 = (c + 1) % k if acc_ok(i, c) else c
        for sym in letters[i]:
            tgts = []
            for j in succs[i]:
                t = sid(j, c2)
                tgts.append(t)
                if t not in seen:
                    seen.add(t)
                    pending.append(t)
            if tgts:
                transitions[(s, sym)] = tuple(sorted(tgts))
    accepting = frozenset(
        s for s, (i, c) in enumerate(states) if c == 0 and acc_ok(i, 0)
    )
    return Nba(
        states=tuple(range(len(states))),
        alphabet=alphabet,
        transitions=transitions,
        initial=initial,
        accepting=accepting,
    )


# ---------------------------------------------------------------------------
# NBA analysis
# ---------------------------------------------------------------------------


def trim_nba(nba):
    """Language-preserving reduction: prune states that are unreachable or
    cannot reach an accepting cycle, then alternate forward and backward
    bisimulation quotients, forward first, until one after the first merges
    nothing: quotients leave nothing to prune and are idempotent."""
    nba = _bisim_quotient(_prune_nba(nba), backward=False)
    backward = True
    while True:
        reduced = _bisim_quotient(nba, backward)
        if reduced is nba:
            return nba
        nba, backward = reduced, not backward


def _prune_nba(nba):
    edges = {q: [] for q in nba.states}
    for (q, a), tgts in nba.transitions.items():
        edges[q].append((a, tgts))
    succ_all = {q: [r for _, tgts in out for r in tgts] for q, out in edges.items()}.__getitem__

    reach = graph.reachable(nba.initial, succ_all)
    good = set()
    for comp in graph.sccs(sorted(reach), succ_all):
        if graph.has_cycle(comp, succ_all) and any(q in nba.accepting for q in comp):
            good.update(comp)
    live = graph.backward_reachable(reach, succ_all, good)
    if not (live.keys() & nba.initial):
        return Nba(
            states=(), alphabet=nba.alphabet, transitions={},
            initial=frozenset(), accepting=frozenset(),
        )
    keep = sorted(live)
    index = {q: i for i, q in enumerate(keep)}
    transitions = {}
    for q in keep:
        for a, tgts in sorted(edges[q]):
            tgts = tuple(sorted(index[r] for r in tgts if r in live))
            if tgts:
                transitions[(index[q], a)] = tgts
    return Nba(
        states=tuple(range(len(keep))),
        alphabet=nba.alphabet,
        transitions=transitions,
        initial=frozenset(index[q] for q in nba.initial if q in live),
        accepting=frozenset(index[q] for q in keep if q in nba.accepting),
    )


def _bisim_quotient(nba, backward):
    """Quotient by forward or backward bisimulation.

    Both preserve the language: forward-bisimilar states have the same
    futures; backward-bisimilar states (same acceptance, same initial
    status, same per-letter predecessor classes) have interchangeable
    pasts, so merging them cannot create new runs.
    """
    if not nba.states:
        return nba
    edges = {q: [] for q in nba.states}
    for (q, a), tgts in nba.transitions.items():
        for r in tgts:
            if backward:
                edges[r].append((a, q))
            else:
                edges[q].append((a, r))
    if backward:
        label = {q: (q in nba.accepting, q in nba.initial) for q in nba.states}
    else:
        label = {q: q in nba.accepting for q in nba.states}
    block = graph.refine(nba.states, label.__getitem__, edges.__getitem__)
    n_classes = max(block.values()) + 1
    if n_classes == len(nba.states):
        return nba
    transitions = {}
    for (q, a), tgts in nba.transitions.items():
        key = (block[q], a)
        transitions.setdefault(key, set()).update(block[r] for r in tgts)
    return Nba(
        states=tuple(range(n_classes)),
        alphabet=nba.alphabet,
        transitions={k: tuple(sorted(v)) for k, v in transitions.items()},
        initial=frozenset(block[q] for q in nba.initial),
        accepting=frozenset(block[q] for q in nba.accepting),
    )
