"""Imp: a small imperative language denoted into interaction trees.

Statements denote trees over variable-access events plus an arbitrary extra
alphabet; a second stage interprets those events into a finite map with
default 0, giving the usual store-passing semantics.  A loop goes back to
its test through its shared loop mark, so divergence is representable and
fuel only appears in the driver.  A denotation is in continuation-passing
form, one node per event, and builds each of its subtrees once; loop
iterations and repeated runs replay them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Union

from .combinators import loop_mark
from .core import ITree, RetO, lazy, ret, run_to_head, trigger, vis
from .events import (
    LEFT,
    RIGHT,
    EventInstance,
    EventSig,
    KindSpec,
    event,
)
from .stores import INTERNED, Compute, Guard, Site, _fold, _route_table, write_at
from .values import (
    NAT_MASK,
    NAT_T,
    SYM_T,
    UNIT_T,
    UValue,
    fst,
    nat,
    nat_add,
    nat_mul,
    nat_sub,
    sym,
    umap,
    unit,
)


# Syntax.  Nodes are slotted dataclasses that compare and hash by their
# fields; nothing assigns a node after it is built.

@dataclass(slots=True, unsafe_hash=True)
class Var:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Lit:
    value: int


@dataclass(slots=True, unsafe_hash=True)
class Plus:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Minus:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Mult:
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Var, Lit, Plus, Minus, Mult]


@dataclass(slots=True, unsafe_hash=True)
class Skip:
    pass


@dataclass(slots=True, unsafe_hash=True)
class Assign:
    name: str
    expr: Expr


@dataclass(slots=True, unsafe_hash=True)
class Seq:
    first: "Stmt"
    second: "Stmt"


@dataclass(slots=True, unsafe_hash=True)
class If:
    cond: Expr
    then: "Stmt"
    orelse: "Stmt"


@dataclass(slots=True, unsafe_hash=True)
class While:
    cond: Expr
    body: "Stmt"


Stmt = Union[Skip, Assign, Seq, If, While]


class ImpSyntaxError(SyntaxError):
    def __init__(self, msg, line, col):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# Deeper expressions are a syntax error: the parser, the denotation, the
# compiler and the printer recurse on expressions, one to three Python
# frames a level, and must stay inside the default recursion limit.
MAX_EXPR_DEPTH = 100

# Likewise for ``if`` and ``while`` statements nested in one another: the
# parser, the compiler, the printer and the denotation of ``while`` bodies
# recurse on them, one or two frames a level, with an expression as deep as
# ``MAX_EXPR_DEPTH`` still below the innermost one.
MAX_STMT_DEPTH = 100

_KEYWORDS = {"skip", "if", "then", "else", "end", "while", "do"}

_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<num>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>:=|[;+\-*()])
    """,
    re.VERBOSE,
)


def _tokenize(src: str):
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            raise ImpSyntaxError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "ident" and text in _KEYWORDS:
                kind = text
            tokens.append((kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.parens = 0  # parentheses open around the current token
        self.nesting = 0  # if and while statements open around it

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ImpSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        self.i += 1
        return tok

    def stmts(self) -> Stmt:
        # A loop, not recursion, so long straight-line programs parse; the
        # chain is rebuilt right-nested, as ``a; (b; c)``.
        items = [self.stmt()]
        while self.peek()[0] == "op" and self.peek()[1] == ";":
            self.i += 1
            items.append(self.stmt())
        s = items.pop()
        while items:
            s = Seq(items.pop(), s)
        return s

    def stmt(self) -> Stmt:
        kind, text, line, col = self.peek()
        if kind == "skip":
            self.i += 1
            return Skip()
        if kind in ("if", "while"):
            # checked before descending, so the parser's own recursion stays
            # bounded too
            if self.nesting >= MAX_STMT_DEPTH:
                raise ImpSyntaxError(
                    f"statements nested deeper than {MAX_STMT_DEPTH} levels", line, col)
            self.nesting += 1
            self.i += 1
            cond, _ = self.expr()
            if kind == "if":
                self.take("then")
                then = self.stmts()
                self.take("else")
                s = If(cond, then, self.stmts())
            else:
                self.take("do")
                s = While(cond, self.stmts())
            self.take("end")
            self.nesting -= 1
            return s
        if kind == "ident":
            self.i += 1
            op = self.take("op")
            if op[1] != ":=":
                raise ImpSyntaxError("expected ':='", op[2], op[3])
            return Assign(text, self.expr()[0])
        raise ImpSyntaxError(f"expected a statement, found {text!r}", line, col)

    # Each method below returns an expression and its depth: one level per
    # operator and per pair of parentheses on the way down to a leaf.

    def expr(self) -> tuple[Expr, int]:
        e, depth = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.peek()
            self.i += 1
            rhs, rhs_depth = self.term()
            e = Plus(e, rhs) if op[1] == "+" else Minus(e, rhs)
            depth = self._level(max(depth, rhs_depth), op)
        return e, depth

    def term(self) -> tuple[Expr, int]:
        e, depth = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] == "*":
            op = self.peek()
            self.i += 1
            rhs, rhs_depth = self.factor()
            e = Mult(e, rhs)
            depth = self._level(max(depth, rhs_depth), op)
        return e, depth

    def factor(self) -> tuple[Expr, int]:
        kind, text, line, col = self.peek()
        if kind == "num":
            if int(text) > NAT_MASK:
                raise ImpSyntaxError(f"literal {text} does not fit in 64 bits", line, col)
            self.i += 1
            return Lit(int(text)), 0
        if kind == "ident":
            self.i += 1
            return Var(text), 0
        if kind == "op" and text == "(":
            # checked before descending, so the parser's own recursion stays
            # bounded too
            paren = self.peek()
            self.parens = self._level(self.parens, paren)
            self.i += 1
            e, depth = self.expr()
            close = self.take("op")
            if close[1] != ")":
                raise ImpSyntaxError("expected ')'", close[2], close[3])
            self.parens -= 1
            return e, self._level(depth, paren)
        raise ImpSyntaxError(f"expected an expression, found {text!r}", line, col)

    @staticmethod
    def _level(depth, tok) -> int:
        if depth >= MAX_EXPR_DEPTH:
            raise ImpSyntaxError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels",
                                 tok[2], tok[3])
        return depth + 1


def parse_imp(src: str) -> Stmt:
    parser = _Parser(_tokenize(src))
    s = parser.stmts()
    parser.take("eof")
    return s


def pretty_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Mult):
        text = f"{pretty_expr(e.lhs, 2)} * {pretty_expr(e.rhs, 3)}"
        level = 2
    else:
        op = "+" if isinstance(e, Plus) else "-"
        text = f"{pretty_expr(e.lhs, 1)} {op} {pretty_expr(e.rhs, 2)}"
        level = 1
    return f"({text})" if level < prec else text


def pretty_stmt(s: Stmt) -> str:
    if isinstance(s, Seq):
        # Walk the right spine of a Seq chain in a loop; only nested
        # (left) chains recurse.
        parts = []
        while isinstance(s, Seq):
            parts.append(pretty_stmt(s.first))
            s = s.second
        parts.append(pretty_stmt(s))
        return "; ".join(parts)
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Assign):
        return f"{s.name} := {pretty_expr(s.expr)}"
    if isinstance(s, If):
        return (f"if {pretty_expr(s.cond)} then {pretty_stmt(s.then)} "
                f"else {pretty_stmt(s.orelse)} end")
    return f"while {pretty_expr(s.cond)} do {pretty_stmt(s.body)} end"


# Events and denotation.  Trees are over ImpState +' E with variable events
# classified left; E is chosen by the caller (empty for the driver).

IMP_STATE = EventSig(
    "ImpState",
    (
        KindSpec("GetVar", (SYM_T,), NAT_T),
        KindSpec("SetVar", (SYM_T, NAT_T), UNIT_T),
    ),
)


# A program's read events and write sites are interned per variable, in
# tables of ``INTERNED`` entries (see ``stores.Site``).

@lru_cache(maxsize=INTERNED)
def _get_var_event(name: str) -> EventInstance:
    return event(IMP_STATE, "GetVar", sym(name), path=(LEFT,))


@lru_cache(maxsize=INTERNED)
def _set_var_site(name: str) -> Site:
    return Site(IMP_STATE, "SetVar", sym(name), (LEFT,))


def get_var(name: str) -> ITree:
    return trigger(_get_var_event(name))


def set_var(name: str, v: UValue) -> ITree:
    return trigger(event(IMP_STATE, "SetVar", sym(name), v, path=(LEFT,)))


# The denotations are in continuation-passing form: each event is one node
# whose continuation builds or returns the next tree, so no event goes
# through a ``trigger`` and a pending bind.  Every variable read in the text
# is one ``vis`` node over the ``GetVar`` event interned for its variable.
# Every assignment's value goes to a ``Write`` at the ``Site`` interned for
# its variable, built with the denotation: a literal's write node is built
# then too, a move (``x := y``) hands the ``Write`` to its read, and an
# expression with an operator continues its first read with a ``Compute``
# of the reads after it, the function of their answers and the ``Write``.
# An ``if`` or ``while`` test goes to a ``Guard`` of its two trees, both
# built before it runs, through the same ``Compute`` when it has an
# operator.  ``stores`` says how the fused fold answers them in place.  A
# ``while`` is its test: true runs the body into the loop's mark
# (``loop_mark``), one silent step back to the test, and false goes on to
# the tree after the loop, as ``iterate`` would.

_OPS = {Plus: nat_add, Minus: nat_sub, Mult: nat_mul}


def _evaluator(e: Expr, reads: list) -> Callable[[tuple], int]:
    """Append the ``GetVar`` event of each variable in ``e`` to ``reads``,
    left to right, and return the function that computes ``e`` from the
    tuple of the payloads of the answers to them."""
    if isinstance(e, Lit):
        value = e.value
        return lambda payloads: value
    if isinstance(e, Var):
        reads.append(_get_var_event(e.name))
        return itemgetter(len(reads) - 1)
    f = _OPS[type(e)]
    lhs = _evaluator(e.lhs, reads)
    rhs = _evaluator(e.rhs, reads)
    return lambda payloads: f(lhs(payloads), rhs(payloads))


def _expr_then(e: Expr, k: Callable[[UValue], ITree]) -> ITree:
    """Evaluate ``e``, then continue with ``k`` of its value: a ``Write``,
    a ``Guard``, or a callable from the value to a tree.

    Every variable is read by one ``GetVar`` node, left to right, and the
    first read's node and its ``Compute`` are built here once; the node of
    a later read holds the answers before it, so the ``Compute`` builds it
    when called.  An expression without variables is computed here, so
    ``k`` runs here too.
    """
    if isinstance(e, Var):
        return vis(_get_var_event(e.name), k)
    reads = []
    value = _evaluator(e, reads)
    if not reads:
        return k(nat(value(())))
    return vis(reads[0], Compute(tuple(reads[1:]), value, k))


def denote_expr(e: Expr) -> ITree:
    """The tree that reads ``e``'s variables and returns its value."""
    return _expr_then(e, ret)


_DONE = ret(unit())


def denote_stmt(s: Stmt) -> ITree:
    """Denote a statement: a tree that runs it and returns unit.

    Each event is one node whose continuation leads straight to the next
    tree.  ``Seq`` tails and ``If`` arms are lazy subtrees, denoted on
    first observation and then shared, so a long ``Seq`` spine does not
    recurse and no statement is denoted twice; a ``while`` goes back to its
    test through its loop mark."""
    return _stmt_then(s, _DONE)


def _stmt_then(s: Stmt, rest: ITree) -> ITree:
    """The tree that runs ``s`` and then ``rest``."""
    if isinstance(s, Skip):
        return rest
    if isinstance(s, Assign):
        # the value is a checked answer or a fresh nat, so the write needs
        # no argument check
        return _expr_then(s.expr, write_at(_set_var_site(s.name), rest))
    if isinstance(s, Seq):
        second = s.second
        return _stmt_then(s.first, lazy(lambda: _stmt_then(second, rest)))
    if isinstance(s, If):
        then, orelse = s.then, s.orelse
        then_t = lazy(lambda: _stmt_then(then, rest))
        else_t = lazy(lambda: _stmt_then(orelse, rest))
        return _expr_then(s.cond, Guard(then_t, else_t))
    mark = loop_mark(lambda: test)
    body = _stmt_then(s.body, mark)
    test = _expr_then(s.cond, Guard(body, rest))
    return test


# Variable events read and write the one store, absent variables reading 0;
# events classified right belong to the caller's alphabet and pass through.
_IMP_TABLE = _route_table(1, ((((LEFT,), "GetVar"), (0, nat(0))),
                              (((LEFT,), "SetVar"), (0, None))))


def interp_imp(t: ITree, env0: UValue) -> ITree:
    """Give the store-passing semantics of an ImpState+E tree.

    Returns a tree over E computing Pair(final env, result); reads of absent
    variables see 0.
    """
    return _fold(t, (env0,), _IMP_TABLE, (RIGHT,))


def env_of(bindings: dict[str, int] | None = None) -> UValue:
    return umap({k: nat(v) for k, v in (bindings or {}).items()})


@dataclass(frozen=True)
class ImpRun:
    finished: bool
    env: UValue | None
    steps: int


def run_imp(s: Stmt, env0: UValue, fuel: int) -> ImpRun:
    """Burn up to ``fuel`` silent steps of the interpreted denotation."""
    ob, steps = run_to_head(interp_imp(denote_stmt(s), env0), fuel)
    if type(ob) is RetO:
        return ImpRun(True, fst(ob.value), steps)
    return ImpRun(False, None, steps)
