"""Imp: a small imperative language denoted into interaction trees.

Statements denote trees over variable-access events plus an arbitrary extra
alphabet; a second stage interprets those events into a finite map with
default 0, giving the usual store-passing semantics.  Loops go through the
iteration combinator, so divergence is representable and fuel only appears
in the driver.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .combinators import KTree, iterate
from .core import ITree, RetO, bind, ret, run_to_head, trigger
from .events import LEFT, RIGHT, EventSig, KindSpec, event
from .interp import interp_stores
from .values import (
    NAT_MASK,
    NAT_T,
    SYM_T,
    UNIT_T,
    UValue,
    fst,
    inl,
    inr,
    nat,
    nat_add,
    nat_mul,
    nat_sub,
    sym,
    umap,
    unit,
)


# Syntax.

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Plus:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Minus:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mult:
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Var, Lit, Plus, Minus, Mult]


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr


@dataclass(frozen=True)
class Seq:
    first: "Stmt"
    second: "Stmt"


@dataclass(frozen=True)
class If:
    cond: Expr
    then: "Stmt"
    orelse: "Stmt"


@dataclass(frozen=True)
class While:
    cond: Expr
    body: "Stmt"


Stmt = Union[Skip, Assign, Seq, If, While]


class ImpSyntaxError(SyntaxError):
    def __init__(self, msg, line, col):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


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

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ImpSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        self.i += 1
        return tok

    def stmts(self) -> Stmt:
        s = self.stmt()
        if self.peek()[0] == "op" and self.peek()[1] == ";":
            self.i += 1
            return Seq(s, self.stmts())
        return s

    def stmt(self) -> Stmt:
        kind, text, line, col = self.peek()
        if kind == "skip":
            self.i += 1
            return Skip()
        if kind == "if":
            self.i += 1
            cond = self.expr()
            self.take("then")
            then = self.stmts()
            self.take("else")
            orelse = self.stmts()
            self.take("end")
            return If(cond, then, orelse)
        if kind == "while":
            self.i += 1
            cond = self.expr()
            self.take("do")
            body = self.stmts()
            self.take("end")
            return While(cond, body)
        if kind == "ident":
            self.i += 1
            op = self.take("op")
            if op[1] != ":=":
                raise ImpSyntaxError("expected ':='", op[2], op[3])
            return Assign(text, self.expr())
        raise ImpSyntaxError(f"expected a statement, found {text!r}", line, col)

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.peek()[1]
            self.i += 1
            rhs = self.term()
            e = Plus(e, rhs) if op == "+" else Minus(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] == "*":
            self.i += 1
            e = Mult(e, self.factor())
        return e

    def factor(self) -> Expr:
        kind, text, line, col = self.peek()
        if kind == "num":
            if int(text) > NAT_MASK:
                raise ImpSyntaxError(f"literal {text} does not fit in 64 bits", line, col)
            self.i += 1
            return Lit(int(text))
        if kind == "ident":
            self.i += 1
            return Var(text)
        if kind == "op" and text == "(":
            self.i += 1
            e = self.expr()
            close = self.take("op")
            if close[1] != ")":
                raise ImpSyntaxError("expected ')'", close[2], close[3])
            return e
        raise ImpSyntaxError(f"expected an expression, found {text!r}", line, col)


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
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Assign):
        return f"{s.name} := {pretty_expr(s.expr)}"
    if isinstance(s, Seq):
        return f"{pretty_stmt(s.first)}; {pretty_stmt(s.second)}"
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


def get_var(name: str) -> ITree:
    return trigger(event(IMP_STATE, "GetVar", sym(name), path=(LEFT,)))


def set_var(name: str, v: UValue) -> ITree:
    return trigger(event(IMP_STATE, "SetVar", sym(name), v, path=(LEFT,)))


def denote_expr(e: Expr) -> ITree:
    if isinstance(e, Lit):
        return ret(nat(e.value))
    if isinstance(e, Var):
        return get_var(e.name)
    if isinstance(e, Plus):
        f = nat_add
    elif isinstance(e, Minus):
        f = nat_sub
    else:
        f = nat_mul
    lhs, rhs = e.lhs, e.rhs
    return bind(
        denote_expr(lhs),
        lambda l: bind(denote_expr(rhs), lambda r: ret(nat(f(l.payload, r.payload)))),
    )


def _is_true(v: UValue) -> bool:
    return v.payload != 0


def denote_stmt(s: Stmt) -> ITree:
    if isinstance(s, Skip):
        return ret(unit())
    if isinstance(s, Assign):
        return bind(denote_expr(s.expr), lambda v: set_var(s.name, v))
    if isinstance(s, Seq):
        first, second = s.first, s.second
        return bind(denote_stmt(first), lambda _: denote_stmt(second))
    if isinstance(s, If):
        cond, then, orelse = s.cond, s.then, s.orelse
        return bind(
            denote_expr(cond),
            lambda v: denote_stmt(then) if _is_true(v) else denote_stmt(orelse),
        )
    # Denote guard and body once; the trees are immutable and replay freely.
    guard_tree = denote_expr(s.cond)
    body_tree = denote_stmt(s.body)

    def step(_):
        return bind(
            guard_tree,
            lambda v: bind(body_tree, lambda _: ret(inl(unit())))
            if _is_true(v)
            else ret(inr(unit())),
        )

    return iterate(KTree(step))(unit())


# Variable events read and write the one store, absent variables reading 0;
# events classified right belong to the caller's alphabet and pass through.
_IMP_ROUTES = {
    ((LEFT,), "GetVar"): (0, nat(0)),
    ((LEFT,), "SetVar"): (0, None),
}


def interp_imp(t: ITree, env0: UValue) -> ITree:
    """Give the store-passing semantics of an ImpState+E tree.

    Returns a tree over E computing Pair(final env, result); reads of absent
    variables see 0.
    """
    return interp_stores(t, (env0,), _IMP_ROUTES, (RIGHT,))


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
