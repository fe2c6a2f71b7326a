"""Asm: basic blocks wired into open control-flow subgraphs.

A unit has entry, exit, and hidden internal labels; its denotation maps an
entry label to the tree of register/memory events executed up to the exit
label, a jump to a block going through the block's loop mark; an internal
block's tree is built on the block's first jump, one node per event, and
replayed on every later jump, an entry block's tree is built by each call,
and a block never entered is never denoted.  Linking is pure block-table
surgery, every block relabeled once per combinator; the semantic equations
tying surgery to combinators on denotations are checked by the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

from .combinators import KTree, loop_mark
from .core import ITree, ret, trigger, vis
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
    EMPTY_T,
    NAT_MASK,
    NAT_T,
    SYM_T,
    UNIT_T,
    UValue,
    label,
    label_t,
    nat,
    nat_add,
    nat_mul,
    nat_sub,
    sym,
    unit,
)


class BoundViolation(ValueError):
    """A label or register reference escapes its declared finite domain."""


# Syntax.  Nodes are slotted dataclasses that compare and hash by their
# fields; nothing assigns a node after it is built, and ``AsmUnit`` checks
# its labels when it is built.

@dataclass(slots=True, unsafe_hash=True)
class Oreg:
    reg: int


@dataclass(slots=True, unsafe_hash=True)
class Oimm:
    value: int


Operand = Union[Oreg, Oimm]


@dataclass(slots=True, unsafe_hash=True)
class Imov:
    dst: int
    src: Operand


@dataclass(slots=True, unsafe_hash=True)
class Iadd:
    dst: int
    lhs: int
    rhs: Operand


@dataclass(slots=True, unsafe_hash=True)
class Isub:
    dst: int
    lhs: int
    rhs: Operand


@dataclass(slots=True, unsafe_hash=True)
class Imul:
    dst: int
    lhs: int
    rhs: Operand


@dataclass(slots=True, unsafe_hash=True)
class Iload:
    dst: int
    addr: str


@dataclass(slots=True, unsafe_hash=True)
class Istore:
    addr: str
    src: Operand


Instr = Union[Imov, Iadd, Isub, Imul, Iload, Istore]


@dataclass(slots=True, unsafe_hash=True)
class Bjmp:
    target: int


@dataclass(slots=True, unsafe_hash=True)
class Bbrz:
    test: int
    yes: int
    no: int


@dataclass(slots=True, unsafe_hash=True)
class Bhalt:
    pass


Branch = Union[Bjmp, Bbrz, Bhalt]


@dataclass(slots=True, unsafe_hash=True)
class Block:
    instrs: tuple[Instr, ...]
    branch: Branch


def _branch_targets(b: Branch):
    if isinstance(b, Bjmp):
        return (b.target,)
    if isinstance(b, Bbrz):
        return (b.yes, b.no)
    return ()


@dataclass(slots=True, unsafe_hash=True)
class AsmUnit:
    """An open control-flow subgraph.

    ``code`` is total on the internal+entry label domain, internal labels
    first; every branch target stays below internal+exits.
    """

    entries: int
    exits: int
    internal: int
    code: tuple[Block, ...]

    def __post_init__(self):
        self.check()

    @classmethod
    def unchecked(cls, entries: int, exits: int, internal: int,
                  code: tuple[Block, ...]) -> AsmUnit:
        """The unit of these fields, built without ``check``: for the linking
        combinators and the compiler, whose results are well formed whenever
        their inputs are, and which check their inputs themselves.
        ``compiler.compile_stmt`` checks the unit it returns once."""
        u = object.__new__(cls)
        u.entries = entries
        u.exits = exits
        u.internal = internal
        u.code = code
        return u

    def check(self) -> None:
        """Raise ``BoundViolation`` if a label count is negative, the block
        table does not cover exactly the internal and entry labels, or a
        branch targets a label outside internal+exits."""
        if min(self.entries, self.exits, self.internal) < 0:
            raise BoundViolation("negative label counts")
        if len(self.code) != self.internal + self.entries:
            raise BoundViolation(
                f"block table has {len(self.code)} entries, "
                f"domain needs {self.internal + self.entries}"
            )
        bound = self.internal + self.exits
        for j, blk in enumerate(self.code):
            for t in _branch_targets(blk.branch):
                if not 0 <= t < bound:
                    raise BoundViolation(f"block {j} targets label {t} >= {bound}")


# Events.

REG_E = EventSig(
    "Reg",
    (
        KindSpec("GetReg", (NAT_T,), NAT_T),
        KindSpec("SetReg", (NAT_T, NAT_T), UNIT_T),
    ),
)

MEM_E = EventSig(
    "Memory",
    (
        KindSpec("Load", (SYM_T,), NAT_T),
        KindSpec("Store", (SYM_T, NAT_T), UNIT_T),
    ),
)

DONE_E = EventSig("Done", (KindSpec("Done", (), EMPTY_T),))

# Layout of the full alphabet: Reg +' (Memory +' Done).
_REG_PATH = (LEFT,)
_MEM_PATH = (RIGHT, LEFT)
_DONE_PATH = (RIGHT, RIGHT)


# A unit's read events and write sites are interned per register or
# address, in tables of ``INTERNED`` entries (see ``stores.Site``).

@lru_cache(maxsize=INTERNED)
def _get_reg_event(r: int) -> EventInstance:
    return event(REG_E, "GetReg", nat(r), path=_REG_PATH)


@lru_cache(maxsize=INTERNED)
def _load_event(addr: str) -> EventInstance:
    return event(MEM_E, "Load", sym(addr), path=_MEM_PATH)


@lru_cache(maxsize=INTERNED)
def _set_reg_site(r: int) -> Site:
    return Site(REG_E, "SetReg", nat(r), _REG_PATH)


@lru_cache(maxsize=INTERNED)
def _store_site(addr: str) -> Site:
    return Site(MEM_E, "Store", sym(addr), _MEM_PATH)


def get_reg(r: int) -> ITree:
    return trigger(_get_reg_event(r))


def set_reg(r: int, v: UValue) -> ITree:
    return trigger(event(REG_E, "SetReg", nat(r), v, path=_REG_PATH))


def load(addr: str) -> ITree:
    return trigger(_load_event(addr))


def store(addr: str, v: UValue) -> ITree:
    return trigger(event(MEM_E, "Store", sym(addr), v, path=_MEM_PATH))


def halt() -> ITree:
    return trigger(event(DONE_E, "Done", path=_DONE_PATH))


# Denotations are in continuation-passing form and build each of their
# trees once: an instruction is denoted together with the tree that follows
# it, each event is one node whose continuation leads straight to the next
# tree, and trees do not change, so every execution of a block replays the
# same ones, and a jump to an internal label is that label's loop mark.  A
# register read or a load is a ``vis`` node over the event interned for its
# register or address, built with its block unless it holds an earlier
# answer.  Every register or memory write's value goes to a ``Write`` at
# the ``Site`` interned for its register or address, built with its block:
# an immediate's write node is built then too, a move (``load``, ``mov`` or
# ``store`` of a register) hands the ``Write`` to its read, and ``add``,
# ``sub`` and ``mul`` continue their first read with a ``Compute`` of the
# second read, if any, the operation and the ``Write``.  A
# ``brz r -> yes, no`` reads ``r`` into a ``Guard`` of the jump to ``no``
# (nonzero) and the jump to ``yes`` (zero).  ``stores`` says how the fused
# fold answers them in place.  The value is a checked answer or a ``nat``,
# so the write needs no check.

def _read_then(op: Operand, k: Callable[[UValue], ITree]) -> ITree:
    """Read ``op``, then continue with ``k`` of its value; an immediate is
    read here, so ``k`` runs here too."""
    if isinstance(op, Oreg):
        return vis(_get_reg_event(op.reg), k)
    return k(nat(op.value))


_OPS = {Iadd: nat_add, Isub: nat_sub, Imul: nat_mul}


def _instr_then(i: Instr, rest: ITree) -> ITree:
    """The tree that runs ``i`` and then ``rest``."""
    if isinstance(i, Istore):
        return _read_then(i.src, write_at(_store_site(i.addr), rest))
    write = write_at(_set_reg_site(i.dst), rest)
    if isinstance(i, Imov):
        return _read_then(i.src, write)
    if isinstance(i, Iload):
        return vis(_load_event(i.addr), write)
    f = _OPS[type(i)]
    if isinstance(i.rhs, Oimm):
        b = nat(i.rhs.value).payload  # checked, as a read of it would be
        then = Compute((), lambda p: f(p[0], b), write)
    else:
        then = Compute((_get_reg_event(i.rhs.reg),), lambda p: f(p[0], p[1]), write)
    return vis(_get_reg_event(i.lhs), then)


def denote_instr(i: Instr) -> ITree:
    """The tree that runs ``i`` and returns unit: ``i`` continued by
    ``ret(unit())``."""
    return _instr_then(i, ret(unit()))


def denote_br(b: Branch, targets: Sequence[ITree]) -> ITree:
    """A terminal branch: a jump to label ``l`` returns the prebuilt tree
    ``targets[l]``, and ``halt`` emits ``Done``."""
    if isinstance(b, Bjmp):
        return targets[b.target]
    if isinstance(b, Bbrz):
        yes, no = targets[b.yes], targets[b.no]
        return vis(_get_reg_event(b.test), Guard(no, yes))
    return halt()


def denote_bk(blk: Block, targets: Sequence[ITree]) -> ITree:
    """A block: its instructions, each continuing straight into the next,
    then its branch."""
    t = denote_br(blk.branch, targets)
    for i in reversed(blk.instrs):
        t = _instr_then(i, t)
    return t


def den_asm(u: AsmUnit) -> KTree:
    """Denote a unit as a map from entry labels to exit labels.

    The paper's form is ``loop`` over the block table; here the blocks
    jump to each other directly.  A jump to internal label ``i`` is block
    ``i``'s loop mark (``loop_mark``), one silent step and then the block,
    and a jump to exit ``x`` returns ``x``.  The marks are built once per
    ``den_asm`` call; an internal block's tree is built on its mark's first
    entry and shared with every later jump, and an entry block's tree is
    built by each call of the result (no branch targets an entry).  So a
    block never entered is never denoted, and one that cannot be denoted
    raises when, and each time, its entry is observed (an entry block
    raises at the call).  Within a block, each event is one node leading
    straight to the next instruction's tree, with no ``bind``.
    """
    code, internal = u.code, u.internal
    targets = tuple(loop_mark(lambda i=i: denote_bk(code[i], targets))
                    for i in range(internal))
    targets += tuple(ret(label(x, u.exits)) for x in range(u.exits))
    entry_t = label_t(u.entries)

    def go(a):
        return denote_bk(code[internal + entry_t.check(a, "entry label").payload], targets)

    return KTree(go, entry_t)


# Linking combinators: pure block-table surgery.

def _relabel_block(blk: Block, f: Callable[[int], int]) -> Block:
    b = blk.branch
    if isinstance(b, Bjmp):
        nb = Bjmp(f(b.target))
    elif isinstance(b, Bbrz):
        nb = Bbrz(b.test, f(b.yes), f(b.no))
    else:
        nb = b
    return Block(blk.instrs, nb)


def _shift(internal: int, first: int, exit_base: int) -> Callable[[int], int]:
    """The relabeling that moves a unit's ``internal`` internal labels to
    start at ``first`` and its exits to start at ``exit_base``."""
    return lambda l: first + l if l < internal else exit_base + (l - internal)


def app_asm(u1: AsmUnit, u2: AsmUnit) -> AsmUnit:
    """Place two units side by side; entries and exits concatenate."""
    i1, i2 = u1.internal, u2.internal
    re1, re2 = _shift(i1, 0, i1 + i2), _shift(i2, i1, i1 + i2 + u1.exits)
    blocks = [_relabel_block(u1.code[j], re1) for j in range(i1)]
    blocks += [_relabel_block(u2.code[j], re2) for j in range(i2)]
    blocks += [_relabel_block(u1.code[i1 + a], re1) for a in range(u1.entries)]
    blocks += [_relabel_block(u2.code[i2 + c], re2) for c in range(u2.entries)]
    return AsmUnit.unchecked(u1.entries + u2.entries, u1.exits + u2.exits, i1 + i2,
                             tuple(blocks))


def loop_asm(u: AsmUnit, wires: int) -> AsmUnit:
    """Internalize the first ``wires`` exits as back-edges into the first
    ``wires`` entries.  Label indices are already aligned, so only the
    classification changes."""
    if not 0 <= wires <= min(u.entries, u.exits):
        raise BoundViolation(f"cannot wire {wires} ports on asm {u.entries}->{u.exits}")
    return AsmUnit.unchecked(u.entries - wires, u.exits - wires, u.internal + wires, u.code)


def pure_asm(entries: int, exits: int, f: Callable[[int], int]) -> AsmUnit:
    """One jump block per entry, targeting ``f(entry)``."""
    blocks = tuple(Block((), Bjmp(f(a))) for a in range(entries))
    return AsmUnit(entries, exits, 0, blocks)


def relabel_asm(entry_map: Sequence[int], exit_map: Sequence[int],
                u: AsmUnit, exits: int) -> AsmUnit:
    """Precompose entries with ``entry_map`` and postcompose exits with
    ``exit_map`` (one slot per old exit, values below ``exits``)."""
    if len(exit_map) != u.exits:
        raise BoundViolation("exit map must cover every exit")
    if any(not 0 <= x < exits for x in exit_map):
        raise BoundViolation("exit map escapes the new exit bound")
    i = u.internal

    def re(l):
        return l if l < i else i + exit_map[l - i]

    blocks = [_relabel_block(u.code[j], re) for j in range(i)]
    for a in entry_map:
        if not 0 <= a < u.entries:
            raise BoundViolation(f"entry map references entry {a}")
        blocks.append(_relabel_block(u.code[i + a], re))
    return AsmUnit(len(entry_map), exits, i, tuple(blocks))


# One identity unit, built and checked once: a unit never changes.
_ID_ASM = pure_asm(1, 1, lambda a: a)


def id_asm() -> AsmUnit:
    return _ID_ASM


def seq_asm(u1: AsmUnit, u2: AsmUnit) -> AsmUnit:
    """Feed every exit of ``u1`` into the matching entry of ``u2``: the
    loop over ``app_asm(u1, u2)`` that wires ``u1``'s exits to ``u2``'s
    entries."""
    return chain_asm((u1, u2))


def chain_asm(units: Sequence[AsmUnit]) -> AsmUnit:
    """Sequence a non-empty list of units, each exit of one feeding the
    matching entry of the next: ``seq_asm`` folded from the right, with
    every block relabeled once.

    The blocks keep the order of that fold: the internal blocks of the
    first unit to the last, the entry blocks of the last unit back to the
    second, now internal, then the entry blocks of the first.
    """
    for u1, u2 in zip(units, units[1:]):
        if u2.entries != u1.exits:
            raise BoundViolation(f"seq mismatch: {u1.exits} exits vs {u2.entries} entries")
    firsts = []  # label of each unit's first internal block
    at = 0
    for u in units:
        firsts.append(at)
        at += u.internal
    # label each unit's exit 0 goes to: the next unit's first entry block,
    # or the first exit of the whole for the last unit
    exit_bases = [0] * len(units)
    for j in range(len(units) - 1, 0, -1):
        exit_bases[j - 1] = at
        at += units[j].entries
    exit_bases[-1] = at

    fs = [_shift(u.internal, first, exit_base)
          for u, first, exit_base in zip(units, firsts, exit_bases)]
    blocks = [_relabel_block(blk, f) for u, f in zip(units, fs)
              for blk in u.code[:u.internal]]
    for j in range(len(units) - 1, -1, -1):
        u = units[j]
        blocks += [_relabel_block(blk, fs[j]) for blk in u.code[u.internal:]]
    return AsmUnit.unchecked(units[0].entries, units[-1].exits, at, tuple(blocks))


TMP_IF = 0  # register the guard code leaves its result in


def if_asm(e: Sequence[Instr], t: AsmUnit, f: AsmUnit) -> AsmUnit:
    """Run the guard code, then ``t`` when the test register is nonzero and
    ``f`` when it is zero; both arms leave by the same exits.

    This is the guard block, exit 0 to ``t`` and exit 1 to ``f``,
    sequenced (``seq_asm``) into ``app_asm(t, f)`` with both arms' exits
    relabeled onto the same ones, with every block relabeled once.  The
    blocks keep the order of that composition: the internal blocks of
    ``t`` then ``f``, their entry blocks, now internal, then the guard
    block, the unit's entry.
    """
    if t.entries != 1 or f.entries != 1 or t.exits != f.exits:
        raise BoundViolation("if arms must be asm 1 A with equal exits")
    i1, i2 = t.internal, f.internal
    arms = i1 + i2  # the label of t's entry block; f's follows it
    on_t, on_f = _shift(i1, 0, arms + 2), _shift(i2, i1, arms + 2)
    blocks = [_relabel_block(blk, on_t) for blk in t.code[:i1]]
    blocks += [_relabel_block(blk, on_f) for blk in f.code[:i2]]
    blocks.append(_relabel_block(t.code[i1], on_t))
    blocks.append(_relabel_block(f.code[i2], on_f))
    blocks.append(Block(tuple(e), Bbrz(TMP_IF, arms + 1, arms)))
    return AsmUnit.unchecked(1, t.exits, arms + 2, tuple(blocks))


def while_asm(e: Sequence[Instr], p: AsmUnit) -> AsmUnit:
    """Run the guard code, then leave when the test register is zero, or
    run ``p`` and test again.

    This is ``loop_asm`` over the ``if_asm`` of ``p`` and a jump to the
    exit, placed beside a re-entry jump (``app_asm``) and relabeled, with
    every block relabeled once.  The blocks keep the order of that
    composition: ``p``'s internal and entry blocks, its exit now the guard;
    the jump to the exit; the guard block; then the unit's entry, a jump
    to the guard.
    """
    if p.entries != 1 or p.exits != 1:
        raise BoundViolation("loop body must be asm 1 1")
    ip = p.internal
    guard = ip + 2
    on_p = _shift(ip, 0, guard)
    blocks = [_relabel_block(blk, on_p) for blk in p.code]
    blocks.append(Block((), Bjmp(ip + 3)))
    blocks.append(Block(tuple(e), Bbrz(TMP_IF, ip + 1, ip)))
    blocks.append(Block((), Bjmp(guard)))
    return AsmUnit.unchecked(1, 1, ip + 3, tuple(blocks))


# Stateful interpretation: registers inner, memory outer.

def _asm_routes(default: int) -> tuple:
    absent = nat(default)
    return (((_REG_PATH, "GetReg"), (1, absent)), ((_REG_PATH, "SetReg"), (1, None)),
            ((_MEM_PATH, "Load"), (0, absent)), ((_MEM_PATH, "Store"), (0, None)))


# The route tables of the absent-cell defaults in use, built once: 0, and 1
# for the ``wrong-default`` lowering.
_ASM_TABLES = {d: _route_table(2, _asm_routes(d)) for d in (0, 1)}


def interp_asm(t: ITree, mem0: UValue, regs0: UValue, default: int = 0) -> ITree:
    """Realize register and memory events as finite maps (absent cells read
    ``default``).  The result tree returns Pair(mem, Pair(regs, result));
    ``Done`` passes through.  A default other than 0 or 1 builds its
    route table on each call, as ``interp_stores`` does."""
    table = _ASM_TABLES.get(default) if type(default) is int else None
    if table is None:
        table = _route_table(2, _asm_routes(default))
    return _fold(t, (mem0, regs0), table, _DONE_PATH)


# Text format.

class AsmSyntaxError(SyntaxError):
    def __init__(self, msg, line):
        super().__init__(f"line {line}: {msg}")
        self.line = line


def _print_operand(op: Operand) -> str:
    return f"r{op.reg}" if isinstance(op, Oreg) else str(op.value)


def _print_instr(i: Instr) -> str:
    if isinstance(i, Imov):
        return f"mov r{i.dst}, {_print_operand(i.src)}"
    if isinstance(i, Iadd):
        return f"add r{i.dst}, r{i.lhs}, {_print_operand(i.rhs)}"
    if isinstance(i, Isub):
        return f"sub r{i.dst}, r{i.lhs}, {_print_operand(i.rhs)}"
    if isinstance(i, Imul):
        return f"mul r{i.dst}, r{i.lhs}, {_print_operand(i.rhs)}"
    if isinstance(i, Iload):
        return f"load r{i.dst}, @{i.addr}"
    return f"store @{i.addr}, {_print_operand(i.src)}"


def _print_branch(b: Branch) -> str:
    if isinstance(b, Bjmp):
        return f"jmp {b.target}"
    if isinstance(b, Bbrz):
        return f"brz r{b.test} -> {b.yes}, {b.no}"
    return "halt"


def print_asm(u: AsmUnit) -> str:
    lines = [f"asm entries={u.entries} exits={u.exits} internal={u.internal}"]
    for j, blk in enumerate(u.code):
        lines.append(f"block {j}:")
        for i in blk.instrs:
            lines.append(f"  {_print_instr(i)}")
        lines.append(f"  {_print_branch(blk.branch)}")
    return "\n".join(lines) + "\n"


_HEADER = re.compile(r"asm entries=(\d+) exits=(\d+) internal=(\d+)$")
_BLOCK = re.compile(r"block (\d+):$")
_REG = re.compile(r"r(\d+)$")
_ADDR = re.compile(r"@([A-Za-z_][A-Za-z0-9_]*)$")


def _register(m: re.Match, line: int) -> int:
    """The number of a matched register, which names a register event's
    64-bit argument."""
    r = int(m.group(1))
    if r > NAT_MASK:
        raise AsmSyntaxError(f"register {m.group(0)} does not fit in 64 bits", line)
    return r


def _parse_operand(text: str, line: int) -> Operand:
    m = _REG.match(text)
    if m:
        return Oreg(_register(m, line))
    if text.isdecimal():
        if int(text) > NAT_MASK:
            raise AsmSyntaxError(f"immediate {text} does not fit in 64 bits", line)
        return Oimm(int(text))
    raise AsmSyntaxError(f"bad operand {text!r}", line)


def _parse_reg(text: str, line: int) -> int:
    m = _REG.match(text)
    if not m:
        raise AsmSyntaxError(f"expected a register, found {text!r}", line)
    return _register(m, line)


def _parse_addr(text: str, line: int) -> str:
    m = _ADDR.match(text)
    if not m:
        raise AsmSyntaxError(f"expected @address, found {text!r}", line)
    return m.group(1)


def _parse_line(text: str, line: int):
    word, _, rest = text.partition(" ")
    args = [a.strip() for a in rest.split(",")] if rest.strip() else []

    def arity(n):
        if len(args) != n:
            raise AsmSyntaxError(f"{word} takes {n} operands", line)

    if word == "mov":
        arity(2)
        return Imov(_parse_reg(args[0], line), _parse_operand(args[1], line))
    if word in ("add", "sub", "mul"):
        arity(3)
        cls = {"add": Iadd, "sub": Isub, "mul": Imul}[word]
        return cls(_parse_reg(args[0], line), _parse_reg(args[1], line),
                   _parse_operand(args[2], line))
    if word == "load":
        arity(2)
        return Iload(_parse_reg(args[0], line), _parse_addr(args[1], line))
    if word == "store":
        arity(2)
        return Istore(_parse_addr(args[0], line), _parse_operand(args[1], line))
    if word == "jmp":
        arity(1)
        if not args[0].isdecimal():
            raise AsmSyntaxError(f"bad jump target {args[0]!r}", line)
        return Bjmp(int(args[0]))
    if word == "brz":
        parts = rest.split("->")
        if len(parts) != 2:
            raise AsmSyntaxError("brz needs 'rK -> yes, no'", line)
        test = _parse_reg(parts[0].strip(), line)
        targets = [t.strip() for t in parts[1].split(",")]
        if len(targets) != 2 or not all(t.isdecimal() for t in targets):
            raise AsmSyntaxError("brz needs two numeric targets", line)
        return Bbrz(test, int(targets[0]), int(targets[1]))
    if word == "halt":
        if rest.strip():
            raise AsmSyntaxError("halt takes no operands", line)
        return Bhalt()
    raise AsmSyntaxError(f"unknown instruction {word!r}", line)


def parse_asm(text: str) -> AsmUnit:
    lines = [(n + 1, raw.strip()) for n, raw in enumerate(text.splitlines())]
    lines = [(n, s) for n, s in lines if s and not s.startswith("#")]
    if not lines:
        raise AsmSyntaxError("empty input", 1)
    n0, header = lines[0]
    m = _HEADER.match(header)
    if not m:
        raise AsmSyntaxError("expected 'asm entries=A exits=B internal=I'", n0)
    entries, exits, internal = (int(g) for g in m.groups())
    blocks: list[Block] = []
    current: list[Instr] | None = None
    branch: Branch | None = None
    expected = 0

    def close(line):
        nonlocal current, branch
        if current is None:
            return
        if branch is None:
            raise AsmSyntaxError("block is missing its terminal branch", line)
        blocks.append(Block(tuple(current), branch))
        current, branch = None, None

    for n, s in lines[1:]:
        m = _BLOCK.match(s)
        if m:
            close(n)
            if int(m.group(1)) != expected:
                raise AsmSyntaxError(f"expected 'block {expected}:'", n)
            expected += 1
            current, branch = [], None
            continue
        if current is None:
            raise AsmSyntaxError("instruction outside any block", n)
        if branch is not None:
            raise AsmSyntaxError("instruction after the terminal branch", n)
        parsed = _parse_line(s, n)
        if isinstance(parsed, (Bjmp, Bbrz, Bhalt)):
            branch = parsed
        else:
            current.append(parsed)
    close(lines[-1][0])
    return AsmUnit(entries, exits, internal, tuple(blocks))
