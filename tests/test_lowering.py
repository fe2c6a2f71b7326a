"""The compiler's lowering is built from the ``asm`` linking combinators.

The digest pins every unit the compiler emits, honest and seeded-bug, so a
change of lowering shows up as a change of text.  The structural cases say
that an ``if`` or ``while`` compiles to exactly ``asm.if_asm`` or
``asm.while_asm`` of its parts, so the linking laws ``test_asm`` checks on
those combinators hold for the code the compiler runs.
"""

import hashlib

from itrees import asm
from itrees.asm import print_asm
from itrees.compiler import MUTATIONS, compile_expr, compile_stmt, gen_program
from itrees.imp import If, Seq, While

# sha256 over print_asm of the clean and the five seeded-bug compilations of
# gen_program(16, mode, seed), seeds 0-199, bounded then free.
LOWERING_DIGEST = "64ced5ce6f760c6ff91c39a2e915bf14cb99bcde3389e97f0371786c434c731d"


def _programs():
    for mode in ("bounded", "free"):
        for seed in range(200):
            yield gen_program(16, mode, seed)


def test_lowering_digest():
    h = hashlib.sha256()
    for prog in _programs():
        h.update(print_asm(compile_stmt(prog)).encode())
        for name in sorted(MUTATIONS):
            h.update(print_asm(compile_stmt(prog, MUTATIONS[name])).encode())
    assert h.hexdigest() == LOWERING_DIGEST


def _subterms(s):
    stack = [s]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Seq):
            stack += (s.first, s.second)
        elif isinstance(s, If):
            stack += (s.then, s.orelse)
        elif isinstance(s, While):
            stack.append(s.body)


def test_if_and_while_compile_through_the_asm_combinators():
    seen = {If: 0, While: 0}
    for prog in _programs():
        for s in _subterms(prog):
            if isinstance(s, If):
                expect = asm.if_asm(compile_expr(0, s.cond),
                                    compile_stmt(s.then), compile_stmt(s.orelse))
            elif isinstance(s, While):
                expect = asm.while_asm(compile_expr(0, s.cond), compile_stmt(s.body))
            else:
                continue
            assert compile_stmt(s) == expect
            seen[type(s)] += 1
    assert min(seen.values()) >= 50
