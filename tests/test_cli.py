"""Command-line behavior against the frozen golden corpus."""

import contextlib
import gc
import inspect
import io
import os
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from itrees import TauO, cli, run_to_head
from itrees.asm import AsmSyntaxError, BoundViolation, den_asm, interp_asm, parse_asm, print_asm
from itrees.compiler import compile_stmt
from itrees.imp import MAX_EXPR_DEPTH, MAX_STMT_DEPTH, ImpSyntaxError, parse_imp
from itrees.values import label, umap
from itrees.traces import MAX_EVENT_DEPTH

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
CORPUS = os.path.join(GOLDEN, "corpus")

PROGRAMS = sorted(f[:-4] for f in os.listdir(CORPUS) if f.endswith(".imp"))


def run_cli(argv, stdin_text=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if stdin_text is None:
            code = cli.main(argv)
        else:
            code = cli.cmd_demo_echo(stdin=io.StringIO(stdin_text))
    return code, buf.getvalue()


def golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", PROGRAMS)
def test_run_imp_golden(name):
    code, out = run_cli(["run-imp", os.path.join(CORPUS, f"{name}.imp")])
    assert code == 0
    assert out == golden(f"{name}.run-imp.txt")


@pytest.mark.parametrize("name", PROGRAMS)
def test_compile_golden(name):
    code, out = run_cli(["compile", os.path.join(CORPUS, f"{name}.imp")])
    assert code == 0
    assert out == golden(f"{name}.asm")


@pytest.mark.parametrize("name", PROGRAMS)
def test_compile_to_a_file_writes_the_golden(tmp_path, name):
    out_path = tmp_path / f"{name}.asm"
    code, out = run_cli(["compile", os.path.join(CORPUS, f"{name}.imp"), "-o", str(out_path)])
    assert code == 0 and out == ""
    assert out_path.read_text(encoding="utf-8") == golden(f"{name}.asm")


@pytest.mark.parametrize("name", PROGRAMS)
def test_run_asm_golden(name):
    code, out = run_cli(["run-asm", os.path.join(GOLDEN, f"{name}.asm")])
    assert code == 0
    assert out == golden(f"{name}.run-asm.txt")


@pytest.mark.parametrize("name", PROGRAMS)
def test_imp_and_compiled_memory_agree(name):
    _, imp_out = run_cli(["run-imp", os.path.join(CORPUS, f"{name}.imp")])
    _, asm_out = run_cli(["run-asm", os.path.join(GOLDEN, f"{name}.asm")])
    imp_env = sorted(l for l in imp_out.splitlines()[2:] if "=" in l)
    mem_lines = asm_out.splitlines()
    mem = sorted(
        mem_lines[mem_lines.index("[mem]") + 1 : mem_lines.index("[reg]")]
    )
    assert imp_env == mem


@pytest.mark.parametrize("name", ["assign", "while_count", "if_true"])
def test_trace_golden(name):
    code, out = run_cli(
        ["trace", os.path.join(CORPUS, f"{name}.imp"), "--event-depth", "3"]
    )
    assert code == 0
    assert out == golden(f"{name}.trace.txt")


def test_asm_trace_golden():
    code, out = run_cli(
        ["trace", os.path.join(GOLDEN, "while_count.asm"), "--event-depth", "3"]
    )
    assert code == 0
    assert out == golden("while_count.asm.trace.txt")


def test_run_asm_halting_golden():
    code, out = run_cli(["run-asm", os.path.join(GOLDEN, "halting.asm")])
    assert code == 0
    assert out == golden("halting.run-asm.txt")


# A loop that never returns, and whose store never repeats.
ENDLESS = "while 1 do x := x + 1 end"


def _peak(run):
    # garbage an earlier test left behind would otherwise be freed, or not,
    # during the traced run, and the free lists it fills are counted as in use
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _growth(run):
    """Peak traced memory of ``run(200_000)`` over that of ``run(50_000)``,
    after a warm-up run: near 1 when the runs already taken are freed, 3
    or more when the root keeps every batch alive."""
    run(1_000)
    return _peak(lambda: run(200_000)) / _peak(lambda: run(50_000))


def test_run_to_head_lets_go_of_the_runs_it_has_taken():
    unit = compile_stmt(parse_imp(ENDLESS))

    def run(fuel):
        ob, steps = run_to_head(interp_asm(den_asm(unit)(label(0, 1)), umap(), umap()), fuel)
        assert type(ob) is TauO and steps == fuel

    assert _growth(run) < 1.5


def test_run_asm_memory_stays_flat_over_a_long_run(tmp_path):
    src = tmp_path / "endless.asm"
    src.write_text(print_asm(compile_stmt(parse_imp(ENDLESS))))

    def run(fuel):
        code, out = run_cli(["run-asm", str(src), "--fuel", str(fuel)])
        assert code == 0 and out == f"outcome: out-of-fuel\nsteps: {fuel}\n"

    assert _growth(run) < 1.5


def test_check_equiv_exit_codes(tmp_path):
    good = tmp_path / "good.imp"
    good.write_text("x := 1 + 2\n")
    code, out = run_cli(["check-equiv", str(good), "--fuel", "2000"])
    assert code == 0 and out.strip() == "proven"

    divergent = tmp_path / "div.imp"
    divergent.write_text("while 1 do skip end\n")
    code, out = run_cli(["check-equiv", str(divergent), "--fuel", "500"])
    assert code == 2 and out.startswith("unknown")


@pytest.mark.parametrize("argv, code", [
    (["run-imp", "{imp}", "--fuel", "-5"], 1),
    (["run-imp", "{imp}", "--fuel", "abc"], 1),
    (["run-asm", "{asm}", "--fuel", "-1"], 1),
    (["trace", "{imp}", "--event-depth", "-1"], 1),
    (["trace", "{imp}", "--tau-budget", "-1"], 1),
    (["compile", "{imp}", "--bogus"], 1),
    (["run-imp"], 1),
    (["check-equiv", "{imp}", "--fuel", "abc"], 3),
    (["check-equiv", "{imp}", "--fuel", "-5"], 3),
    (["check-equiv", "{imp}", "--tau-budget", "-3"], 3),
    (["check-equiv", "{imp}", "--bogus"], 3),
    (["check-equiv"], 3),
    (["no-such-command"], 1),
    (["trace", "{imp}", "--event-depth", str(MAX_EVENT_DEPTH + 1)], 1),
    (["compile", "{imp}", "-o", "{imp}-missing/out.asm"], 1),
])
def test_usage_errors_exit_with_the_input_error_code(tmp_path, capsys, argv, code):
    imp_src = tmp_path / "ok.imp"
    imp_src.write_text("x := 1\n")
    argv = [a.format(imp=imp_src, asm=os.path.join(GOLDEN, "assign.asm")) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == code
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


def test_zero_budgets_are_accepted(tmp_path):
    src = tmp_path / "ok.imp"
    src.write_text("x := 1\n")
    assert run_cli(["run-imp", str(src), "--fuel", "0"]) == (0, "outcome: out-of-fuel\nsteps: 0\n")
    code, _ = run_cli(["trace", str(src), "--event-depth", "0", "--tau-budget", "0"])
    assert code == 0


def test_syntax_errors_exit_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.imp"
    bad.write_text("x := := 1\n")
    assert cli.main(["run-imp", str(bad)]) == 1
    missing = tmp_path / "nope.imp"
    assert cli.main(["run-imp", str(missing)]) == 1
    badasm = tmp_path / "bad.asm"
    badasm.write_text("asm entries=1 exits=1 internal=0\nblock 0:\n  jmp 9\n")
    assert cli.main(["run-asm", str(badasm)]) == 1
    capsys.readouterr()


def test_out_of_range_input_is_an_error_not_a_verdict(tmp_path, capsys):
    big = "99999999999999999999999"
    imp_src = tmp_path / "big.imp"
    imp_src.write_text(f"x := {big}\n")
    assert cli.main(["check-equiv", str(imp_src)]) == 3
    assert cli.main(["run-imp", str(imp_src)]) == 1
    head = "asm entries=1 exits=1 internal=0\nblock 0:\n"
    literal = tmp_path / "big.asm"
    literal.write_text(head + f"  mov r0, {big}\n  jmp 0\n")
    assert cli.main(["run-asm", str(literal)]) == 1
    register = tmp_path / "reg.asm"
    register.write_text(head + f"  mov r{big}, 1\n  jmp 0\n")
    assert cli.main(["run-asm", str(register)]) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 4 and "Traceback" not in err


@pytest.mark.parametrize("instr", [
    "mov r{}, 1", "mov r0, r{}", "add r1, r{}, 2", "sub r1, r0, r{}",
    "load r{}, @a", "store @a, r{}", "brz r{} -> 0, 0"])
def test_a_register_beyond_64_bits_is_a_syntax_error_on_its_line(tmp_path, capsys, instr):
    # the register is the 64-bit argument of a register event, so the parser
    # rejects it as it does a 64-bit immediate, naming the line
    lines = ["asm entries=1 exits=1 internal=0", "block 0:", "  mov r0, 0", "  " + instr]
    if not instr.startswith("brz"):
        lines.append("  jmp 0")
    text = "\n".join(lines) + "\n"
    big = str(1 << 64)
    src = tmp_path / "reg.asm"
    src.write_text(text.format(big))
    assert cli.main(["run-asm", str(src)]) == 1
    assert capsys.readouterr().err == f"error: line 4: register r{big} does not fit in 64 bits\n"
    src.write_text(text.format((1 << 64) - 1))  # the largest register runs
    assert cli.main(["run-asm", str(src)]) == 0
    assert capsys.readouterr().out.startswith("outcome: finished\n")


def test_non_decimal_digits_are_an_error_not_a_traceback(tmp_path, capsys):
    src = tmp_path / "sup.asm"
    src.write_text("asm entries=1 exits=1 internal=0\nblock 0:\n  mov r0, \u00b2\n  jmp 1\n",
                   encoding="utf-8")
    assert cli.main(["run-asm", str(src)]) == 1
    assert cli.main(["trace", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.count("error: line 3: ") == 2 and "Traceback" not in err


@pytest.mark.parametrize("command, suffix, code", [
    ("run-imp", ".imp", 1), ("compile", ".imp", 1), ("run-asm", ".asm", 1),
    ("trace", ".imp", 1), ("trace", ".asm", 1), ("check-equiv", ".imp", 3)])
def test_a_source_that_is_not_utf8_is_an_error_not_a_traceback(tmp_path, capsys,
                                                               command, suffix, code):
    src = tmp_path / f"bad{suffix}"
    src.write_bytes(b"\xff\xfex := 1\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, str(src)]) == code
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: not UTF-8 text: ") and err.count("\n") == 1


def test_long_straight_line_program_runs(tmp_path):
    src = tmp_path / "long.imp"
    src.write_text("x := 0;\n" * 3000 + "skip\n")
    code, out = run_cli(["run-imp", str(src)])
    assert code == 0
    assert out == "outcome: finished\nsteps: 9000\nx=0\n"


def test_the_deepest_accepted_event_depth_runs(tmp_path):
    # with half of Python's default stack to spare: one trace per prefix,
    # cut off or pending, and the empty one
    src = tmp_path / "long.imp"
    src.write_text("x := 0;\n" * 3000 + "skip\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 500)
    try:
        code, out = run_cli(["trace", str(src), "--event-depth", str(MAX_EVENT_DEPTH)])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 * MAX_EVENT_DEPTH + 1
    assert "SetVar(x,0)=() ; " * (MAX_EVENT_DEPTH - 1) + "SetVar(x,0)?" in lines


@pytest.mark.parametrize("command", ["run-asm", "trace"])
def test_a_unit_without_entries_is_an_error(tmp_path, capsys, command):
    src = tmp_path / "none.asm"
    src.write_text("asm entries=0 exits=1 internal=1\nblock 0:\n  jmp 1\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, str(src)]) == 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "error: unit has no entry to run\n"


def test_long_straight_line_program_compiles(tmp_path):
    src = tmp_path / "long.imp"
    src.write_text("".join(f"x := {i};\n" for i in range(1100)) + "skip\n")
    code, out = run_cli(["check-equiv", str(src)])
    assert (code, out) == (0, "proven\n")


def test_linking_a_long_straight_line_is_linear(tmp_path):
    # no timing bound: at 3,000 statements the quadratic linker took seconds
    src = tmp_path / "long.imp"
    src.write_text("".join(f"x := {i};\n" for i in range(3000)) + "skip\n")
    code, out = run_cli(["check-equiv", str(src)])
    assert (code, out) == (0, "proven\n")


@pytest.mark.parametrize("expr, at", [
    ("(" * 2000 + "1" + ")" * 2000, "2:106"),  # at the 101st parenthesis
    (" + ".join(["1"] * 3000), "2:408"),  # at the 101st operator
    ("x * (" * 60 + "1" + ")" * 60, None),
], ids=["parentheses", "sum", "mixed"])
def test_too_deep_expressions_are_syntax_errors(tmp_path, capsys, expr, at):
    src = tmp_path / "deep.imp"
    src.write_text(f"y := 1;\nx := {expr}\n")
    assert cli.main(["run-imp", str(src)]) == 1
    assert cli.main(["check-equiv", str(src)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error: ") == 2 and err.count("deeper than 100 levels") == 2
    if at:
        assert err.count(f"error: {at}: ") == 2


@pytest.mark.parametrize("expr, value", [
    (" + ".join(["1"] * 101), 101),
    ("(" * 100 + "7" + ")" * 100, 7),
], ids=["sum", "parentheses"])
def test_the_deepest_accepted_expressions_run(tmp_path, expr, value):
    src = tmp_path / "deep.imp"
    src.write_text(f"x := {expr}\n")
    code, out = run_cli(["run-imp", str(src)])
    assert (code, out) == (0, f"outcome: finished\nsteps: 3\nx={value}\n")
    code, out = run_cli(["check-equiv", str(src)])
    assert (code, out) == (0, "proven\n")


def _nested_statements(levels):
    """``levels`` if and while statements nested in one another, alternately,
    each on its own line; each loop runs once.  The innermost holds three
    expressions at the depth bound: a left-nested sum, parentheses, and a
    right-nested difference."""
    deep = "x" + " + 1" * MAX_EXPR_DEPTH
    parens = "(" * MAX_EXPR_DEPTH + "y" + ")" * MAX_EXPR_DEPTH
    right = "z"
    for _ in range(MAX_EXPR_DEPTH // 2):
        right = f"1 - ({right})"
    src = f"x := {deep}; y := {parens}; z := {right}"
    for k in reversed(range(levels)):
        if k % 2:
            src = f"w{k} := 1; while w{k} do\n{src};\nw{k} := 0 end"
        else:
            src = f"if 1 then\n{src}\nelse skip end"
    return src + "\n"


def test_the_deepest_accepted_statements_run(tmp_path, capsys):
    src = tmp_path / "deep.imp"
    src.write_text(_nested_statements(MAX_STMT_DEPTH))
    code, out = run_cli(["run-imp", str(src)])
    assert code == 0 and out.startswith("outcome: finished\n")
    assert out.endswith("\nx=100\ny=0\nz=0\n")
    assert run_cli(["compile", str(src)])[0] == 0
    code, out = run_cli(["trace", str(src)])
    assert code == 0 and out
    assert run_cli(["check-equiv", str(src)]) == (0, "proven\n")
    assert "Traceback" not in capsys.readouterr().err


def test_too_deep_statements_are_syntax_errors(tmp_path, capsys):
    src = tmp_path / "deep.imp"
    src.write_text(_nested_statements(MAX_STMT_DEPTH + 1))
    for command in ("run-imp", "compile", "trace"):
        assert cli.main([command, str(src)]) == 1
    assert cli.main(["check-equiv", str(src)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # each level opens a line, and the 101st opens with an if
    assert err.count("error: 101:1: statements nested deeper than 100 levels") == 4


def test_echo_demo_scripted():
    code, out = run_cli(None, stdin_text="5\n12\n0\n7\n3\n")
    assert code == 0
    assert out == "5\n12\n0\n7\n3\n"


def test_outputs_are_deterministic():
    path = os.path.join(CORPUS, "nested_while.imp")
    first = run_cli(["run-imp", path])
    second = run_cli(["run-imp", path])
    assert first == second


# Arbitrary text never ends in a traceback.  Tokens are glued without
# separators, so "r" + "1" makes a register and "x" + ":=" an assignment;
# superscript two is a digit int() rejects, Arabic-Indic three one it accepts.
DIGITS = ["0", "1", "9", "18446744073709551616", "\u00b2", "\u0663"]
IMP_TOKENS = ["skip", "if", "then", "else", "end", "while", "do", "x", "y",
              ":=", ";", "+", "-", "*", "(", ")", " ", "\n"] + DIGITS
IMP_TEXT = st.lists(st.sampled_from(IMP_TOKENS), max_size=14).map("".join)
# Asm lines start with an instruction word, so the operand parsers are reached.
ASM_WORDS = ["mov", "add", "sub", "mul", "load", "store", "jmp", "brz", "halt", "block 1:"]
ASM_OPERANDS = ["r", "@", "x", ",", "->", " "] + DIGITS
ASM_LINE = st.builds(lambda w, ops: w + " " + "".join(ops), st.sampled_from(ASM_WORDS),
                     st.lists(st.sampled_from(ASM_OPERANDS), max_size=4))
ASM_TEXT = st.lists(ASM_LINE, min_size=1, max_size=4).map(
    lambda lines: "asm entries=1 exits=1 internal=0\nblock 0:\n" + "\n".join(lines) + "\n")


def _cli_exit(command, suffix, text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "prog" + suffix)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([command, path, "--fuel", "1000"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(IMP_TEXT)
def test_imp_text_never_tracebacks(text):
    try:
        parse_imp(text)
    except ImpSyntaxError:
        pass
    assert _cli_exit("run-imp", ".imp", text) in {0, 1, 2, 3}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ASM_TEXT)
def test_asm_text_never_tracebacks(text):
    try:
        parse_asm(text)
    except (AsmSyntaxError, BoundViolation):
        pass
    assert _cli_exit("run-asm", ".asm", text) in {0, 1, 2, 3}
