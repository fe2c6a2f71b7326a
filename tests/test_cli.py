"""Command-line behavior against the frozen golden corpus."""

import contextlib
import io
import os

import pytest

from itrees import cli

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


def test_run_asm_halting_golden():
    code, out = run_cli(["run-asm", os.path.join(GOLDEN, "halting.asm")])
    assert code == 0
    assert out == golden("halting.run-asm.txt")


def test_check_equiv_exit_codes(tmp_path):
    good = tmp_path / "good.imp"
    good.write_text("x := 1 + 2\n")
    code, out = run_cli(["check-equiv", str(good), "--fuel", "2000"])
    assert code == 0 and out.strip() == "proven"

    divergent = tmp_path / "div.imp"
    divergent.write_text("while 1 do skip end\n")
    code, out = run_cli(["check-equiv", str(divergent), "--fuel", "500"])
    assert code == 2 and out.startswith("unknown")


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
    # a register index is no value of the program, so it is caught at run time
    register = tmp_path / "reg.asm"
    register.write_text(head + f"  mov r{big}, 1\n  jmp 0\n")
    assert cli.main(["run-asm", str(register)]) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 4 and "Traceback" not in err


def test_echo_demo_scripted():
    code, out = run_cli(None, stdin_text="5\n12\n0\n7\n3\n")
    assert code == 0
    assert out == "5\n12\n0\n7\n3\n"


def test_outputs_are_deterministic():
    path = os.path.join(CORPUS, "nested_while.imp")
    first = run_cli(["run-imp", path])
    second = run_cli(["run-imp", path])
    assert first == second
