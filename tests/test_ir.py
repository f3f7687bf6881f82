import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from conftest import random_program
from implylogic.core import Program, count_steps, false_, imply, load
from implylogic.ir import ParseError, format_program, parse_program

NAND_TEXT = """.regs P Q S
.in P Q
.out S
FALSE S
IMPLY P S
IMPLY Q S
"""


def test_parse_nand():
    prog = parse_program(NAND_TEXT)
    assert prog.registers == ("P", "Q", "S")
    assert prog.inputs == ("P", "Q")
    assert prog.outputs == ("S",)
    assert prog.body == (false_("S"), imply("P", "S"), imply("Q", "S"))
    assert count_steps(prog) == 3


def test_parse_empty():
    prog = parse_program("")
    assert prog == Program(())
    assert count_steps(prog) == 0


def test_comments_and_blank_lines():
    text = "# adder fragment\n.regs A B\n\nFALSE A  # reset\n"
    prog = parse_program(text)
    assert prog.body == (false_("A"),)


class TestParseErrors:
    def diag(self, text):
        with pytest.raises(ParseError) as info:
            parse_program(text)
        errors = info.value.diagnostics
        assert errors
        return errors[0]

    def test_self_imply(self):
        d = self.diag(".regs P\nIMPLY P P\n")
        assert "IMPLY operands must differ" in d.message
        assert (d.line, d.column) == (2, 9)

    def test_unknown_mnemonic(self):
        d = self.diag(".regs P\nNOPE P\n")
        assert "unknown mnemonic" in d.message
        assert d.line == 2

    def test_undeclared_register(self):
        d = self.diag(".regs P\nFALSE Q\n")
        assert "undeclared register 'Q'" in d.message

    def test_load_after_compute(self):
        d = self.diag(".regs P S\nFALSE S\nLOAD P 1\n")
        assert "LOAD must precede" in d.message
        assert d.line == 3

    def test_bad_load_level(self):
        d = self.diag(".regs P\nLOAD P 2\n")
        assert "0 or 1" in d.message

    def test_bad_identifier(self):
        d = self.diag(".regs 1P\n")
        assert "invalid identifier" in d.message

    def test_duplicate_directive(self):
        d = self.diag(".regs P\n.regs Q\n")
        assert "duplicate" in d.message

    def test_every_error_has_location(self):
        with pytest.raises(ParseError) as info:
            parse_program("BOGUS\n.regs 9x\nIMPLY A A\n")
        for d in info.value.diagnostics:
            assert d.line >= 1 and d.column >= 1

    def test_parse_program_raises(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_program("IMPLY P Q\n")


def test_format_nand_canonical():
    prog = parse_program(NAND_TEXT)
    assert format_program(prog) == NAND_TEXT


def test_format_directives_only():
    prog = Program(registers=("A", "B"), inputs=("A",))
    assert format_program(prog) == ".regs A B\n.in A\n"


def test_format_empty_program():
    assert format_program(Program(())) == ""


@pytest.mark.parametrize("seed", range(50))
def test_round_trip_random(seed):
    prog = random_program(random.Random(seed))
    assert parse_program(format_program(prog)) == prog


@given(st.integers(0, 10_000))
def test_format_idempotent(seed):
    prog = random_program(random.Random(seed))
    text = format_program(prog)
    assert format_program(parse_program(text)) == text


class TestValidate:
    """A Program checks its own invariants when it is built."""

    def test_valid_nand(self):
        prog = parse_program(NAND_TEXT)
        assert Program(prog.registers, prog.inputs, prog.outputs, prog.body) == prog

    def test_undeclared_instruction_register(self):
        with pytest.raises(ValueError, match="unknown register 'Q'"):
            Program(registers=("P",), body=(false_("Q"),))

    def test_load_after_compute(self):
        with pytest.raises(ValueError, match="LOAD must precede all FALSE/IMPLY"):
            Program(registers=("P", "S"), body=(false_("S"), load("P", 1)))

    def test_output_not_declared(self):
        with pytest.raises(ValueError, match=".out register 'Z' not declared"):
            Program(registers=("P",), outputs=("Z",))

    def test_register_declared_twice(self):
        with pytest.raises(ValueError, match="register 'P' declared twice"):
            Program(registers=("P", "S", "P"))

    def test_register_name_not_an_identifier(self):
        with pytest.raises(ValueError, match="invalid identifier '1P'"):
            Program(registers=("1P", "S"), body=(false_("1P"),))

    def test_input_listed_twice(self):
        with pytest.raises(ValueError, match="register 'P' listed twice in .in"):
            Program(registers=("P", "S"), inputs=("P", "P"))


UNDECLARED = "Zundeclared"  # random_program names have at most four characters


def inject_defect(prog, kind, rng):
    """The fields of ``prog`` with one defect of ``kind`` injected ("none"
    injects nothing)."""
    regs, ins, outs, body = prog.registers, prog.inputs, prog.outputs, list(prog.body)
    if kind == "body-register":
        j = rng.randrange(len(body) + 1)
        instr = body[j] if j < len(body) else false_(regs[0])
        if instr.source is not None and rng.random() < 0.5:
            instr = imply(UNDECLARED, instr.target)
        elif instr.source is not None:
            instr = imply(instr.source, UNDECLARED)
        else:
            instr = replace(instr, target=UNDECLARED)
        body[j:j + 1] = [instr]
    elif kind == "in-register":
        ins = ins + (UNDECLARED,)
    elif kind == "out-register":
        outs = outs + (UNDECLARED,)
    elif kind == "duplicate-reg":
        regs = regs + (rng.choice(regs),)
    elif kind == "non-identifier":
        regs = regs + ("9" + regs[0],)
    elif kind == "load-after-compute":
        body += [false_(regs[0]), load(rng.choice(regs), rng.randint(0, 1))]
    return SimpleNamespace(registers=regs, inputs=ins, outputs=outs, body=tuple(body))


@pytest.mark.parametrize("kind", ["none", "body-register", "in-register", "out-register",
                                  "duplicate-reg", "non-identifier", "load-after-compute"])
def test_parser_and_program_agree(kind):
    """The parser (located) and Program (unlocated) hold the same
    well-formedness rule: one refuses a text exactly when the other
    refuses its fields."""
    for seed in range(100):
        rng = random.Random(seed)
        fields = inject_defect(random_program(rng), kind, rng)
        try:
            Program(fields.registers, fields.inputs, fields.outputs, fields.body)
            built = True
        except ValueError:
            built = False
        try:
            parse_program(format_program(fields))
            parsed = True
        except ParseError:
            parsed = False
        assert parsed is built is (kind == "none"), seed
