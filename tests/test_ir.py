import ast
import hashlib
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_program, tracing
from implylogic import ir
from implylogic.cli import gate_program
from implylogic.core import Instruction, Program, count_steps, false_, imply, load
from implylogic.ir import ParseError, format_program, parse_program
from implylogic.synthesis import GATES, gen_adder_serial

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

    def test_repeats_at_the_end_of_a_long_list(self):
        # 5 000 names, then two repeats: each reported where it stands, the first one first
        names = [f"R{i}" for i in range(5000)]
        line = " ".join([".in", *names, "R4321", "R7"])
        with pytest.raises(ParseError) as info:
            parse_program(f".regs {' '.join(names)}\n{line}\n")
        assert [str(d) for d in info.value.diagnostics] == [
            f"2:{line.rindex(' R4321') + 2}: error: register 'R4321' listed twice in .in",
            f"2:{len(line) - 1}: error: register 'R7' listed twice in .in"]
        for field, directive in (("inputs", ".in"), ("outputs", ".out")):
            with pytest.raises(ValueError, match=f"^register 'R4321' listed twice in {directive}$"):
                Program(registers=tuple(names), **{field: (*names, "R4321", "R7")})

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
            instr = instr._replace(target=UNDECLARED)
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


#: sha256 of every corpus soup's outcome, in seed order (see ``corpus_digest``)
CORPUS_DIGEST = "8bf042bc44593e250fd08e6a9a7f3a1ffe5fc0fbd838e6bafbb2b15da9738040"

SOUP_HEADS = (".regs", ".in", ".out", "FALSE", "IMPLY", "LOAD", "NOPE", "imply", ".REGS")
SOUP_IDENTS = ("P", "Q", "S", "a_1", "x9")
SOUP_WORDS = SOUP_HEADS + SOUP_IDENTS + (
    "1P", "_a", "P-Q", "\xe9", "9",     # invalid identifiers
    "0", "1", "2",                      # levels
    "#", "P#x", "Q#", "#S",             # '#' inside a token
)
SOUP_SEPARATORS = (" ", " ", "  ", "\t", "\xa0", "\u2003", "\u3000")
SOUP_LINE_BREAKS = ("\n",) * 6 + ("\r\n", "\n\r", "\n\n", "\x1c", "\x85", "\u2028")


def token_soup(rng: random.Random) -> str:
    """Lines shaped like statements, each token swapped for a random word
    now and then, separated by mixed whitespace and ended by mixed line
    breaks."""
    lines = [".regs P Q S a_1 x9"] if rng.random() < 0.7 else []
    for _ in range(rng.randint(0, 7)):
        head = rng.choice(SOUP_HEADS)
        arity = {"FALSE": 1, "IMPLY": 2, "LOAD": 1}.get(head, rng.randint(0, 3))
        toks = [head] + [rng.choice(SOUP_IDENTS) for _ in range(arity)]
        if head == "LOAD":
            toks.append(rng.choice("01"))
        toks = [rng.choice(SOUP_WORDS) if rng.random() < 0.1 else t for t in toks]
        if rng.random() < 0.1:
            toks.insert(rng.randint(0, len(toks)), rng.choice(SOUP_WORDS))
        if rng.random() < 0.1:
            toks = toks[:rng.randint(0, len(toks))]
        seps = [rng.choice(SOUP_SEPARATORS) for _ in range(len(toks) + 1)]
        lines.append("".join(s + t for s, t in zip(seps, toks)) + seps[-1][:rng.randint(0, 1)])
    breaks = [rng.choice(SOUP_LINE_BREAKS) for _ in lines]
    return "".join(line + brk for line, brk in zip(lines, breaks))


def soup_outcome(text: str):
    """The formatted program, or every diagnostic as (message, line, column)."""
    try:
        return format_program(parse_program(text))
    except ParseError as exc:
        return [(d.message, d.line, d.column) for d in exc.diagnostics]


def corpus_digest(n: int = 2000) -> tuple[str, int]:
    """The sha256 of the outcomes of soups 0..n-1, and how many parsed."""
    outcomes = [soup_outcome(token_soup(random.Random(seed))) for seed in range(n)]
    text = json.dumps(outcomes, ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest(), sum(isinstance(o, str) for o in outcomes)


def test_corpus_outcomes_pinned():
    """The parser's diagnostics (message, line, column, order) and accepted
    programs over 2 000 seeded soups are pinned; a change meant to alter
    any of them updates the digest and states the old and new values."""
    digest, parsed = corpus_digest()
    assert 200 < parsed < 1800
    assert digest == CORPUS_DIGEST


@pytest.mark.parametrize("sep", ["\t", "\xa0", "\u2003", "\u3000"])
def test_unicode_whitespace_separates_tokens(sep):
    """Any Unicode whitespace separates tokens, and a column counts
    characters (1-based), not bytes."""
    text = f"{sep}.regs{sep}P{sep}S\nIMPLY{sep}P{sep}{sep}P{sep}# P\n"
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert [(d.message, d.line, d.column) for d in info.value.diagnostics] == [
        ("IMPLY operands must differ", 2, 10)]


@pytest.mark.parametrize("brk", ["\x1c", "\x85", "\u2028", "\r\n"])
def test_line_breaks_move_the_line_number(brk):
    """Every `str.splitlines` boundary ends a line."""
    text = f".regs P{brk}FALSE Q{brk}{brk}LOAD P 2{brk}"
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert [(d.message, d.line, d.column) for d in info.value.diagnostics] == [
        ("undeclared register 'Q'", 2, 7),
        ("LOAD must precede all FALSE/IMPLY instructions", 4, 1)]


SOUP_LINE = st.sampled_from((".in P Q", ".out S", "LOAD P 1", "FALSE S", "IMPLY P S")) | st.builds(
    str.join, st.sampled_from(SOUP_SEPARATORS),
    st.lists(st.sampled_from(SOUP_WORDS) | st.text(max_size=3), max_size=4))
SOUP_TEXT = st.builds(
    lambda head, lines: head + "".join(lines),
    st.sampled_from(("", ".regs P Q S a_1 x9\n")),
    st.lists(st.builds(str.__add__, SOUP_LINE, st.sampled_from(SOUP_LINE_BREAKS)), max_size=8))


@settings(max_examples=300)
@given(SOUP_TEXT)
def test_any_text_is_refused_or_round_trips(text):
    """Arbitrary text either fails with located diagnostics in line order or
    parses to a program that round-trips; no other exception escapes."""
    try:
        prog = parse_program(text)
    except ParseError as exc:
        lines = [d.line for d in exc.diagnostics]
        assert lines and lines == sorted(lines)
        assert all(d.line >= 1 and d.column >= 1 for d in exc.diagnostics)
        return
    assert parse_program(format_program(prog)) == prog


@pytest.mark.parametrize("text, outcome", [
    # a repeated invalid line is reported at every occurrence
    (".regs P Q\nIMPLY P R\nFALSE P\nIMPLY P R\n",
     [("undeclared register 'R'", 2, 9), ("undeclared register 'R'", 4, 9)]),
    (".regs P\nFALSE 1P\nFALSE 1P\nLOAD P 2\nLOAD P 2\n",
     [("invalid identifier '1P'", 2, 7), ("invalid identifier '1P'", 3, 7),
      ("LOAD must precede all FALSE/IMPLY instructions", 4, 1),
      ("LOAD must precede all FALSE/IMPLY instructions", 5, 1)]),
    (".regs P\nLOAD P 2\nLOAD P 2\n",
     [("LOAD level must be 0 or 1, got '2'", 2, 8), ("LOAD level must be 0 or 1, got '2'", 3, 8)]),
    # undeclared before .regs, valid after it
    ("FALSE P\n.regs P\nFALSE P\nFALSE P\n", [("undeclared register 'P'", 1, 7)]),
    ("IMPLY P Q\n.regs P Q\nIMPLY P Q\n.regs R\nIMPLY P Q\n",
     [("undeclared register 'P'", 1, 7), ("undeclared register 'Q'", 1, 9),
      ("duplicate .regs directive", 4, 1)]),
    # a repeated LOAD after the first FALSE/IMPLY
    (".regs P Q\nLOAD P 1\nFALSE Q\nLOAD P 1\nLOAD P 1\n",
     [("LOAD must precede all FALSE/IMPLY instructions", 4, 1),
      ("LOAD must precede all FALSE/IMPLY instructions", 5, 1)]),
    # a repeated IMPLY X X
    (".regs X Y\nIMPLY X X\nFALSE Y\nIMPLY  X X # again\n",
     [("IMPLY operands must differ", 2, 9), ("IMPLY operands must differ", 4, 10)]),
    # repeated valid statements, spelled with other whitespace and comments
    (".regs A B\n.in A\nLOAD B 1\nLOAD\tB 1\nFALSE A\nIMPLY  A B # x\nFALSE A\nIMPLY A B\n",
     ".regs A B\n.in A\nLOAD B 1\nLOAD B 1\nFALSE A\nIMPLY A B\nFALSE A\nIMPLY A B\n"),
])
def test_repeated_statements_parse_as_each_alone(text, outcome):
    """A statement that occurs again is judged again where it stands: each
    invalid occurrence gets its diagnostic, and a valid one parses to the
    same instruction as its first occurrence."""
    assert soup_outcome(text) == outcome


def test_repeated_statements_give_the_body_of_their_formatted_text():
    rng = random.Random(25)
    statements = ["FALSE A", "FALSE B", "IMPLY A B", "IMPLY B A", "IMPLY C A", "FALSE C"]
    lines = [".regs A B C", ".in C", "LOAD A 1", "LOAD A 1", "LOAD B 0"]
    lines += [rng.choice(statements) for _ in range(200)]
    prog = parse_program("\n".join(lines) + "\n")
    assert [str(instr) for instr in prog.body] == lines[2:]
    assert prog.body == parse_program(format_program(prog)).body
    assert prog == parse_program(format_program(prog))


def located_statement_lines() -> range:
    """The lines of parse_program's located checks for a statement: the body of its
    ``elif head in _STATEMENTS:`` branch."""
    with open(ir.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    branch, = (node for node in ast.walk(tree) if isinstance(node, ast.If)
               and ast.unparse(node.test) == "head in _STATEMENTS")
    return range(branch.body[0].lineno, branch.body[-1].end_lineno + 1)


def traced_parse(text: str) -> tuple[list[str], list[Instruction], ParseError | None]:
    """``parse_program(text)`` counted from the line events in its frame that
    :func:`conftest.tracing` sees, as tests/test_analog.py counts _pulse's: the head of
    the statement at each line event in the located checks, the body list as the
    parser left it, and its ParseError."""
    lines, heads, left = located_statement_lines(), [], {}

    def note(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            heads.append(frame.f_locals["head"])
        elif event == "return":
            left["body"] = frame.f_locals["body"]

    with tracing(parse_program.__code__, note):
        try:
            parse_program(text)
            error = None
        except ParseError as exc:
            error = exc
    return heads, left["body"], error


VALID_TEXTS = {"adder8": format_program(gen_adder_serial(8)[0]),
               **{name: format_program(gate_program(name)) for name in GATES}}


class TestAcceptPath:
    """A valid FALSE/IMPLY line passes parse_program's accept test and is built there;
    only a line that fails it takes the located checks, and they report it."""

    @pytest.mark.parametrize("name", VALID_TEXTS)
    def test_valid_lines_never_take_the_located_checks(self, name):
        heads, body, error = traced_parse(VALID_TEXTS[name])
        assert error is None
        assert {"FALSE", "IMPLY"}.isdisjoint(heads), heads
        assert len(body) == sum(line.startswith(("FALSE", "IMPLY"))
                                for line in VALID_TEXTS[name].splitlines())

    @pytest.mark.parametrize("line, message, column", [
        ("FALSE", "FALSE takes exactly one register", 1),
        ("FALSE X Y", "FALSE takes exactly one register", 1),
        ("IMPLY X", "IMPLY takes exactly two registers", 1),
        ("IMPLY X Y X", "IMPLY takes exactly two registers", 1),
        ("FALSE Z", "undeclared register 'Z'", 7),
        ("IMPLY X Z", "undeclared register 'Z'", 9),
        ("FALSE 1X", "invalid identifier '1X'", 7),
        ("IMPLY X-Y X", "invalid identifier 'X-Y'", 7),
        ("IMPLY X X", "IMPLY operands must differ", 9),
    ], ids=["false-no-operand", "false-two-operands", "imply-one-operand",
            "imply-three-operands", "false-undeclared", "imply-undeclared",
            "false-not-identifier", "imply-not-identifier", "imply-same-operand"])
    def test_a_line_that_fails_the_accept_test_is_reported(self, line, message, column):
        heads, body, error = traced_parse(f".regs X Y\nFALSE X\n{line}\nIMPLY X Y\n")
        assert heads and set(heads) == {line.split()[0]}
        assert error.diagnostics == [(message, 3, column)]
        assert body == [false_("X"), imply("X", "Y")]

    def test_a_line_before_regs_is_reported(self):
        heads, body, error = traced_parse("IMPLY X Y\n.regs X Y\nFALSE X\nIMPLY X Y\n")
        assert heads and set(heads) == {"IMPLY"}
        assert error.diagnostics == [("undeclared register 'X'", 1, 7),
                                     ("undeclared register 'Y'", 1, 9)]
        assert body == [false_("X"), imply("X", "Y")]

    def test_every_instruction_is_its_builders(self):
        rng = random.Random(7)
        texts = [*VALID_TEXTS.values(), *(format_program(random_program(rng)) for _ in range(200))]
        for text in texts:
            statements = [line.split() for line in text.splitlines() if line[0] != "."]
            want = [false_(ops[0]) if head == "FALSE" else imply(*ops) if head == "IMPLY"
                    else load(ops[0], int(ops[1])) for head, *ops in statements]
            body = parse_program(text).body
            assert body == tuple(want), text
            assert {type(instr) for instr in body} <= {Instruction}
