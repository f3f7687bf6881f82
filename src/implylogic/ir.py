"""Text format for IMPLY microcode (`.imply` files).

Grammar, one statement per line (any Unicode whitespace separates tokens),
`#` starts a comment:

    .regs <id>+
    .in <id>+
    .out <id>+
    LOAD <id> <0|1>
    FALSE <id>
    IMPLY <id> <id>

Identifiers are a letter followed by letters, digits, or underscores.
Registers must be declared before use, and all LOADs must precede the
first FALSE/IMPLY.  A :class:`ParseError` lists every diagnostic in line
order, its column counting characters.  :func:`format_program` emits a
canonical form whose round-trip through :func:`parse_program` is the identity.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .core import _IDENT, ImplyLogicError, Instruction, Opcode, Program, load


class Diagnostic(NamedTuple):
    """One located parse error."""

    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class ParseError(ImplyLogicError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


#: mnemonic: (operand count, usage message); LOAD's second operand is a level
_STATEMENTS = {
    "FALSE": (1, "FALSE takes exactly one register"),
    "IMPLY": (2, "IMPLY takes exactly two registers"),
    "LOAD": (2, "LOAD takes a register and a level (0 or 1)"),
}


def parse_program(text: str) -> Program:
    """Parse source text, raising :class:`ParseError` with every located
    error found, in line order."""
    diags: list[Diagnostic] = []
    lists: dict[str, dict[str, None] | None] = {".regs": None, ".in": None, ".out": None}
    declared: set[str] = set()
    body: list[Instruction] = []
    built: dict[str, Instruction] = {}  # valid statement lines: valid again unless a late LOAD
    seen_compute = False

    def err(msg: str, index: int = 0) -> bool:
        """Report ``msg`` at token ``index`` of the current line, comments dropped."""
        columns = [m.start() + 1 for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        diags.append(Diagnostic(msg, lineno, columns[index]))
        return False

    def register(index: int, declaring: bool = False) -> bool:
        """Whether token ``index`` is an identifier, declared unless
        ``declaring``; reports it if not."""
        tok = toks[index]
        if tok in declared:  # its .regs entry passed the identifier check
            return True
        if not _IDENT.fullmatch(tok):
            return err(f"invalid identifier '{tok}'", index)
        return declaring or err(f"undeclared register '{tok}'", index)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if (instr := built.get(raw)) and not (seen_compute and instr.op is Opcode.LOAD):
            seen_compute = instr.op is not Opcode.LOAD  # a LOAD here means none came yet
            body.append(instr)
            continue
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        # the one shape of a valid FALSE/IMPLY line: declared operands, two distinct ones
        # for IMPLY; any other line takes the located checks below, which report it
        head = toks[0]
        if head == "FALSE" and len(toks) == 2 and toks[1] in declared:
            instr = Instruction(Opcode.FALSE, toks[1])
        elif (head == "IMPLY" and len(toks) == 3 and toks[1] != toks[2]
              and toks[1] in declared and toks[2] in declared):
            instr = Instruction(Opcode.IMPLY, toks[2], toks[1])
        else:
            instr = None
        if instr:
            seen_compute = True
            body.append(instr)
            built[raw] = instr
            continue
        args = toks[1:]

        if head in lists:
            if lists[head] is not None:
                err(f"duplicate {head} directive")
                continue
            names = lists[head] = {}
            if not args:
                err(f"{head} requires at least one register")
            twice = "declared twice" if head == ".regs" else f"listed twice in {head}"
            for index, tok in enumerate(args, start=1):
                if not register(index, declaring=head == ".regs"):
                    continue
                if tok in names:
                    err(f"register '{tok}' {twice}", index)
                    continue
                names[tok] = None
                if head == ".regs":
                    declared.add(tok)
        elif head in _STATEMENTS:
            if head == "LOAD" and seen_compute:
                err("LOAD must precede all FALSE/IMPLY instructions")
                continue
            seen_compute = seen_compute or head != "LOAD"
            count, usage = _STATEMENTS[head]
            if len(args) != count:
                err(usage)
                continue
            reg_tokens = range(1, 2 if head == "LOAD" else count + 1)
            if not all([register(index) for index in reg_tokens]):  # a list: report both
                continue
            if head == "LOAD" and args[1] not in ("0", "1"):
                err(f"LOAD level must be 0 or 1, got '{args[1]}'", 2)
            elif head == "IMPLY" and args[0] == args[1]:
                err("IMPLY operands must differ", 2)
            else:  # a LOAD: a FALSE/IMPLY line valid here passed the accept test above
                body.append(built.setdefault(raw, load(args[0], int(args[1]))))
        else:
            err(f"unknown mnemonic '{head}'")

    if diags:
        raise ParseError(diags)
    regs, ins, outs = (tuple(names or ()) for names in lists.values())
    return Program(registers=regs, inputs=ins, outputs=outs, body=tuple(body))


def format_program(prog: Program) -> str:
    """Canonical text: directives, then LOADs, then the compute body."""
    lines = []
    if prog.registers:
        lines.append(".regs " + " ".join(prog.registers))
    if prog.inputs:
        lines.append(".in " + " ".join(prog.inputs))
    if prog.outputs:
        lines.append(".out " + " ".join(prog.outputs))
    lines.extend(str(instr) for instr in prog.body)
    return "\n".join(lines) + ("\n" if lines else "")
