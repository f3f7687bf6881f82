"""Text format for IMPLY microcode (`.imply` files).

Grammar, one statement per line, `#` starts a comment:

    .regs <id>+
    .in <id>+
    .out <id>+
    LOAD <id> <0|1>
    FALSE <id>
    IMPLY <id> <id>

Identifiers are a letter followed by letters, digits, or underscores.
Registers must be declared before use, and all LOADs must precede the
first FALSE/IMPLY.  :func:`format_program` emits a canonical form whose
round-trip through :func:`parse_program` is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import _IDENT, Instruction, Program, false_, imply, load


@dataclass(frozen=True)
class Diagnostic:
    """One located parse error."""

    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Split a line into (token, 1-based column) pairs, dropping comments."""
    code = line.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


def parse_program(text: str) -> Program:
    """Parse source text, raising :class:`ParseError` with every located
    error found."""
    diags: list[Diagnostic] = []
    registers: list[str] = []
    inputs: list[str] = []
    outputs: list[str] = []
    body: list[Instruction] = []
    seen_directive: dict[str, bool] = {}
    seen_compute = False

    def err(msg: str, line: int, col: int) -> None:
        diags.append(Diagnostic(msg, line, col))

    def check_ident(tok: str, line: int, col: int) -> bool:
        if not _IDENT.fullmatch(tok):
            err(f"invalid identifier '{tok}'", line, col)
            return False
        return True

    def check_declared(tok: str, line: int, col: int) -> bool:
        if tok not in registers:
            err(f"undeclared register '{tok}'", line, col)
            return False
        return True

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        if not toks:
            continue
        head, hcol = toks[0]
        args = toks[1:]

        if head in (".regs", ".in", ".out"):
            if seen_directive.get(head):
                err(f"duplicate {head} directive", lineno, hcol)
                continue
            seen_directive[head] = True
            if not args:
                err(f"{head} requires at least one register", lineno, hcol)
                continue
            dest = {".regs": registers, ".in": inputs, ".out": outputs}[head]
            for tok, col in args:
                if not check_ident(tok, lineno, col):
                    continue
                if head == ".regs":
                    if tok in registers:
                        err(f"register '{tok}' declared twice", lineno, col)
                    else:
                        dest.append(tok)
                else:
                    if check_declared(tok, lineno, col):
                        if tok in dest:
                            err(f"register '{tok}' listed twice in {head}", lineno, col)
                        else:
                            dest.append(tok)
        elif head == "FALSE":
            seen_compute = True
            if len(args) != 1:
                err("FALSE takes exactly one register", lineno, hcol)
                continue
            tok, col = args[0]
            if check_ident(tok, lineno, col) and check_declared(tok, lineno, col):
                body.append(false_(tok))
        elif head == "IMPLY":
            seen_compute = True
            if len(args) != 2:
                err("IMPLY takes exactly two registers", lineno, hcol)
                continue
            ok = True
            for tok, col in args:
                ok = check_ident(tok, lineno, col) and check_declared(tok, lineno, col) and ok
            if not ok:
                continue
            (src, _), (dst, dcol) = args
            if src == dst:
                err("IMPLY operands must differ", lineno, dcol)
                continue
            body.append(imply(src, dst))
        elif head == "LOAD":
            if seen_compute:
                err("LOAD must precede all FALSE/IMPLY instructions", lineno, hcol)
                continue
            if len(args) != 2:
                err("LOAD takes a register and a level (0 or 1)", lineno, hcol)
                continue
            (tok, col), (val, vcol) = args
            if not (check_ident(tok, lineno, col) and check_declared(tok, lineno, col)):
                continue
            if val not in ("0", "1"):
                err(f"LOAD level must be 0 or 1, got '{val}'", lineno, vcol)
                continue
            body.append(load(tok, int(val)))
        else:
            err(f"unknown mnemonic '{head}'", lineno, hcol)

    if diags:
        raise ParseError(diags)
    return Program(
        registers=tuple(registers),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        body=tuple(body),
    )


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
