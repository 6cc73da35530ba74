"""Two-pass RV32I/E assembler with pseudo-instructions and ``.macro`` support.

This stands in for the GNU assembler in the paper's toolflow: the MicroC
compiler emits assembly text, this module turns it into the flat binary that
Step 1 of the RISSP methodology characterises.  ``.macro``/``.endm`` are
supported because the Section 5 retargeting flow recompiles applications
against a generated ``macro.S``.

Grammar notes:
  * comments: ``#`` or ``//`` to end of line
  * labels: ``name:`` (may share a line with an instruction)
  * directives: ``.text .data .section .word .half .byte .space .zero
    .align .asciz .string .globl .equ .set .macro .endm``
  * operands: registers (ABI or xN), immediate expressions with ``+ - ( )``,
    ``%hi(sym)`` / ``%lo(sym)``, ``imm(reg)`` memory operands, label refs
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .bits import sign_extend, to_u32
from .csrs import CSR_BY_NAME
from .encoding import EncodingError, Instruction, encode
from .instructions import BY_MNEMONIC, Format
from .program import DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE, Program
from .registers import RV32E_NUM_REGS, RV32I_NUM_REGS, RegisterError, parse_register


class AssemblerError(ValueError):
    """Assembly failure with source line context."""

    def __init__(self, message: str, line_no: int | None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


@dataclass
class _Item:
    """One placed element: an instruction or data blob within a section."""

    kind: str                 # "instr" | "data"
    section: str              # "text" | "data"
    mnemonic: str = ""
    operands: list[str] = field(default_factory=list)
    data: bytearray = field(default_factory=bytearray)
    line_no: int = 0
    # Filled in by the passes: the layout places the item, data
    # directives add (offset, expression, width) fields to resolve.
    addr: int = field(init=False, default=0)
    exprs: list[tuple[int, str, int]] = field(init=False,
                                              default_factory=list)


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_MACRO_ARG_RE = re.compile(r"\\([A-Za-z_]\w*)")


def _strip_comment(line: str) -> str:
    for marker in ("#", "//"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line.strip()


def _split_operands(rest: str) -> list[str]:
    """Split an operand string on top-level commas (parens may nest)."""
    ops: list[str] = []
    depth = 0
    current = ""
    for ch in rest:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            ops.append(current.strip())
            current = ""
        else:
            current += ch
    if current.strip():
        ops.append(current.strip())
    return ops


class Assembler:
    """Assemble RV32I/E source text into a :class:`Program` with ``.text``
    at :data:`DEFAULT_TEXT_BASE` and ``.data`` at :data:`DEFAULT_DATA_BASE`.

    Args:
        isa: "rv32e" (default, 16 registers) or "rv32i" (32 registers).
    """

    def __init__(self, isa: str = "rv32e"):
        if isa not in ("rv32e", "rv32i"):
            raise ValueError(f"unsupported ISA {isa!r}")
        self.isa = isa
        self.num_regs = RV32E_NUM_REGS if isa == "rv32e" else RV32I_NUM_REGS
        self._macros: dict[str, tuple[list[str], list[str]]] = {}
        self._equates: dict[str, int] = {}

    # ------------------------------------------------------------------ API

    def assemble(self, source: str, entry_symbol: str = "main") -> Program:
        """Assemble ``source`` and resolve all symbols.

        ``entry_symbol`` selects the entry point if defined; otherwise the
        program entry is the start of ``.text``.
        """
        items, labels = self._first_pass(source)
        self._layout(items, labels)
        return self._second_pass(items, labels, entry_symbol)

    # ------------------------------------------------------------ first pass

    def _first_pass(self, source: str):
        items: list[_Item] = []
        labels: dict[str, tuple[str, int]] = {}  # name -> (section, item idx)
        section = "text"
        pending_labels: list[str] = []
        macro_body: list[str] | None = None
        macro_name = ""
        macro_params: list[str] = []

        lines = source.splitlines()
        expanded: list[tuple[int, str]] = []
        for line_no, raw in enumerate(lines, start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            if macro_body is not None:
                if line.split()[0].lower() == ".endm":
                    self._macros[macro_name] = (macro_params, macro_body)
                    macro_body = None
                else:
                    macro_body.append(line)
                continue
            first = line.split()[0].lower()
            if first == ".macro":
                parts = _split_operands(line[len(".macro"):].strip())
                if not parts:
                    parts = line.split()[1:]
                head = parts[0].split()
                macro_name = head[0].lower()
                macro_params = head[1:] + [p.strip() for p in parts[1:]]
                macro_body = []
                continue
            expanded.extend(self._expand_line(line, line_no))

        for line_no, line in expanded:
            while True:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                pending_labels.append(match.group(1))
                line = match.group(2).strip()
            if not line:
                continue
            parts = line.split(None, 1)
            op = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if op.startswith("."):
                section = self._directive(op, rest, section, items,
                                          pending_labels, labels, line_no)
                continue
            for name in pending_labels:
                labels[name] = (section, len(items))
            pending_labels.clear()
            if section != "text":
                raise AssemblerError("instruction outside .text", line_no)
            for mnem, ops in self._expand_pseudo(op, _split_operands(rest),
                                                 line_no):
                items.append(_Item("instr", "text", mnemonic=mnem,
                                   operands=ops, line_no=line_no))
        for name in pending_labels:
            labels[name] = (section, len(items))
        return items, labels

    def _expand_line(self, line: str, line_no: int) -> list[tuple[int, str]]:
        """Expand macro invocations (recursively, depth-limited)."""
        match = _LABEL_RE.match(line)
        prefix = ""
        body = line
        if match:
            prefix = match.group(1) + ": "
            body = match.group(2).strip()
            if not body:
                return [(line_no, line)]
        op = body.split()[0].lower() if body else ""
        if op not in self._macros:
            return [(line_no, line)]
        params, template = self._macros[op]
        args = _split_operands(body[len(op):].strip())
        if len(args) > len(params):
            raise AssemblerError(
                f"macro {op!r} takes {len(params)} args, got {len(args)}",
                line_no)
        binding = {p: (args[i] if i < len(args) else "")
                   for i, p in enumerate(params)}

        def sub(match: re.Match) -> str:
            name = match.group(1)
            if name not in binding:
                raise AssemblerError(
                    f"macro {op!r}: unknown parameter \\{name}", line_no)
            return binding[name]

        out: list[tuple[int, str]] = []
        if prefix:
            out.append((line_no, prefix.rstrip()))
        for tmpl_line in template:
            expanded = _MACRO_ARG_RE.sub(sub, tmpl_line)
            out.extend(self._expand_line(expanded, line_no))
        return out

    # ------------------------------------------------------------ directives

    def _directive(self, op, rest, section, items, pending_labels, labels,
                   line_no):
        def flush_labels():
            for name in pending_labels:
                labels[name] = (section, len(items))
            pending_labels.clear()

        if op in (".text",):
            return "text"
        if op in (".data", ".bss", ".rodata"):
            return "data"
        if op == ".section":
            name = rest.split(",")[0].strip()
            return "text" if name.startswith(".text") else "data"
        if op in (".globl", ".global", ".type", ".size", ".file", ".option",
                  ".attribute", ".ident", ".p2align"):
            return section
        if op in (".equ", ".set"):
            parts = _split_operands(rest)
            if len(parts) != 2:
                raise AssemblerError(f"{op} needs name, value", line_no)
            self._equates[parts[0]] = self._eval_const(parts[1], line_no)
            return section
        if op == ".align":
            flush_labels()
            amount = 1 << self._eval_const(rest, line_no)
            items.append(_Item("data", section, data=bytearray(),
                               line_no=line_no, mnemonic=f"align:{amount}"))
            return section
        if op in (".word", ".long"):
            flush_labels()
            item = _Item("data", section, line_no=line_no)
            for expr in _split_operands(rest):
                item.exprs.append((len(item.data), expr, 4))
                item.data += b"\x00\x00\x00\x00"
            items.append(item)
            return section
        if op in (".half", ".short"):
            flush_labels()
            item = _Item("data", section, line_no=line_no)
            for expr in _split_operands(rest):
                item.exprs.append((len(item.data), expr, 2))
                item.data += b"\x00\x00"
            items.append(item)
            return section
        if op == ".byte":
            flush_labels()
            item = _Item("data", section, line_no=line_no)
            for expr in _split_operands(rest):
                item.exprs.append((len(item.data), expr, 1))
                item.data += b"\x00"
            items.append(item)
            return section
        if op in (".space", ".zero", ".skip"):
            flush_labels()
            size = self._eval_const(rest, line_no)
            items.append(_Item("data", section, data=bytearray(size),
                               line_no=line_no))
            return section
        if op in (".asciz", ".string", ".ascii"):
            flush_labels()
            text = rest.strip()
            if not (text.startswith('"') and text.endswith('"')):
                raise AssemblerError(f"{op} needs a quoted string", line_no)
            raw = text[1:-1].encode().decode("unicode_escape").encode("latin1")
            data = bytearray(raw)
            if op != ".ascii":
                data.append(0)
            items.append(_Item("data", section, data=data, line_no=line_no))
            return section
        raise AssemblerError(f"unknown directive {op!r}", line_no)

    # ------------------------------------------------------------- pseudos

    def _expand_pseudo(self, op: str, ops: list[str],
                       line_no: int) -> list[tuple[str, list[str]]]:
        """Expand pseudo-instructions to base instructions (fixed sizes)."""
        def need(count: int):
            if len(ops) != count:
                raise AssemblerError(
                    f"{op} expects {count} operands, got {len(ops)}", line_no)

        if op in BY_MNEMONIC:
            return [(op, ops)]
        if op == "nop":
            return [("addi", ["x0", "x0", "0"])]
        if op == "li":
            need(2)
            value = self._eval_const(ops[1], line_no)
            value_s = sign_extend(value, 32)
            if -2048 <= value_s <= 2047:
                return [("addi", [ops[0], "x0", str(value_s)])]
            field20 = (to_u32(value_s + 0x800) >> 12) & 0xFFFFF
            lower = sign_extend(to_u32(value_s) & 0xFFF, 12)
            out = [("lui", [ops[0], str(field20)])]
            if lower != 0:
                out.append(("addi", [ops[0], ops[0], str(lower)]))
            return out
        if op == "la":
            need(2)
            return [("lui", [ops[0], f"%hi({ops[1]})"]),
                    ("addi", [ops[0], ops[0], f"%lo({ops[1]})"])]
        if op == "mv":
            need(2)
            return [("addi", [ops[0], ops[1], "0"])]
        if op == "not":
            need(2)
            return [("xori", [ops[0], ops[1], "-1"])]
        if op == "neg":
            need(2)
            return [("sub", [ops[0], "x0", ops[1]])]
        if op == "seqz":
            need(2)
            return [("sltiu", [ops[0], ops[1], "1"])]
        if op == "snez":
            need(2)
            return [("sltu", [ops[0], "x0", ops[1]])]
        if op == "sltz":
            need(2)
            return [("slt", [ops[0], ops[1], "x0"])]
        if op == "sgtz":
            need(2)
            return [("slt", [ops[0], "x0", ops[1]])]
        if op == "beqz":
            need(2)
            return [("beq", [ops[0], "x0", ops[1]])]
        if op == "bnez":
            need(2)
            return [("bne", [ops[0], "x0", ops[1]])]
        if op == "bgez":
            need(2)
            return [("bge", [ops[0], "x0", ops[1]])]
        if op == "bltz":
            need(2)
            return [("blt", [ops[0], "x0", ops[1]])]
        if op == "blez":
            need(2)
            return [("bge", ["x0", ops[0], ops[1]])]
        if op == "bgtz":
            need(2)
            return [("blt", ["x0", ops[0], ops[1]])]
        if op == "bgt":
            need(3)
            return [("blt", [ops[1], ops[0], ops[2]])]
        if op == "ble":
            need(3)
            return [("bge", [ops[1], ops[0], ops[2]])]
        if op == "bgtu":
            need(3)
            return [("bltu", [ops[1], ops[0], ops[2]])]
        if op == "bleu":
            need(3)
            return [("bgeu", [ops[1], ops[0], ops[2]])]
        if op == "csrr":
            need(2)
            return [("csrrs", [ops[0], ops[1], "x0"])]
        if op == "csrw":
            need(2)
            return [("csrrw", ["x0", ops[0], ops[1]])]
        if op == "csrs":
            need(2)
            return [("csrrs", ["x0", ops[0], ops[1]])]
        if op == "csrc":
            need(2)
            return [("csrrc", ["x0", ops[0], ops[1]])]
        if op == "csrwi":
            need(2)
            return [("csrrwi", ["x0", ops[0], ops[1]])]
        if op == "csrsi":
            need(2)
            return [("csrrsi", ["x0", ops[0], ops[1]])]
        if op == "csrci":
            need(2)
            return [("csrrci", ["x0", ops[0], ops[1]])]
        if op == "j":
            need(1)
            return [("jal", ["x0", ops[0]])]
        if op == "jr":
            need(1)
            return [("jalr", ["x0", ops[0], "0"])]
        if op == "ret":
            need(0)
            return [("jalr", ["x0", "ra", "0"])]
        if op == "call":
            need(1)
            return [("jal", ["ra", ops[0]])]
        if op == "tail":
            need(1)
            return [("jal", ["x0", ops[0]])]
        raise AssemblerError(f"unknown instruction or macro {op!r}", line_no)

    # --------------------------------------------------------------- layout

    def _layout(self, items: list[_Item], labels) -> None:
        addr = {"text": DEFAULT_TEXT_BASE, "data": DEFAULT_DATA_BASE}
        for item in items:
            section = item.section
            if item.mnemonic.startswith("align:"):
                amount = int(item.mnemonic.split(":")[1])
                pad = (-addr[section]) % amount
                item.data = bytearray(pad)
                item.mnemonic = ""
            item.addr = addr[section]
            if item.kind == "instr":
                addr[section] += 4
            else:
                addr[section] += len(item.data)
        self._label_addrs = {}
        end = dict(addr)
        for name, (section, idx) in labels.items():
            if idx < len(items):
                target_addr = None
                for item in items[idx:]:
                    if item.section == section:
                        target_addr = item.addr
                        break
                if target_addr is None:
                    target_addr = end[section]
            else:
                target_addr = end[section]
            self._label_addrs[name] = target_addr

    # ------------------------------------------------------- expression eval

    _TOKEN_RE = re.compile(
        r"\s*(%hi|%lo|0[xX][0-9a-fA-F]+|0[bB][01]+|\d+|'(?:\\.|[^'])'"
        r"|[A-Za-z_.$][\w.$]*|>>|<<|[()+\-*&])")

    def _eval_expr(self, text: str, line_no: int,
                   symbols: dict[str, int] | None) -> int:
        """Evaluate an operand expression; ``symbols=None`` = constants only."""
        tokens: list[str] = []
        pos = 0
        while pos < len(text):
            match = self._TOKEN_RE.match(text, pos)
            if not match:
                raise AssemblerError(f"bad expression {text!r}", line_no)
            tokens.append(match.group(1))
            pos = match.end()
        self._tokens = tokens
        self._tpos = 0
        value = self._parse_shift(line_no, symbols)
        if self._tpos != len(tokens):
            raise AssemblerError(f"trailing tokens in {text!r}", line_no)
        return value

    def _peek(self):
        return self._tokens[self._tpos] if self._tpos < len(self._tokens) else None

    def _next(self):
        tok = self._peek()
        self._tpos += 1
        return tok

    def _parse_shift(self, line_no, symbols) -> int:
        value = self._parse_sum(line_no, symbols)
        while self._peek() in (">>", "<<", "&"):
            op = self._next()
            rhs = self._parse_sum(line_no, symbols)
            if op == ">>":
                value >>= rhs
            elif op == "<<":
                value <<= rhs
            else:
                value &= rhs
        return value

    def _parse_sum(self, line_no, symbols) -> int:
        value = self._parse_term(line_no, symbols)
        while self._peek() in ("+", "-"):
            if self._next() == "+":
                value += self._parse_term(line_no, symbols)
            else:
                value -= self._parse_term(line_no, symbols)
        return value

    def _parse_term(self, line_no, symbols) -> int:
        value = self._parse_atom(line_no, symbols)
        while self._peek() == "*":
            self._next()
            value *= self._parse_atom(line_no, symbols)
        return value

    def _parse_atom(self, line_no, symbols) -> int:
        tok = self._next()
        if tok is None:
            raise AssemblerError("unexpected end of expression", line_no)
        if tok == "-":
            return -self._parse_atom(line_no, symbols)
        if tok == "+":
            return self._parse_atom(line_no, symbols)
        if tok == "(":
            value = self._parse_shift(line_no, symbols)
            if self._next() != ")":
                raise AssemblerError("missing ')'", line_no)
            return value
        if tok in ("%hi", "%lo"):
            if self._next() != "(":
                raise AssemblerError(f"{tok} needs parenthesised arg", line_no)
            value = self._parse_shift(line_no, symbols)
            if self._next() != ")":
                raise AssemblerError("missing ')'", line_no)
            if tok == "%hi":
                # GNU as convention: %hi yields the 20-bit lui *field*.
                return ((to_u32(value) + 0x800) >> 12) & 0xFFFFF
            return sign_extend(to_u32(value) & 0xFFF, 12)
        if tok.startswith("0x") or tok.startswith("0X"):
            return int(tok, 16)
        if tok.startswith("0b") or tok.startswith("0B"):
            return int(tok, 2)
        if tok.isdigit():
            return int(tok, 10)
        if tok.startswith("'"):
            inner = tok[1:-1].encode().decode("unicode_escape")
            return ord(inner)
        if tok in self._equates:
            return self._equates[tok]
        if symbols is not None:
            if tok not in symbols:
                raise AssemblerError(f"undefined symbol {tok!r}", line_no)
            return symbols[tok]
        raise AssemblerError(f"symbol {tok!r} in constant expression", line_no)

    def _eval_const(self, text: str, line_no: int) -> int:
        return self._eval_expr(text, line_no, None)

    # ---------------------------------------------------------- second pass

    def _second_pass(self, items: list[_Item], labels, entry_symbol) -> Program:
        symbols = dict(self._equates)
        symbols.update(self._label_addrs)
        text_words: list[int] = []
        data = bytearray()
        for item in items:
            if item.kind == "data":
                blob = bytearray(item.data)
                for offset, expr, width in item.exprs:
                    value = to_u32(self._eval_expr(expr, item.line_no, symbols))
                    blob[offset:offset + width] = value.to_bytes(
                        4, "little")[:width]
                if item.section == "data":
                    data += blob
                else:
                    if len(blob) % 4:
                        raise AssemblerError(
                            "unaligned data in .text", item.line_no)
                    for idx in range(0, len(blob), 4):
                        text_words.append(
                            int.from_bytes(blob[idx:idx + 4], "little"))
                continue
            text_words.append(self._encode_item(item, symbols))
        return Program(text_words=text_words, data_bytes=data,
                       symbols=dict(symbols), text_base=DEFAULT_TEXT_BASE,
                       data_base=DEFAULT_DATA_BASE,
                       entry=symbols.get(entry_symbol, DEFAULT_TEXT_BASE))

    def _encode_item(self, item: _Item, symbols) -> int:
        d = BY_MNEMONIC[item.mnemonic]
        ops = item.operands
        line_no = item.line_no

        def reg(text: str) -> int:
            try:
                return parse_register(text, self.num_regs)
            except RegisterError as exc:
                raise AssemblerError(str(exc), line_no) from None

        def imm(text: str) -> int:
            return self._eval_expr(text, line_no, symbols)

        def csr_operand(text: str) -> int:
            key = text.strip().lower()
            if key in CSR_BY_NAME:
                return CSR_BY_NAME[key]
            value = imm(text)
            if not 0 <= value < (1 << 12):
                raise AssemblerError(f"csr address {value:#x} out of range",
                                     line_no)
            return value

        def mem_operand(text: str) -> tuple[int, int]:
            """Parse ``offset(reg)`` or bare ``offset``."""
            match = re.match(r"^(.*)\(\s*([^()]+)\s*\)\s*$", text)
            if match:
                offset_text = match.group(1).strip() or "0"
                return imm(offset_text), reg(match.group(2))
            return imm(text), 0

        try:
            if d.fmt is Format.R:
                if len(ops) != 3:
                    raise AssemblerError(f"{d.mnemonic} needs 3 operands",
                                         line_no)
                instr = Instruction(d.mnemonic, rd=reg(ops[0]),
                                    rs1=reg(ops[1]), rs2=reg(ops[2]))
            elif d.fmt is Format.I and d.opcode == 0b0000011:  # loads
                if len(ops) != 2:
                    raise AssemblerError(f"{d.mnemonic} needs rd, off(rs1)",
                                         line_no)
                offset, base = mem_operand(ops[1])
                instr = Instruction(d.mnemonic, rd=reg(ops[0]), rs1=base,
                                    imm=offset)
            elif d.mnemonic == "jalr":
                if len(ops) == 3:
                    instr = Instruction("jalr", rd=reg(ops[0]),
                                        rs1=reg(ops[1]), imm=imm(ops[2]))
                elif len(ops) == 2 and "(" in ops[1]:
                    offset, base = mem_operand(ops[1])
                    instr = Instruction("jalr", rd=reg(ops[0]), rs1=base,
                                        imm=offset)
                else:
                    raise AssemblerError("jalr needs rd, rs1, imm", line_no)
            elif d.fmt is Format.I:
                if len(ops) != 3:
                    raise AssemblerError(f"{d.mnemonic} needs 3 operands",
                                         line_no)
                instr = Instruction(d.mnemonic, rd=reg(ops[0]),
                                    rs1=reg(ops[1]), imm=imm(ops[2]))
            elif d.fmt is Format.S:
                if len(ops) != 2:
                    raise AssemblerError(f"{d.mnemonic} needs rs2, off(rs1)",
                                         line_no)
                offset, base = mem_operand(ops[1])
                instr = Instruction(d.mnemonic, rs1=base, rs2=reg(ops[0]),
                                    imm=offset)
            elif d.fmt is Format.B:
                if len(ops) != 3:
                    raise AssemblerError(f"{d.mnemonic} needs rs1, rs2, target",
                                         line_no)
                target = imm(ops[2])
                instr = Instruction(d.mnemonic, rs1=reg(ops[0]),
                                    rs2=reg(ops[1]), imm=target - item.addr)
            elif d.fmt is Format.U:
                if len(ops) != 2:
                    raise AssemblerError(f"{d.mnemonic} needs rd, imm", line_no)
                value = imm(ops[1])
                if 0 <= value < (1 << 20):
                    # GNU as form: the operand is the 20-bit upper field.
                    value <<= 12
                elif to_u32(value) & 0xFFF:
                    raise AssemblerError(
                        f"{d.mnemonic} operand {value:#x} is neither a 20-bit "
                        f"field nor a shifted upper immediate", line_no)
                instr = Instruction(d.mnemonic, rd=reg(ops[0]),
                                    imm=sign_extend(to_u32(value), 32))
            elif d.fmt is Format.J:
                if len(ops) != 2:
                    raise AssemblerError("jal needs rd, target", line_no)
                instr = Instruction("jal", rd=reg(ops[0]),
                                    imm=imm(ops[1]) - item.addr)
            elif d.fmt is Format.CSR:
                if len(ops) != 3:
                    raise AssemblerError(
                        f"{d.mnemonic} needs rd, csr, "
                        f"{'uimm' if d.csr_uimm else 'rs1'}", line_no)
                if d.csr_uimm:
                    uimm = imm(ops[2])
                    if not 0 <= uimm < 32:
                        raise AssemblerError(
                            f"{d.mnemonic} uimm {uimm} not a 5-bit unsigned "
                            f"value", line_no)
                    source = uimm
                else:
                    source = reg(ops[2])
                instr = Instruction(d.mnemonic, rd=reg(ops[0]), rs1=source,
                                    imm=csr_operand(ops[1]))
            else:  # SYS
                instr = Instruction(d.mnemonic)
            return encode(instr, self.num_regs)
        except EncodingError as exc:
            raise AssemblerError(str(exc), line_no) from None


def assemble(source: str, isa: str = "rv32e", **kwargs) -> Program:
    """Convenience wrapper: assemble ``source`` with default bases."""
    return Assembler(isa=isa).assemble(source, **kwargs)
