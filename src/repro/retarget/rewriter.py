"""Assembly rewriting against a verified macro set (Figure 11 right side).

Takes compiler-produced assembly for the full ISA, expands pseudo
instructions, and rewrites every instruction outside the target subset
using the verified macros.  Emits both the rewritten assembly and a
``macro.S``-style record of the transformations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..isa.assembler import Assembler, _split_operands, _strip_comment
from ..isa.instructions import BRANCHES, LOADS, STORES
from .synthesizer import SynthesisReport, synthesize_macros
from .templates import MINIMAL_SUBSET, TEMP0

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_MEM_RE = re.compile(r"^(.*)\(\s*([^()]+)\s*\)\s*$")


@dataclass
class RetargetResult:
    assembly: str
    macro_file: str
    report: SynthesisReport
    rewritten_count: int


class AssemblyRewriter:
    def __init__(self, subset: tuple[str, ...] = MINIMAL_SUBSET,
                 report: SynthesisReport | None = None):
        self.subset = tuple(subset)
        self.report = report
        self._asm = Assembler()
        self._label_count = 0
        self.rewritten = 0

    def _fresh_label(self) -> str:
        self._label_count += 1
        return f".Lrt{self._label_count}"

    # ----------------------------------------------------------- rewriting

    def rewrite(self, assembly: str) -> RetargetResult:
        needed = self._scan_unsupported(assembly)
        if self.report is None:
            self.report = synthesize_macros(sorted(needed),
                                            subset=self.subset)
        out: list[str] = []
        for raw in assembly.splitlines():
            line = _strip_comment(raw)
            if not line:
                continue
            match = _LABEL_RE.match(line)
            if match:
                out.append(f"{match.group(1)}:")
                line = match.group(2).strip()
                if not line:
                    continue
            if line.startswith("."):
                out.append(line)
                continue
            out.extend(self._rewrite_instruction(line))
        macro_file = self._emit_macro_file()
        return RetargetResult(assembly="\n".join(out) + "\n",
                              macro_file=macro_file,
                              report=self.report,
                              rewritten_count=self.rewritten)

    def _scan_unsupported(self, assembly: str) -> set[str]:
        needed: set[str] = set()
        for raw in assembly.splitlines():
            line = _strip_comment(raw)
            match = _LABEL_RE.match(line) if line else None
            if match:
                line = match.group(2).strip()
            if not line or line.startswith("."):
                continue
            parts = line.split(None, 1)
            op = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            try:
                expanded = self._asm._expand_pseudo(
                    op, _split_operands(rest), 0)
            except Exception:
                continue
            for mnemonic, _ in expanded:
                if mnemonic not in self.subset \
                        and mnemonic not in ("ecall", "ebreak", "fence",
                                             "lui"):
                    needed.add(mnemonic)
        return needed

    def _rewrite_instruction(self, line: str) -> list[str]:
        parts = line.split(None, 1)
        op = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        ops = _split_operands(rest)
        if op == "la":
            # symbol address build over the subset (addresses < 2^21)
            self.rewritten += 1
            rd, sym = ops
            return [
                f"    addi {rd}, x0, (({sym}) >> 10)",
                f"    addi {TEMP0}, x0, 10",
                f"    sll {rd}, {rd}, {TEMP0}",
                f"    addi {rd}, {rd}, (({sym}) & 1023)",
            ]
        expanded = self._asm._expand_pseudo(op, ops, 0)
        out: list[str] = []
        for mnemonic, operands in expanded:
            if mnemonic in self.subset or mnemonic in ("ecall", "ebreak",
                                                       "fence"):
                out.append(f"    {mnemonic} {', '.join(operands)}")
                continue
            out.extend(self._apply_macro(mnemonic, operands))
        return out

    _SUBSTITUTES = ("t0", "t1", "t2", "a5", "a4", "a3", "s1", "s0")

    def _apply_macro(self, mnemonic: str, operands: list[str]) -> list[str]:
        """Expand one instruction, legalizing gp/tp operand collisions.

        The macro temporaries are gp/tp; when the compiled code itself holds
        a live value there (spill-scratch reloads), the operand is moved
        through a callee-preserved substitute around the expansion.  Branch
        macros never write the temporaries, so they skip legalization (and
        must, since a taken branch would escape before the restore).
        """
        if mnemonic in BRANCHES:
            return self._expand_verified(mnemonic, operands)
        def base_of(op: str) -> str | None:
            mem = _MEM_RE.match(op)
            return mem.group(2).strip() if mem else None

        regs = []
        for op in operands:
            if op in ("gp", "tp", "x3", "x4"):
                regs.append(op)
            else:
                base = base_of(op)
                if base in ("gp", "tp", "x3", "x4"):
                    regs.append(base)
        if not regs:
            return self._expand_verified(mnemonic, operands)
        writes_rd = mnemonic not in STORES
        taken = {op for op in operands if "(" not in op}
        taken |= {base_of(op) for op in operands if base_of(op)}
        subs = [r for r in self._SUBSTITUTES if r not in taken]
        mapping: dict[str, str] = {}
        prologue: list[str] = []
        epilogue: list[str] = []
        for index, reg in enumerate(dict.fromkeys(regs)):
            sub = subs[index]
            slot = -36 - 4 * index
            mapping[reg] = sub
            prologue += [f"sw {sub}, {slot}(sp)",
                         f"addi {sub}, {reg}, 0"]
            restore = [f"lw {sub}, {slot}(sp)"]
            if writes_rd and operands and operands[0] == reg:
                restore.insert(0, f"addi {reg}, {sub}, 0")
            epilogue += restore
        def remap(op: str) -> str:
            if op in mapping:
                return mapping[op]
            base = base_of(op)
            if base in mapping:
                mem = _MEM_RE.match(op)
                return f"{mem.group(1)}({mapping[base]})"
            return op

        new_operands = [remap(op) for op in operands]
        body = self._expand_verified(mnemonic, new_operands)
        return ([f"    {line}" for line in prologue] + body
                + [f"    {line}" for line in epilogue])

    def _expand_verified(self, mnemonic: str,
                         operands: list[str]) -> list[str]:
        macro = self.report.macros.get(mnemonic) if self.report else None
        if mnemonic == "lui":
            from .templates import _lui
            value = self._asm._eval_expr(operands[1], 0, None)
            lines = _lui(operands[0], str(value), self._fresh_label)
        elif macro is None:
            raise ValueError(f"no verified macro for {mnemonic!r}")
        elif mnemonic in BRANCHES:
            lines = macro.template(operands[0], operands[1], operands[2],
                                   self._fresh_label)
        elif mnemonic in LOADS or mnemonic in STORES:
            reg = operands[0]
            mem = _MEM_RE.match(operands[1])
            offset = mem.group(1).strip() or "0"
            base = mem.group(2).strip()
            if base in ("sp", "x2"):
                raise ValueError(f"{mnemonic}: sp-based operands would "
                                 f"collide with the macro stash slots")
            lines = macro.template(reg, offset, base, self._fresh_label)
        else:
            lines = macro.template(*operands, self._fresh_label)
        self.rewritten += 1
        return [f"    {line}" if not line.endswith(":") else line
                for line in lines]

    def _emit_macro_file(self) -> str:
        """A macro.S-style record of every verified transformation."""
        out = ["# macro.S - generated by the RISSP retargeting tool",
               f"# target subset: {', '.join(self.subset)}", ""]
        for mnemonic, macro in sorted((self.report.macros or {}).items()):
            out.append(f".macro {mnemonic}_subst rd, rs1, rs2")
            try:
                body = macro.template("\\rd", "\\rs1", "\\rs2",
                                      self._fresh_label)
            except Exception:
                body = ["# (operand-dependent expansion; see rewriter)"]
            out.extend(f"    {line}" for line in body)
            out.append(".endm")
            out.append(f"# verified on {macro.cases_checked} cases in "
                       f"{macro.attempts} attempt(s)")
            out.append("")
        return "\n".join(out)


def retarget_assembly(assembly: str,
                      subset: tuple[str, ...] = MINIMAL_SUBSET,
                      report: SynthesisReport | None = None
                      ) -> RetargetResult:
    """Rewrite full-ISA assembly onto ``subset`` (the §5 flow)."""
    return AssemblyRewriter(subset, report).rewrite(assembly)
