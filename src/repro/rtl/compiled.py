"""Compiled RTL evaluation: lower a :class:`Module` to straight-line Python.

The tree-walking evaluator in :mod:`repro.rtl.sim` pays an isinstance
dispatch, a dict probe and a Python call per expression node on every
cycle.  This module compiles each module's static structure exactly once —
mirroring the decoded-op cache the ISS grew in PR 1 — into two
``exec``-compiled functions:

* ``eval_comb(env, regfile)`` — every combinational assign emitted as one
  straight-line statement in topological order, with width masks and
  constant subtrees folded at codegen time, ``Mux``/``Slice``/``Ext``/
  ``Cat`` inlined as Python expressions, and structurally shared
  subexpressions computed once (the IR's dataclasses hash structurally, so
  common-subexpression elimination is a dict lookup).
* ``tick(env, regfile)`` — register next/enable evaluation and the
  register-file write port, committing exactly like the interpreter.

Semantics are bit-identical to :func:`repro.rtl.sim.eval_expr` — the
interpreter stays the reference oracle and the randomized differential
harness in ``tests/test_rtl_compiled_diff.py`` locks the two together.

Masked arms are lazy.  ModularEX joins its blocks with a one-hot AND-OR
switch, ``OR_i (val_i & sel_i.sext(w))`` (:mod:`repro.rtl.modularex`).
The per-cycle pair emits an AND whose operand is a sign-extended 1-bit
select as ``(val if sel else 0)``, so a cycle evaluates the inlined
datapath of only the arms whose select is set.  This is exact for any
select pattern, zero-, one- or multi-hot: the extension is all ones when
``sel`` is 1 and zero when it is 0, and ``val``'s code is already masked
to ``w`` bits, so ``val & sext(sel)`` is ``val`` or 0.  No arm is assumed
exclusive, so a mutant that sets two selects still ORs both arms.

On top of the per-cycle pair, :func:`compile_core` fuses the *whole RTL
cycle loop* of a RISSP-shaped core (PR 4) into a single generated
``run_cycles(ctx, count, limit, sink)`` function: instruction fetch and
the data-memory read index a word view of the RAM bytearray
(:func:`repro.sim.memory.word_view`, bound once per call; stores write
byte slices), every combinational assign lives in a Python
local (no ``env`` dict traffic inside the loop), what depends only on
the fetched word comes from a per-word decode cache, each register-file
read port built as ``build_rissp``'s mux tree is one index by its
address (:func:`_indexed_read_ports`), the signals the
data-memory read needs are evaluated before it and every other signal
once after it, the store-strobe decode and the register/register-file
commit are inlined, and each retirement's RVFI row is recorded with one
call of the trace's :meth:`~repro.sim.tracing.RvfiTrace.row_sink`, one
17-tuple built straight from the signal locals (``rs1_rdata``/
``rs2_rdata`` are the core's own read-port outputs).  The loop calls back
into Python only
for the rare events the harness owns: MMIO/device-window accesses, traps
and interrupts (one integer compare of the retirement counter against a
precomputed fire index, exactly like the ISS fast path), harness-emulated
Zicsr/``wfi`` retirement, and halt classification.  Loop-carried register
state is refreshed from ``env`` on entry and flushed back on exit (also
on exceptions), so ``RtlSim.reset`` and peek/poke fault injection between
``run_cycles`` calls observe exactly the interpreter's register and
register-file state.  Combinational ``env`` entries are not settled after
a run; a probe drives ``set_inputs``/``eval_comb`` first, as the state
tests do.

The fused loop does not test a switch's selects per retirement.  The
decode cache also holds ``_act``, the indices of the selects that are set
for the word, and each switch OR whose arms have word-only selects is
emitted as its other leaves followed by one active-arm pass, ``for _k in
_act:``, whose balanced ``if _k < m`` tree ORs in (``v |= val``) the arms
of select ``_k``.  That is the same OR, so it is exact for the same
reasons, and the ModularEX default arm is one more arm, under ``NOT(OR of
selects)``.  An arm whose select is not a decode value stays inline as
``(val if sel else 0)``; an OR that reads a signal of the same pass is
evaluated whole after it.

:func:`compile_fleet` generates the batched ``run_fleet`` loop around the
same retirement body (:func:`_emit_retirement`): where ``run_cycles``
calls back into the harness, a batched lane leaves the batch instead and
reports which event sent it.

Compiling checks — and so freezes — the module (see
:meth:`~repro.rtl.ir.Module.check`), so compiled functions are cached per
:class:`Module` object alone: a frozen structure cannot change under its
cached code.  Failure injection derives a fresh module with
:meth:`~repro.rtl.ir.Module.with_assigns`, which compiles on its own.
"""

from __future__ import annotations

import functools
import re
import weakref
from dataclasses import dataclass

from ..obs import telemetry as _obs
from ..sim.memory import word_view
from .ir import (
    Binary,
    Cat,
    Const,
    Expr,
    Ext,
    IrError,
    Module,
    Mux,
    Not,
    Op,
    Sig,
    Slice,
    _read_mux_tree,
    const,
    expr_signals,
    map_children,
)

#: Inline expressions longer than this get hoisted into a temp, bounding
#: statement size (and parser nesting depth) for pathological DAGs.
_MAX_INLINE = 400

_IDENT = re.compile(r"^[A-Za-z_]\w*$|^-?\d+$")


@dataclass
class CompiledModule:
    """The two exec-compiled entry points plus their generated source."""

    eval_comb: object   # callable(env: dict, regfile: list | None) -> None
    tick: object        # callable(env: dict, regfile: list | None) -> None
    source: str         # generated Python, kept for inspection/debugging


def _mask(width: int) -> int:
    return (1 << width) - 1


class _Emitter:
    """Emits masked-value Python expressions for one statement block.

    Invariant: the code string produced for any node evaluates to that
    node's value already masked to its width (matching what ``eval_expr``
    returns), so parents never re-mask operands.

    The invariant is what makes masked arms lazy and exact: an AND with a
    sign-extended 1-bit select operand (ModularEX's ``val &
    sel.sext(w)``) is emitted as ``(val if sel else 0)``, since
    ``sext(sel)`` is ``mask(w)`` or 0 and ``val`` is already ``val &
    mask(w)``; ``sel``'s code is masked to 1 bit, so its truth is the bit.
    Nothing assumes one arm per switch, so any select pattern is exact.
    """

    def __init__(self, lines: list[str], indent: str, refs: dict,
                 sig_var, temp_prefix: str, max_inline: int = _MAX_INLINE):
        self.lines = lines
        self.indent = indent
        self.refs = refs
        self.sig_var = sig_var
        self.temp_prefix = temp_prefix
        self.max_inline = max_inline
        self.cache: dict[Expr, str] = {}
        self.const_cache: dict[Expr, bool] = {}
        self.count = 0

    # ------------------------------------------------------------- helpers

    def line(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def temp(self, code: str) -> str:
        name = f"{self.temp_prefix}{self.count}"
        self.count += 1
        self.line(f"{name} = {code}")
        return name

    def materialize(self, code: str) -> str:
        """Force ``code`` into an atom so it can be referenced repeatedly."""
        if _IDENT.match(code):
            return code
        return self.temp(code)

    def is_const(self, expr: Expr) -> bool:
        """True when the subtree references no signals (foldable)."""
        cached = self.const_cache.get(expr)
        if cached is not None:
            return cached
        result = not expr_signals(expr)
        self.const_cache[expr] = result
        return result

    # ------------------------------------------------------------ emission

    def ref(self, expr: Expr) -> str:
        code = self.cache.get(expr)
        if code is not None:
            return code
        if self.is_const(expr):
            from .sim import eval_expr
            code = repr(eval_expr(expr, {}))
        else:
            code = self.build(expr)
            if code is not None and not _IDENT.match(code) and (
                    self.refs.get(expr, 0) > 1 or
                    len(code) > self.max_inline):
                code = self.temp(code)
        self.cache[expr] = code
        return code

    def build(self, expr: Expr) -> str:
        if isinstance(expr, Sig):
            return self.sig_var(expr.name)
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, Not):
            return f"(~{self.ref(expr.a)} & {_mask(expr.width)})"
        if isinstance(expr, Binary):
            return self.build_binary(expr)
        if isinstance(expr, Mux):
            sel = self.ref(expr.sel)
            a = self.ref(expr.a)
            b = self.ref(expr.b)
            return f"({a} if {sel} else {b})"
        if isinstance(expr, Cat):
            shift = expr.width
            parts = []
            for part in expr.parts:
                shift -= part.width
                code = self.ref(part)
                parts.append(f"({code} << {shift})" if shift else code)
            return "(" + " | ".join(parts) + ")"
        if isinstance(expr, Slice):
            a = self.ref(expr.a)
            if expr.lo == 0:
                if expr.width == expr.a.width:
                    return a
                return f"({a} & {_mask(expr.width)})"
            return f"(({a} >> {expr.lo}) & {_mask(expr.width)})"
        if isinstance(expr, Ext):
            if not expr.signed or expr.out_width == expr.a.width:
                return self.ref(expr.a)
            a = self.materialize(self.ref(expr.a))
            aw = expr.a.width
            high = _mask(expr.out_width) ^ _mask(aw)
            return f"(({a} | {high}) if ({a} >> {aw - 1}) else {a})"
        raise IrError(f"unknown expression node {type(expr).__name__}")

    def signed(self, code: str, width: int) -> str:
        code = self.materialize(code)
        return (f"(({code} | {-(1 << width)}) "
                f"if ({code} >> {width - 1}) else {code})")

    def build_binary(self, expr: Binary) -> str:
        op = expr.op
        w = expr.a.width
        mask = _mask(w)
        if op in (Op.SHL, Op.LSHR, Op.ASHR):
            return self.build_shift(expr, op, w, mask)
        arm = _masked_arm(expr)
        if arm is not None:
            # Masked arm, ``val & sel.sext(w)``: the extension is all ones
            # or zero, so the AND is ``val`` or 0, and ``val`` is evaluated
            # only when its select is set.
            select, value = arm
            return f"({self.ref(value)} if {self.ref(select)} else 0)"
        a = self.ref(expr.a)
        b = self.ref(expr.b)
        if op is Op.ADD:
            return f"(({a} + {b}) & {mask})"
        if op is Op.SUB:
            return f"(({a} - {b}) & {mask})"
        if op is Op.AND:
            return f"({a} & {b})"
        if op is Op.OR:
            return f"({a} | {b})"
        if op is Op.XOR:
            return f"({a} ^ {b})"
        if op is Op.EQ:
            return f"(1 if {a} == {b} else 0)"
        if op is Op.NE:
            return f"(1 if {a} != {b} else 0)"
        if op is Op.ULT:
            return f"(1 if {a} < {b} else 0)"
        if op is Op.UGE:
            return f"(1 if {a} >= {b} else 0)"
        if op is Op.SLT:
            return (f"(1 if {self.signed(a, w)} < {self.signed(b, w)} "
                    f"else 0)")
        if op is Op.SGE:
            return (f"(1 if {self.signed(a, w)} >= {self.signed(b, w)} "
                    f"else 0)")
        raise IrError(f"unhandled op {op}")

    def build_shift(self, expr: Binary, op: Op, w: int, mask: int) -> str:
        a = self.ref(expr.a)
        b = self.ref(expr.b)
        b_val = None
        if self.is_const(expr.b):
            from .sim import eval_expr
            b_val = eval_expr(expr.b, {})
        if op is Op.SHL:
            if b_val is not None:
                return "0" if b_val >= w else (
                    a if b_val == 0 else f"(({a} << {b_val}) & {mask})")
            b = self.materialize(b)
            return f"((({a} << {b}) & {mask}) if {b} < {w} else 0)"
        if op is Op.LSHR:
            if b_val is not None:
                return "0" if b_val >= w else (
                    a if b_val == 0 else f"({a} >> {b_val})")
            b = self.materialize(b)
            return f"(({a} >> {b}) if {b} < {w} else 0)"
        # ASHR: shift saturates at w-1 so the sign bit fills.
        if b_val is not None:
            shift = min(b_val, w - 1)
            if shift == 0:
                return self.ref(expr.a)
            return f"(({self.signed(a, w)} >> {shift}) & {mask})"
        b = self.materialize(b)
        return (f"(({self.signed(a, w)} >> "
                f"({b} if {b} < {w} else {w - 1})) & {mask})")


def _arm_select(expr: Expr) -> Expr | None:
    """The 1-bit select of a sign-extended select ``sel.sext(w)`` — the
    all-ones-or-zero mask of a ModularEX arm — else None."""
    if isinstance(expr, Ext) and expr.signed and expr.a.width == 1:
        return expr.a
    return None


def _masked_arm(expr: Expr) -> tuple[Expr, Expr] | None:
    """``(select, value)`` of a masked arm ``value & sel.sext(w)``, in
    either operand order, else None."""
    if isinstance(expr, Binary) and expr.op is Op.AND:
        for value, select_mask in ((expr.a, expr.b), (expr.b, expr.a)):
            select = _arm_select(select_mask)
            if select is not None:
                return select, value
    return None


def _or_leaves(expr: Expr) -> list[Expr]:
    """The operands of ``expr``'s OR tree, left to right (``[expr]`` when
    ``expr`` is not an OR)."""
    leaves: list[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary) and node.op is Op.OR:
            stack += (node.b, node.a)
        else:
            leaves.append(node)
    return leaves


def _count_refs(roots: list[Expr]) -> dict[Expr, int]:
    """Edge counts over the structurally deduplicated DAG."""
    refs: dict[Expr, int] = {}
    seen: set[Expr] = set()

    def walk(node: Expr) -> None:
        refs[node] = refs.get(node, 0) + 1
        if node in seen:
            return
        seen.add(node)
        if isinstance(node, Not):
            walk(node.a)
        elif isinstance(node, Binary):
            walk(node.a)
            walk(node.b)
        elif isinstance(node, Mux):
            walk(node.sel)
            walk(node.a)
            walk(node.b)
        elif isinstance(node, Cat):
            for part in node.parts:
                walk(part)
        elif isinstance(node, (Slice, Ext)):
            walk(node.a)

    for root in roots:
        walk(root)
    return refs


def _make_sig_namer(module: Module):
    """Map signal names to unique, valid Python local identifiers."""
    table: dict[str, str] = {}
    used: set[str] = set()

    def namer(name: str) -> str:
        var = table.get(name)
        if var is None:
            var = "v_" + re.sub(r"\W", "_", name)
            while var in used:
                var += "_"
            used.add(var)
            table[name] = var
        return var

    return namer


def _generate_source(module: Module) -> str:
    order = module.order
    sig_var = _make_sig_namer(module)
    spec = module.regfile

    # Signals whose value some expression actually reads.
    referenced: set[str] = set()
    for expr in module.assigns.values():
        referenced |= expr_signals(expr)
    for reg in module.registers.values():
        if reg.next is not None:
            referenced |= expr_signals(reg.next)
        if reg.enable is not None:
            referenced |= expr_signals(reg.enable)

    lines = ["def eval_comb(env, regfile):"]
    # Entry loads: inputs and registers come from env (masked exactly like
    # a Sig lookup in the interpreter); register-file storage wires are
    # driven from the array every evaluation.
    for port in module.inputs():
        if port.name in referenced:
            lines.append(f"    {sig_var(port.name)} = "
                         f"env[{port.name!r}] & {_mask(port.width)}")
    for reg in module.registers.values():
        if reg.name in referenced:
            lines.append(f"    {sig_var(reg.name)} = "
                         f"env[{reg.name!r}] & {_mask(reg.width)}")
    if spec is not None:
        for index, name in enumerate(spec.storage_signals, start=1):
            lines.append(f"    env[{name!r}] = _sq = regfile[{index}]")
            if name in referenced:
                lines.append(f"    {sig_var(name)} = _sq & "
                             f"{_mask(spec.width)}")

    # One topological sweep of the assign DAG as straight-line statements.
    emitter = _Emitter(lines, "    ", _count_refs(
        [module.assigns[name] for name in order]), sig_var, "t")
    for name in order:
        code = emitter.ref(module.assigns[name])
        if name in referenced:
            lines.append(f"    {sig_var(name)} = env[{name!r}] = {code}")
        else:
            lines.append(f"    env[{name!r}] = {code}")
    if len(lines) == 1:
        lines.append("    pass")

    lines.append("")
    lines.append("def tick(env, regfile):")
    tick_start = len(lines)
    tick_roots = []
    for reg in module.registers.values():
        if reg.next is not None:
            tick_roots.append(reg.next)
            if reg.enable is not None:
                tick_roots.append(reg.enable)
    needed: set[str] = set()
    for root in tick_roots:
        needed |= expr_signals(root)
    for name in sorted(needed):
        lines.append(f"    {sig_var(name)} = env[{name!r}] & "
                     f"{_mask(module.signal_width(name))}")
    emitter = _Emitter(lines, "    ", _count_refs(tick_roots), sig_var, "k")
    commits = []
    for reg in module.registers.values():
        if reg.next is None:
            continue
        update = emitter.materialize(emitter.ref(reg.next))
        if reg.enable is not None:
            gate = emitter.materialize(emitter.ref(reg.enable))
            commits.append(f"    if {gate}:\n"
                           f"        env[{reg.name!r}] = {update}")
        else:
            commits.append(f"    env[{reg.name!r}] = {update}")
    if spec is not None and spec.write_port is not None:
        we_sig, addr_sig, data_sig = spec.write_port
        # Raw env reads, mirroring the interpreter's commit exactly.
        lines.append(f"    if env.get({we_sig!r}, 0):")
        lines.append(f"        _wa = env[{addr_sig!r}] % {spec.num_regs}")
        lines.append("        if _wa:")
        lines.append(f"            regfile[_wa] = env[{data_sig!r}] & "
                     f"{_mask(spec.width)}")
    lines.extend(commits)
    if len(lines) == tick_start:
        lines.append("    pass")
    return "\n".join(lines) + "\n"


def stable_fingerprint(module: Module) -> str:
    """Process-independent structural hash of a module (hex digest).

    The in-process compile caches need no hash — they are keyed by module
    identity, since a checked module is frozen.  The simulation farm
    ships this sha256 over the canonical ``repr`` of the structure (every
    IR node is a frozen dataclass with a deterministic repr), and each
    worker asserts that the core it rebuilt from a task's subset
    description has the fingerprint the task was enumerated against.
    Memoized on a checked module.
    """
    def digest() -> str:
        import hashlib

        regs = tuple((r.name, r.width, repr(r.next), repr(r.enable),
                      r.reset_value) for r in module.registers.values())
        spec = module.regfile
        rf = None
        if spec is not None:
            rf = (spec.num_regs, spec.width, tuple(spec.read_ports),
                  spec.write_port, tuple(spec.storage_signals))
        ports = tuple(sorted((p.name, p.width, p.direction)
                             for p in module.ports.values()))
        assigns = tuple((name, repr(module.assigns[name]))
                        for name in sorted(module.assigns))
        payload = repr((assigns, regs, rf, ports,
                        tuple(sorted(module.wires.items()))))
        return hashlib.sha256(payload.encode()).hexdigest()

    return module.memo("stable_fingerprint", digest)


_cache: "weakref.WeakKeyDictionary[Module, CompiledModule]" = \
    weakref.WeakKeyDictionary()


def compile_module(module: Module) -> CompiledModule:
    """Compile (or fetch the cached compilation of) ``module``.

    Checks — and so freezes — the module first; the cache is keyed on the
    module object alone.  Mutating a compiled module's structure raises
    :class:`IrError`; derive a variant with ``module.with_assigns`` and
    compile that instead.
    """
    module.check()
    compiled = _cache.get(module)
    if compiled is not None:
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["compile_cache.module.hit"] += 1
        return compiled
    if _obs._ACTIVE is not None:
        _obs._ACTIVE.counters["compile_cache.module.miss"] += 1
    source = _generate_source(module)
    namespace: dict[str, object] = {}
    exec(compile(source, f"<rtl:{module.name}>", "exec"), namespace)
    compiled = CompiledModule(eval_comb=namespace["eval_comb"],
                              tick=namespace["tick"], source=source)
    _cache[module] = compiled
    return compiled


# ---------------------------------------------------------------------------
# Fused whole-cycle loop (PR 4)

#: dmem byte-strobe -> store width; shared by the per-cycle harness, the
#: generated fused loop and the block testbench, so all three reject
#: malformed strobes identically.
WSTRB_WIDTH = {0b0001: 1, 0b0010: 1, 0b0100: 1, 0b1000: 1,
               0b0011: 2, 0b1100: 2, 0b1111: 4}

#: Combinational outputs the fused loop consumes from the core; everything
#: the harness interface needs beyond the register-file port signals.
CORE_INTERFACE = ("dmem_re", "dmem_addr", "dmem_wstrb", "dmem_wdata",
                  "illegal", "halt", "next_pc")


@dataclass
class CompiledCore:
    """The fused whole-cycle entry point plus its generated source."""

    run_cycles: object  # callable(ctx, count, limit, sink) ->
    #                     (halted: bool, reason: str, count: int)
    source: str
    #: The exec namespace the loop runs in — :func:`compile_fleet` grafts
    #: the per-word decode cache (``_DCACHE``/``decode_comb``) out of it so
    #: the batched loop and the per-instance loop share one decode memo.
    namespace: dict = None


def core_fusable(module: Module) -> bool:
    """True when ``module`` exposes the RISSP harness interface the fused
    loop is generated against: a storage-exposed register file with two
    combinationally-assigned read ports and a write port, the imem/dmem
    input ports, the :data:`CORE_INTERFACE` outputs and a committed ``pc``
    register.  :func:`compile_core` refuses anything else, so a fused
    ``RisspSim``, ``cosimulate`` or ``FleetSim`` fails at construction.

    The module is checked first, as :func:`compile_core` does, so it has no
    combinational cycle and its combinational signals are exactly the keys
    of ``module.assigns``; the answer is memoized on the checked module.
    """
    module.check()
    return module.memo("core_fusable", lambda: _has_core_interface(module))


def _has_core_interface(module: Module) -> bool:
    assigns = module.assigns
    spec = module.regfile
    if spec is None or spec.write_port is None or len(spec.read_ports) != 2:
        return False
    if not spec.storage_signals:
        return False
    if any(data not in assigns for _, data in spec.read_ports):
        return False
    names = CORE_INTERFACE + tuple(spec.write_port) \
        + tuple(addr for addr, _ in spec.read_ports)
    if any(name not in assigns for name in names):
        return False
    for port_name in ("imem_rdata", "dmem_rdata"):
        port = module.ports.get(port_name)
        if port is None or port.direction != "in":
            return False
    pc = module.registers.get("pc")
    if pc is None or pc.next is None:
        return False
    # The trap slice must be all-or-nothing: the generated loop wires the
    # mtvec register, the ``trap`` output, the mret word class and the
    # interrupt fire check together.
    if ("mtvec" in module.registers) != ("trap" in assigns):
        return False
    return True


def _seed_storage(emitter: _Emitter, module: Module) -> None:
    """Make register-file storage wires read ``regfile`` lazily in place.

    Pre-seeding the emitter cache with an indexing expression (instead of
    loading all ``num_regs - 1`` storage wires into locals each cycle)
    keeps any other reader of a storage wire lazy.  A stitched core's
    read ports never get here: each is read by index
    (:func:`_indexed_read_ports`).  A read port that is not the shared
    tree — a ``with_assigns`` variant's — stays a nested conditional
    expression, which evaluates only the one leaf its address selects."""
    spec = module.regfile
    mask = _mask(spec.width)
    for index, name in enumerate(spec.storage_signals, start=1):
        sig = Sig(name, module.signal_width(name))
        emitter.cache[sig] = f"(regfile[{index}] & {mask})"


#: The fused loop keeps lazily-evaluated conditional expressions intact
#: instead of hoisting long code into (eagerly evaluated) temps; CPython
#: compiles the resulting statements fine well past this bound.
_FUSED_MAX_INLINE = 1 << 20


def _core_emitter(lines: list[str], indent: str, roots: list[Expr],
                  sig_var, temp_prefix: str, module: Module) -> _Emitter:
    emitter = _Emitter(lines, indent, _count_refs(roots), sig_var,
                       temp_prefix, max_inline=_FUSED_MAX_INLINE)
    _seed_storage(emitter, module)
    return emitter


def _substitute_memo(expr: Expr, mapping: dict[str, Expr],
                     memo: dict[Expr, Expr]) -> Expr:
    """Structure-sharing :func:`repro.rtl.ir.substitute` (linear on DAGs)."""
    done = memo.get(expr)
    if done is not None:
        return done
    if isinstance(expr, Sig):
        result = mapping.get(expr.name, expr)
    else:
        result = map_children(
            expr, lambda child: _substitute_memo(child, mapping, memo))
    memo[expr] = result
    return result


@dataclass
class _Segment:
    """One straight-line stretch of the retirement body and its
    active-arm pass.

    ``order`` lists the stretch's signals in topological order.  A *pass
    member* (a key of ``other``) is an OR some of whose leaves are masked
    arms ``val & sel.sext(w)`` with a word-only ``sel``: its statement
    ORs only its other leaves, ``other[name]``, and the pass then ORs in
    ``val`` for each set select, ``arms[index]`` listing the ``(member,
    val)`` pairs of select ``index``.  A signal in ``tail`` reads a pass
    member (or another tail signal), so it is evaluated whole after the
    pass; so is an OR that reads one, arms inline."""

    order: list
    other: dict
    arms: dict
    tail: set


@dataclass
class _CoreAnalysis:
    """Dataflow analysis behind the fused retirement body.

    Everything :func:`_emit_retirement` and the ``decode_comb`` emission
    need to know about a fusable core's DAG: the needed-set closure, the
    single-use inlining rewrite, the word-only decode extraction, the
    split of the per-cycle signals around the data-memory read and the
    active-arm passes, and the tick roots.  The analysis is a
    deterministic function of the module, so the ``decode_out`` tuple
    layout — the value format of the shared per-word decode cache — is
    identical in ``run_cycles`` and ``run_fleet``, which is what lets
    :func:`compile_fleet` graft the fused loop's ``_DCACHE`` dict into
    the batched loop's namespace.
    """

    module: Module
    sig_var: object                      # signal name -> Python local
    trap_core: bool
    registers: list                      # module registers, commit order
    effective: dict                      # post-inline/extract assigns
    cycle_names: list                    # eager per-cycle signals
    cone_names: list                     # dmem_rdata dependency cone
    pre_load: _Segment                   # what the load itself reads
    post_load: _Segment                  # everything else, after the load
    act_selects: list                    # select signal per _act index
    decode_names: list                   # word-only signals (decode_comb)
    synth_order: list                    # synthesized word-only subtrees
    decode_out: list                     # decode_comb return layout
    tick_next: dict
    tick_enable: dict
    we_sig: str
    waddr_sig: str
    wdata_sig: str
    rs1_addr_sig: str
    rs2_addr_sig: str
    rs1_data_sig: str
    rs2_data_sig: str
    #: read-port data signal -> address signal, for the ports read by index
    indexed: dict


def _indexed_read_ports(module: Module) -> dict[str, str]:
    """``{data signal: address signal}`` of the read ports whose assign is
    exactly the tree :func:`repro.rtl.rissp.build_rissp` builds,
    ``_read_mux_tree([const 0] + storage, address)`` over an address as
    wide as the tree is deep.

    Entry ``a`` of that tree is ``regfile[a] & mask`` for ``a >= 1`` and 0
    for ``a = 0``, so the fused loop reads such a port as ``(regfile[a] &
    mask) if a else 0``: one index instead of a four-deep conditional
    chain, and no address bit in the decode tuple.  Any other read port
    (a ``with_assigns`` variant's, say) keeps its tree."""
    spec = module.regfile
    entries = [const(0, spec.width)] + [
        Sig(name, module.signal_width(name))
        for name in spec.storage_signals]
    indexed: dict[str, str] = {}
    for addr, data in spec.read_ports:
        width = module.signal_width(addr)
        if 1 << width == len(entries) and module.assigns[data] == \
                _read_mux_tree(entries, Sig(addr, width)):
            indexed[data] = addr
    return indexed


def _analyze_core(module: Module) -> _CoreAnalysis:
    """Run the shared fused-loop dataflow analysis over a fusable core.

    In order: the needed-set closure, single-use inlining, the
    ``dmem_rdata`` cone, the word-only decode extraction, the split of
    the per-cycle signals around the data-memory read (every signal is
    evaluated once, except a cone signal the load itself reads, which
    only a mutant has), and each stretch's active-arm pass plan
    (:func:`_plan_segment`), whose selects ``_act`` indexes."""
    spec = module.regfile
    order = module.order
    sig_var = _make_sig_namer(module)
    trap_core = "mtvec" in module.registers
    has_trap_out = "trap" in module.assigns
    we_sig, waddr_sig, wdata_sig = spec.write_port
    (rs1_addr_sig, rs1_data_sig), (rs2_addr_sig, rs2_data_sig) = \
        spec.read_ports

    # Needed-set closure: only assigns feeding the harness interface, the
    # register commits or the RVFI row are emitted inside the loop (e.g.
    # the ``imem_addr`` echo of pc is dead in the loop).  The RVFI row
    # records the read ports' data, so those are always eager too.
    control = list(CORE_INTERFACE) + [we_sig, waddr_sig, wdata_sig,
                                      rs1_addr_sig, rs2_addr_sig,
                                      rs1_data_sig, rs2_data_sig]
    if has_trap_out:
        control.append("trap")
    needed = set(control)
    registers = list(module.registers.values())
    tick_exprs = [root for reg in registers
                  for root in (reg.next, reg.enable) if root is not None]
    for root in tick_exprs:
        needed |= expr_signals(root)
    for name in reversed(order):
        if name in needed:
            needed |= expr_signals(module.assigns[name])
    emit_names = [name for name in order if name in needed]

    # Single-use inlining: a wire consumed by exactly one expression (the
    # stitched ``ex_*`` block outputs, mostly) is folded into its consumer
    # instead of being evaluated eagerly as a statement.  Because ``Mux``
    # and ModularEX's masked arms lower to Python conditional expressions,
    # this makes whole unselected datapath arms lazy — the dominant
    # fused-loop speedup.  Harness-consumed controls always stay eager
    # statements, and so does a switch OR (an OR with masked-arm leaves)
    # unless its one consumer merely copies it: folded into, say, the trap
    # slice's ``Mux``, it could not be an active-arm pass member.
    refs_all = _count_refs([module.assigns[name] for name in emit_names]
                           + tick_exprs)
    copied = {module.assigns[name].name for name in emit_names
              if isinstance(module.assigns[name], Sig)}
    inline_map: dict[str, Expr] = {}
    effective: dict[str, Expr] = {}
    memo: dict[Expr, Expr] = {}
    for name in emit_names:
        expr = _substitute_memo(module.assigns[name], inline_map, memo)
        effective[name] = expr
        # Growing the mapping mid-walk is safe for the shared memo: in
        # topological order every signal a memoized node references was
        # already mapped (or ruled out) when that node was first rewritten.
        if name not in control and \
                refs_all.get(Sig(name, module.signal_width(name)), 0) == 1 \
                and (name in copied or not any(
                    map(_masked_arm, _or_leaves(module.assigns[name])))):
            inline_map[name] = expr
    eager_names = [name for name in emit_names if name not in inline_map]
    tick_memo: dict[Expr, Expr] = {}
    tick_next = {reg.name: _substitute_memo(reg.next, inline_map, tick_memo)
                 for reg in registers if reg.next is not None}
    tick_enable = {reg.name:
                   _substitute_memo(reg.enable, inline_map, tick_memo)
                   for reg in registers
                   if reg.next is not None and reg.enable is not None}

    # Dependency cone of dmem_rdata: the signals a data-memory read can
    # change (the per-cycle harness re-runs the whole DAG after a load).
    cone: set[str] = set()
    for name in eager_names:
        deps = expr_signals(effective[name])
        if "dmem_rdata" in deps or deps & cone:
            cone.add(name)
    cone_names = [name for name in eager_names if name in cone]

    # Decode cache (the RTL analog of the ISS decoded-op cache): every
    # signal — and every maximal subexpression of the remaining datapath —
    # that depends only on the fetched instruction word is evaluated in a
    # separate generated decode_comb(w), memoized per word in the compiled
    # namespace.  Steady-state cycles replace the whole decode half of the
    # DAG (~40 per-instruction select comparators plus their shared field
    # slices on a full RV32E core) with one dict probe and a tuple unpack.
    word_only: set[str] = set()
    for name in eager_names:
        if expr_signals(effective[name]) <= ({"imem_rdata"} | word_only):
            word_only.add(name)
    decode_names = [name for name in eager_names if name in word_only]
    cycle_names = [name for name in eager_names if name not in word_only]

    wo_universe = {"imem_rdata"} | word_only
    wo_memo: dict[Expr, bool] = {}

    def word_only_expr(expr: Expr) -> bool:
        cached = wo_memo.get(expr)
        if cached is None:
            cached = expr_signals(expr) <= wo_universe
            wo_memo[expr] = cached
        return cached

    synth: dict[Expr, Sig] = {}
    synth_order: list[tuple[Sig, Expr]] = []
    extract_memo: dict[Expr, Expr] = {}

    def extract(expr: Expr) -> Expr:
        """Hoist maximal word-only subtrees into decode_comb outputs.  Of a
        sign-extended select only the 1-bit select is hoisted, so the
        cycle body keeps the masked arm for the active-arm pass."""
        if isinstance(expr, (Const, Sig)):
            return expr
        done = extract_memo.get(expr)
        if done is not None:
            return done
        if word_only_expr(expr) and _arm_select(expr) is None:
            sig = synth.get(expr)
            if sig is None:
                sig = Sig(f"_dec{len(synth)}", expr.width)
                synth[expr] = sig
                synth_order.append((sig, expr))
            result: Expr = sig
        else:
            result = map_children(expr, extract)
        extract_memo[expr] = result
        return result

    # A port read by index keeps its tree out of the decode extraction, so
    # its address bits never become decode values.
    indexed = _indexed_read_ports(module)
    for name in cycle_names:
        if name not in indexed:
            effective[name] = extract(effective[name])
    tick_next = {name: extract(expr) for name, expr in tick_next.items()}
    tick_enable = {name: extract(expr) for name, expr in tick_enable.items()}

    # Around the data-memory read: the load reads ``illegal``, ``dmem_re``
    # and ``dmem_addr``, so their dependencies are evaluated before it;
    # every other per-cycle signal is evaluated once, after it.  A cone
    # signal the load reads (only a mutant has one) is evaluated before
    # the load with ``dmem_rdata = 0`` and again after it, as the
    # per-cycle harness does.
    before = {"illegal", "dmem_re", "dmem_addr"}
    for name in reversed(cycle_names):
        if name in before:
            before |= expr_signals(effective[name])
    decoded = word_only | {sig.name for sig, _ in synth_order}
    act_index: dict[str, int] = {}
    pre_load = _plan_segment(
        [name for name in cycle_names if name in before], effective,
        decoded, act_index)
    post_load = _plan_segment(
        [name for name in cycle_names if name not in before or name in cone],
        effective, decoded, act_index)

    # Decode values the cycle body consumes: word-only *signals* and
    # synthesized subtrees the loop template or a datapath expression
    # reads, plus ``_act``, the indices of the set pass selects.  A select
    # only the passes test reaches the body through ``_act`` alone;
    # anything else word-only stays private to decode_comb.
    used_by_cycle = set(control)
    for segment in (pre_load, post_load):
        for name in segment.order:
            for leaf in segment.other.get(name, (effective[name],)):
                used_by_cycle |= expr_signals(leaf)
        for entries in segment.arms.values():
            for _, value in entries:
                used_by_cycle |= expr_signals(value)
    for expr in list(tick_next.values()) + list(tick_enable.values()):
        used_by_cycle |= expr_signals(expr)
    decode_out = [name for name in decode_names if name in used_by_cycle]
    decode_out += [sig.name for sig, _ in synth_order
                   if sig.name in used_by_cycle]
    if act_index:
        decode_out.append("_act")

    return _CoreAnalysis(
        module=module, sig_var=sig_var, trap_core=trap_core,
        registers=registers, effective=effective, cycle_names=cycle_names,
        cone_names=cone_names, pre_load=pre_load, post_load=post_load,
        act_selects=list(act_index), decode_names=decode_names,
        synth_order=synth_order, decode_out=decode_out,
        tick_next=tick_next, tick_enable=tick_enable, we_sig=we_sig,
        waddr_sig=waddr_sig, wdata_sig=wdata_sig,
        rs1_addr_sig=rs1_addr_sig, rs2_addr_sig=rs2_addr_sig,
        rs1_data_sig=rs1_data_sig, rs2_data_sig=rs2_data_sig,
        indexed=indexed)


def _plan_segment(order: list[str], effective: dict[str, Expr],
                  decoded: set[str], act_index: dict[str, int]) -> _Segment:
    """Split one stretch of per-cycle signals around its active-arm pass.

    Walks ``order`` topologically: a signal that reads a pass member or a
    tail signal joins the tail; otherwise an OR with at least one masked
    arm whose select is a decode value (``decoded``) becomes a pass
    member, its other leaves kept for its own statement.  Each pass
    select gets the next free index in ``act_index`` (shared by both
    stretches, so ``_act`` is one tuple)."""
    other: dict[str, list[Expr]] = {}
    arms: dict[int, list[tuple[str, Expr]]] = {}
    tail: set[str] = set()
    for name in order:
        expr = effective[name]
        if expr_signals(expr) & (tail | set(other)):
            tail.add(name)
            continue
        rest: list[Expr] = []
        served: list[tuple[str, Expr]] = []
        for leaf in _or_leaves(expr):
            arm = _masked_arm(leaf)
            if arm is not None and isinstance(arm[0], Sig) \
                    and arm[0].name in decoded:
                served.append((arm[0].name, arm[1]))
            else:
                rest.append(leaf)
        if not served:
            continue
        other[name] = rest
        for select, value in served:
            index = act_index.setdefault(select, len(act_index))
            arms.setdefault(index, []).append((name, value))
    return _Segment(order=order, other=other, arms=arms, tail=tail)


def _emit_segment(a: _CoreAnalysis, segment: _Segment,
                  body: _Emitter) -> None:
    """Emit one stretch of the retirement body at ``body``'s indent: its
    signals in topological order (a pass member ORs only its other
    leaves), then its active-arm pass, then its tail.

    The pass is one ``for _k in _act:`` loop whose balanced ``if _k < m``
    tree runs, for each set select ``_k``, the ``v |= val`` statements of
    that select's arms.  Each block evaluates its arms with an emitter of
    its own over a copy of ``body``'s cache, so a value the stretch
    already computed is reused, while a temp shared only by arms stays
    inside the blocks that read it.
    """
    sig_var = a.sig_var
    indent = body.indent
    lines = body.lines
    for name in segment.order:
        if name in segment.tail:
            continue
        other = segment.other.get(name)
        if other is None:
            code = _signal_code(a, body, name)
        else:
            code = " | ".join(body.ref(leaf) for leaf in other) or "0"
        lines.append(f"{indent}{sig_var(name)} = {code}")
    if segment.arms:
        lines.append(f"{indent}for _k in {sig_var('_act')}:")
        lines.extend(_arm_tree(a, segment, body, 0, len(a.act_selects),
                               indent + "    "))
    for name in segment.order:
        if name in segment.tail:
            lines.append(f"{indent}{sig_var(name)} = "
                         f"{_signal_code(a, body, name)}")


def _signal_code(a: _CoreAnalysis, body: _Emitter, name: str) -> str:
    """The code of one whole per-cycle signal: an indexed read of the
    register file for a port in ``a.indexed``, else its expression."""
    addr = a.indexed.get(name)
    if addr is None:
        return body.ref(a.effective[name])
    var = a.sig_var(addr)
    mask = _mask(a.module.regfile.width)
    return f"(regfile[{var}] & {mask}) if {var} else 0"


def _arm_tree(a: _CoreAnalysis, segment: _Segment, body: _Emitter,
              lo: int, hi: int, indent: str) -> list[str]:
    """The pass statements for select indices in ``[lo, hi)``, where the
    enclosing tests have established ``lo <= _k < hi``.  A range narrows
    to the indices this stretch serves, splits at its midpoint, and ends
    in a block that knows ``_k`` exactly."""
    present = [index for index in range(lo, hi) if index in segment.arms]
    if not present:
        return []
    first, last = present[0], present[-1] + 1
    if (first, last) != (lo, hi):
        tests = ([f"_k >= {first}"] if first > lo else []) \
            + ([f"_k < {last}"] if last < hi else [])
        return [f"{indent}if {' and '.join(tests)}:"] + _arm_tree(
            a, segment, body, first, last, indent + "    ")
    if hi - lo == 1:
        entries = segment.arms[lo]
        block: list[str] = []
        arm = _Emitter(block, indent,
                       _count_refs([value for _, value in entries]),
                       a.sig_var, "a", max_inline=_FUSED_MAX_INLINE)
        arm.cache = dict(body.cache)
        arm.const_cache = body.const_cache
        for name, value in entries:
            code = arm.ref(value)
            block.append(f"{indent}{a.sig_var(name)} |= {code}")
        return block
    mid = (lo + hi) // 2
    return ([f"{indent}if _k < {mid}:"]
            + _arm_tree(a, segment, body, lo, mid, indent + "    ")
            + [f"{indent}else:"]
            + _arm_tree(a, segment, body, mid, hi, indent + "    "))


def _emit_retirement(a: _CoreAnalysis, lines: list[str], exit_to,
                     intr: str) -> None:
    """Emit one retirement, fetch to tick, as the body of a cycle loop.

    ``run_cycles`` (one instance) and ``run_fleet`` (N lanes) both run
    this body.  It computes what :meth:`repro.rtl.core_sim.RisspSim._cycle`
    computes, with the same exits in the same order and the same RVFI row
    fields, but with locals for the per-cycle ``env`` traffic, and with
    each signal evaluated once where ``_cycle`` settles the whole DAG
    with ``dmem_rdata = 0`` and again after a load: the signals the load
    reads (``illegal``, ``dmem_re``, ``dmem_addr`` and their
    dependencies) come before it, the rest after it (see
    :class:`_Segment`).  A ``dmem_rdata``-cone signal the load reads, in
    a mutant only, is evaluated both before (with ``dmem_rdata = 0``) and
    after, as in ``_cycle``.  Each stretch ORs its switch arms in one
    active-arm pass (:func:`_emit_segment`).

    The RVFI row goes to ``sink`` (a trace's
    :meth:`~repro.sim.tracing.RvfiTrace.row_sink`, or None when untraced)
    as one ``FIELDS``-ordered 17-tuple; its ``rs1_rdata``/``rs2_rdata``
    are the register-file read ports' data signals, which are always
    evaluated eagerly.

    The enclosing loop binds ``regfile``, ``mem`` (the RAM bytearray,
    which stores write), ``words`` (its
    :func:`~repro.sim.memory.word_view`, which fetch and load read) and
    ``ram_size``.  ``exit_to(event, indent)`` returns the lines to emit
    where the generated code cannot finish the retirement itself.  The
    events are named like the ``fleet.diverge.*`` counters: ``fetch``,
    ``rv32e_bound``, ``emulated``, ``illegal``, ``load_oob``, ``other``
    (malformed store strobe), ``store_oob``, ``trap`` and ``mret`` (the
    last two and ``emulated`` on trap-capable cores only).  None fires
    after the retirement wrote RAM or ticked a register — ecall, ebreak
    and ``mret`` neither load nor store — so a loop may leave at any of
    them with the instruction unexecuted.  ``intr`` is the expression
    for the RVFI row's ``intr`` column.
    """
    module = a.module
    spec = module.regfile
    sig_var = a.sig_var
    effective = a.effective
    emit = lines.append
    emit(f"            pc = {sig_var('pc')}")
    emit("            if pc & 3 or pc + 4 > ram_size:")
    lines.extend(exit_to("fetch", "                "))
    emit("            else:")
    emit("                w = words[pc >> 2]")
    emit("            cls = wclass_get(w)")
    emit("            if cls is None:")
    emit("                cls = classify(w)")
    emit("            if cls == 3:")
    # RV32E register-bound violation: trap/refuse harness-side before
    # the datapath truncates the register field (PR 5 conformance fix).
    lines.extend(exit_to("rv32e_bound", "                "))
    if a.trap_core:
        emit("            if cls == 1:")
        lines.extend(exit_to("emulated", "                "))
    emit(f"            {sig_var('imem_rdata')} = w")
    emit(f"            {sig_var('dmem_rdata')} = 0")
    if a.decode_out:
        unpacked = "".join(sig_var(name) + ", " for name in a.decode_out)
        emit("            _dv = dcache_get(w)")
        emit("            if _dv is None:")
        emit("                _dv = _DCACHE[w] = decode_comb(w)")
        emit(f"            ({unpacked}) = _dv")
    body = _core_emitter(lines, "            ",
                         [effective[name] for name in a.cycle_names
                          if name not in a.indexed],
                         sig_var, "t", module)
    _emit_segment(a, a.pre_load, body)
    emit(f"            if {sig_var('illegal')}:")
    lines.extend(exit_to("illegal", "                "))
    emit(f"            reading = {sig_var('dmem_re')}")
    emit("            load_addr = mem_word = 0")
    emit("            if reading:")
    emit(f"                load_addr = {sig_var('dmem_addr')}")
    emit("                _ba = load_addr & 4294967292")
    emit("                if _ba + 4 <= ram_size:")
    emit("                    mem_word = words[_ba >> 2]")
    emit("                else:")
    lines.extend(exit_to("load_oob", "                    "))
    emit(f"                {sig_var('dmem_rdata')} = mem_word")
    # Code cached before the load that reads the load's data (through a
    # cone signal evaluated early) is stale after it.
    stale = {"dmem_rdata", *a.cone_names}
    for expr in [expr for expr in body.cache
                 if expr_signals(expr) & stale]:
        del body.cache[expr]
    _emit_segment(a, a.post_load, body)
    emit("            mem_addr = mem_wmask = mem_wdata = 0")
    emit(f"            _wstrb = {sig_var('dmem_wstrb')}")
    emit("            if _wstrb:")
    emit("                _width = WSTRB_WIDTH.get(_wstrb)")
    emit("                if _width is None:")
    lines.extend(exit_to("other", "                    "))
    emit("                _off = (_wstrb & -_wstrb).bit_length() - 1")
    emit(f"                mem_addr = ({sig_var('dmem_addr')}"
         " & 4294967292) + _off")
    emit("                mem_wmask = (1 << _width) - 1")
    emit(f"                mem_wdata = ({sig_var('dmem_wdata')}"
         " >> (8 * _off)) & ((1 << (8 * _width)) - 1)")
    emit("                if mem_addr + _width <= ram_size:")
    emit("                    mem[mem_addr:mem_addr + _width] = "
         "mem_wdata.to_bytes(_width, 'little')")
    emit("                else:")
    lines.extend(exit_to("store_oob", "                    "))
    trapped = "0"
    if a.trap_core:
        # core_fusable guarantees trap_core == has_trap_out, so the trap
        # output, the mret class and the fire-index plumbing come and go
        # together.
        trapped = "trapped"
        emit("            trapped = 0")
        emit(f"            if {sig_var('trap')}:")
        lines.extend(exit_to("trap", "                "))
        emit("            elif cls == 2:")
        lines.extend(exit_to("mret", "                "))
    emit(f"            if not halted and {sig_var('halt')}:")
    emit("                halted = True")
    emit("                reason = halt_reason(w)")
    emit("            if sink is not None:")
    emit("                mem_rmask = mem_rdata = 0")
    emit("                if reading:")
    emit("                    mem_addr, mem_rmask, mem_rdata = "
         "trace_load(w, load_addr, mem_word)")
    emit(f"                _we = {sig_var(a.we_sig)}")
    emit(f"                _wa = {sig_var(a.waddr_sig)} if _we else 0")
    emit(f"                sink((count, w, pc, {sig_var('next_pc')},")
    emit(f"                      {sig_var(a.rs1_addr_sig)}, "
         f"{sig_var(a.rs2_addr_sig)},")
    emit(f"                      {sig_var(a.rs1_data_sig)}, "
         f"{sig_var(a.rs2_data_sig)},")
    emit(f"                      _wa, {sig_var(a.wdata_sig)} if _we and _wa "
         "else 0,")
    emit("                      mem_addr, mem_rmask, mem_wmask, mem_rdata, "
         "mem_wdata,")
    emit(f"                      {trapped}, {intr}))")
    # Tick: all next/enable values are latched into temporaries before any
    # register local is reassigned — commits must observe pre-tick state
    # even when one register's next is another register's current value.
    tick_roots = list(a.tick_next.values()) + list(a.tick_enable.values())
    tick = _core_emitter(lines, "            ", tick_roots, sig_var, "k",
                         module)
    commits: list[str] = []
    for index, reg in enumerate(a.registers):
        if reg.next is None:
            continue
        emit(f"            _nx{index} = {tick.ref(a.tick_next[reg.name])}")
        if reg.enable is not None:
            emit(f"            _en{index} = "
                 f"{tick.ref(a.tick_enable[reg.name])}")
            commits.append(f"            if _en{index}:\n"
                           f"                {sig_var(reg.name)} = "
                           f"_nx{index}")
        else:
            commits.append(f"            {sig_var(reg.name)} = _nx{index}")
    emit(f"            if {sig_var(a.we_sig)}:")
    emit(f"                _wa = {sig_var(a.waddr_sig)} % {spec.num_regs}")
    emit("                if _wa:")
    emit(f"                    regfile[_wa] = {sig_var(a.wdata_sig)}"
         f" & {_mask(spec.width)}")
    lines.extend(commits)
    emit("            count += 1")
    emit("            if halted:")
    emit("                break")


def _generate_core_source(a: _CoreAnalysis) -> str:
    """Generate the fused ``run_cycles`` source for a fusable core.

    The loop body is :func:`_emit_retirement`; at each of its exit events
    the loop calls back into the harness (:class:`RisspSim`'s ``_fused_*``
    methods), flushing loop-carried registers to ``env`` around any
    callback that can read or write them, and carries on.
    """
    module = a.module
    sig_var = a.sig_var
    trap_core = a.trap_core
    registers = a.registers
    effective = a.effective
    decode_names = a.decode_names
    synth_order = a.synth_order
    decode_out = a.decode_out
    intr = "intr" if trap_core else "0"

    lines: list[str] = []
    emit = lines.append
    if decode_out:
        emit("_DCACHE = {}")
        emit("")
        emit("def decode_comb(w):")
        emit(f"    {sig_var('imem_rdata')} = w")
        decode_emitter = _Emitter(
            lines, "    ",
            _count_refs([effective[name] for name in decode_names]
                        + [expr for _, expr in synth_order]),
            sig_var, "d", max_inline=_FUSED_MAX_INLINE)
        for name in decode_names:
            code = decode_emitter.ref(effective[name])
            emit(f"    {sig_var(name)} = {code}")
        for sig, expr in synth_order:
            emit(f"    {sig_var(sig.name)} = {decode_emitter.ref(expr)}")
        if a.act_selects:
            flags = "".join(sig_var(name) + ", " for name in a.act_selects)
            emit(f"    {sig_var('_act')} = tuple("
                 f"_k for _k, _s in enumerate(({flags})) if _s)")
        returned = "".join(sig_var(name) + ", " for name in decode_out)
        emit(f"    return ({returned})")
        emit("")
    emit("def run_cycles(ctx, count, limit, sink):")
    for key, local in (("env", "env"), ("regfile", "regfile"),
                       ("mem", "mem"), ("ram_size", "ram_size"),
                       ("fetch", "fetch_slow"), ("load_mmio", "load_mmio"),
                       ("store_mmio", "store_mmio"),
                       ("illegal", "retire_illegal"),
                       ("halt_reason", "halt_reason"),
                       ("trace_load", "trace_load")):
        emit(f"    {local} = ctx[{key!r}]")
    emit("    wclass_get = ctx['wclass'].get")
    emit("    classify = ctx['classify']")
    if trap_core:
        emit("    retire_emulated = ctx['emulated']")
        emit("    retire_mret = ctx['mret']")
        emit("    enter_hw_trap = ctx['hw_trap']")
        emit("    fire_index = ctx['fire_index']")
        emit("    take_interrupt = ctx['take_interrupt']")
    if decode_out:
        emit("    dcache_get = _DCACHE.get")
    for port in module.inputs():
        if port.name not in ("imem_rdata", "dmem_rdata"):
            emit(f"    {sig_var(port.name)} = env[{port.name!r}]"
                 f" & {_mask(port.width)}")

    flush = [f"env[{reg.name!r}] = {sig_var(reg.name)}"
             for reg in registers]
    reload = [f"{sig_var(reg.name)} = env[{reg.name!r}] & {_mask(reg.width)}"
              for reg in registers]
    refire = ["fire_at = fire_index()"] if trap_core else []
    retire_illegal = (flush + [f"retire_illegal(count, pc, w, {intr})"]
                      + reload + refire + ["count += 1", "continue"])
    callbacks = {
        "fetch": ["w = fetch_slow(pc)"],
        "rv32e_bound": retire_illegal,
        "emulated": (flush
                     + ["halted, reason = retire_emulated(count, pc, w, intr)"]
                     + reload + ["fire_at = fire_index()", "count += 1",
                                 "if halted:", "    break", "continue"]),
        "illegal": retire_illegal,
        "load_oob": ["mem_word = load_mmio(count, _ba)"] + refire,
        "other": ["raise SimulationError("
                  "'malformed dmem_wstrb ' + format(_wstrb, '#06b'))"],
        "store_oob": ["if store_mmio(count, mem_addr, mem_wdata, _width):",
                      "    halted = True",
                      "    reason = 'poweroff'"] + refire,
        "trap": ["enter_hw_trap()", "trapped = 1", "fire_at = fire_index()"],
        "mret": ["retire_mret()", "fire_at = fire_index()"],
    }

    def call_back(event: str, indent: str) -> list[str]:
        return [indent + statement for statement in callbacks[event]]

    lines.extend("    " + statement for statement in reload)
    emit("    halted = False")
    emit("    reason = ''")
    emit("    w = env.get('imem_rdata', 0)")
    emit(f"    {sig_var('imem_rdata')} = w")
    emit(f"    {sig_var('dmem_rdata')} = env.get('dmem_rdata', 0)")
    if trap_core:
        emit("    fire_at = fire_index()")
    emit("    words = word_view(mem)")
    emit("    try:")
    emit("        while count < limit:")
    if trap_core:
        # Interrupt entry between retirements: one integer compare per
        # cycle against the precomputed fire index over every enabled
        # source (ISS fast-path idiom); the callback arbitrates and
        # returns the handler pc plus the RVFI intr cause code.
        emit("            if count >= fire_at:")
        lines.extend("                " + statement for statement in flush)
        emit(f"                env['pc'], intr = take_interrupt(count, "
             f"{sig_var('pc')})")
        lines.extend("                " + statement for statement in reload)
        emit("                fire_at = fire_index()")
        emit("            else:")
        emit("                intr = 0")
    _emit_retirement(a, lines, call_back, intr)
    emit("    finally:")
    emit("        words.release()")
    lines.extend("        " + statement for statement in flush)
    # Flush the last word the *hardware datapath* evaluated, not the raw
    # fetch: an emulated Zicsr/wfi retirement never drives the RTL inputs
    # on the interpreter either, so a paused probe must not see the
    # emulated word settle through the combinational logic.
    emit(f"        env['imem_rdata'] = {sig_var('imem_rdata')}")
    emit(f"        env['dmem_rdata'] = {sig_var('dmem_rdata')}")
    emit("    return halted, reason, count")
    return "\n".join(lines) + "\n"


_core_cache: "weakref.WeakKeyDictionary[Module, CompiledCore]" \
    = weakref.WeakKeyDictionary()


def compile_core(module: Module) -> CompiledCore:
    """Compile (or fetch the cached compilation of) the fused cycle loop.

    Same caching contract as :func:`compile_module`: the module is checked
    (frozen) and the cache is keyed on the module object alone, so a
    failure-injection variant from ``with_assigns`` compiles on its own.
    A module that is not :func:`core_fusable` raises :class:`IrError`."""
    return _compile_core(module, lambda: _analyze_core(module))


def _compile_core(module: Module, analysis) -> CompiledCore:
    """:func:`compile_core`, with the core's :class:`_CoreAnalysis` from
    ``analysis()``, which only a cache miss calls."""
    module.check()
    if not core_fusable(module):
        raise IrError(f"module {module.name} does not expose the fused "
                      f"harness interface")
    compiled = _core_cache.get(module)
    if compiled is not None:
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["compile_cache.core.hit"] += 1
        return compiled
    if _obs._ACTIVE is not None:
        _obs._ACTIVE.counters["compile_cache.core.miss"] += 1
    from ..sim.decoded import SimulationError
    source = _generate_core_source(analysis())
    namespace: dict[str, object] = {"WSTRB_WIDTH": WSTRB_WIDTH,
                                    "SimulationError": SimulationError,
                                    "word_view": word_view}
    exec(compile(source, f"<rtl-fused:{module.name}>", "exec"), namespace)
    compiled = CompiledCore(run_cycles=namespace["run_cycles"],
                            source=source, namespace=namespace)
    _core_cache[module] = compiled
    return compiled


# ---------------------------------------------------------------------------
# Batched fleet loop (PR 7)

@dataclass
class CompiledFleet:
    """The batched fleet entry point plus its generated source."""

    run_fleet: object   # callable(ctx, lanes, quantum) ->
    #                     (halted: list[(lane, reason)],
    #                      diverged: list[(lane, cause)])
    #: Per-lane register-bank layout: bank slot ``i`` holds the register
    #: named ``registers[i]`` — the adoption contract between the batched
    #: arrays and a per-instance ``RisspSim``'s ``env``.
    registers: tuple
    source: str
    #: The exec namespace the batched loop runs in (grafted decode memo
    #: included) — the generated-source auditor whitelists exactly these
    #: bindings as the loop's legal global loads.
    namespace: dict = None


def _generate_fleet_source(a: _CoreAnalysis) -> str:
    """Generate the batched ``run_fleet(ctx, lanes, quantum)`` source.

    One call advances every listed lane (instance) by up to ``quantum``
    retirements over per-instance state arrays: ``mems[lane]`` (RAM
    bytearray), ``regfiles[lane]`` (register-file list), ``regs[lane]``
    (module-register bank laid out per :attr:`CompiledFleet.registers`),
    ``counts[lane]`` and ``sinks[lane]`` (RVFI row sink or None); each
    lane's RAM is read through a word view bound for its stretch of the
    pass.  The cycle body is the single-instance retirement,
    :func:`_emit_retirement`
    (decode cache grafted from the fused namespace by
    :func:`compile_fleet`).

    Divergence rule: at each exit event of that body — where the
    single-instance loop would call back into the harness — the lane sets
    ``stop`` to the event name and leaves the batch with the instruction
    unexecuted (no event fires after a retirement wrote RAM or ticked a
    register).  The call returns ``(lane, event)`` pairs in ``diverged``;
    the caller re-runs the instruction on the per-instance fused path,
    which owns every one of those events, so a diverged lane's trajectory
    (including error surfaces) is bit-identical to a single-core run.

    Halting retirements (ecall/ebreak with no handler installed) complete
    in-batch exactly like the fused loop and land in ``halted``.
    """
    module = a.module
    sig_var = a.sig_var
    lines: list[str] = []
    emit = lines.append
    emit("def run_fleet(ctx, lanes, quantum):")
    for key, local in (("mems", "mems"), ("regfiles", "regfiles"),
                       ("regs", "regbanks"), ("counts", "counts"),
                       ("sinks", "sinks"), ("ram_size", "ram_size"),
                       ("halt_reason", "halt_reason"),
                       ("trace_load", "trace_load")):
        emit(f"    {local} = ctx[{key!r}]")
    emit("    wclass_get = ctx['wclass'].get")
    emit("    classify = ctx['classify']")
    if a.decode_out:
        emit("    dcache_get = _DCACHE.get")
    # Non-memory input ports hold their reset value (0) for every batched
    # lane, exactly like a fresh RtlSim the harness never drives.
    for port in module.inputs():
        if port.name not in ("imem_rdata", "dmem_rdata"):
            emit(f"    {sig_var(port.name)} = 0")
    emit("    halted_lanes = []")
    emit("    diverged = []")
    emit("    for lane in lanes:")
    emit("        regfile = regfiles[lane]")
    emit("        mem = mems[lane]")
    emit("        words = word_view(mem)")
    emit("        _rb = regbanks[lane]")
    for index, reg in enumerate(a.registers):
        emit(f"        {sig_var(reg.name)} = _rb[{index}]"
             f" & {_mask(reg.width)}")
    emit("        sink = sinks[lane]")
    emit("        count = counts[lane]")
    emit("        limit = count + quantum")
    emit("        halted = False")
    emit("        stop = ''")
    emit("        reason = ''")
    emit("        while count < limit:")
    _emit_retirement(a, lines, lambda event, indent: [
        f"{indent}stop = {event!r}", f"{indent}break"], "0")
    emit("        words.release()")
    for index, reg in enumerate(a.registers):
        emit(f"        _rb[{index}] = {sig_var(reg.name)}")
    emit("        counts[lane] = count")
    emit("        if halted:")
    emit("            halted_lanes.append((lane, reason))")
    emit("        elif stop:")
    emit("            diverged.append((lane, stop))")
    emit("    return halted_lanes, diverged")
    return "\n".join(lines) + "\n"


_fleet_cache: "weakref.WeakKeyDictionary[Module, CompiledFleet]" \
    = weakref.WeakKeyDictionary()


def compile_fleet(module: Module) -> CompiledFleet:
    """Compile (or fetch the cached compilation of) the batched fleet loop.

    Compiles the single-instance fused loop first and grafts its per-word
    decode cache (``_DCACHE`` dict plus the ``decode_comb`` function) into
    the batched loop's namespace: every instance of every
    :class:`~repro.rtl.fleet.FleetSim` sharing this module — and the
    per-instance fused path diverged lanes fall back to — decodes each
    distinct instruction word exactly once per process.  Same caching
    contract as :func:`compile_core`.

    A call that compiles the core too generates ``run_cycles`` and
    ``run_fleet`` from one :class:`_CoreAnalysis`.  The analysis is not
    kept past the call, since most cores never build a fleet."""
    analysis = functools.cache(lambda: _analyze_core(module))
    core = _compile_core(module, analysis)
    compiled = _fleet_cache.get(module)
    if compiled is not None:
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.counters["compile_cache.fleet.hit"] += 1
        return compiled
    if _obs._ACTIVE is not None:
        _obs._ACTIVE.counters["compile_cache.fleet.miss"] += 1
    source = _generate_fleet_source(analysis())
    namespace: dict[str, object] = {
        "WSTRB_WIDTH": WSTRB_WIDTH,
        "word_view": word_view,
        "_DCACHE": core.namespace.get("_DCACHE"),
        "decode_comb": core.namespace.get("decode_comb"),
    }
    exec(compile(source, f"<rtl-fleet:{module.name}>", "exec"), namespace)
    compiled = CompiledFleet(run_fleet=namespace["run_fleet"],
                             registers=tuple(module.registers),
                             source=source, namespace=namespace)
    _fleet_cache[module] = compiled
    return compiled
