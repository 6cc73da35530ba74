"""Differential test harness: compiled RTL evaluation vs the interpreter.

The tree-walking evaluator (:func:`repro.rtl.sim.eval_expr`) is the
reference oracle; the ``exec``-compiled per-cycle pair
(:func:`repro.rtl.compiled.compile_module`, what :class:`RtlSim` runs on
the ``fused`` backend) must be bit-identical to it on every signal of
every module.  Following the fast-path-vs-exact-reference methodology the
ISSUE borrows from the IRM-CG paper, this harness checks the fast backend
against the oracle two ways:

* **randomized expression DAGs** — a seeded generator builds modules out
  of every :class:`~repro.rtl.ir.Op`, widths 1–64, deep structural
  sharing (the same subexpression object feeding many parents, which also
  exercises the compiler's CSE), ModularEX-shaped ORs of masked arms
  ``x & sext(s)`` under zero-, one- and multi-hot selects (the shape the
  compiler evaluates lazily), registers with enables, and drives them
  with random input vectors, asserting the full ``env`` matches after
  every ``eval_comb`` and ``tick``;
* **whole-core lock-step fuzz** — the full RV32E RISSP is driven with
  thousands of random (valid) instruction words on both backends at once,
  comparing complete ``env`` and register-file state every cycle.
"""

import ast
import hashlib
import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from repro import obs
from repro.analysis import structural_facts
from repro.isa import INSTRUCTIONS
from repro.rtl import build_rissp, compile_module
from repro.rtl.compiled import compile_core, compile_fleet, stable_fingerprint
from repro.rtl.modularex import build_modularex
from repro.rtl.ir import (Binary, Cat, Const, Ext, IrError, Module, Mux, Not,
                          Op, Port, RegFileSpec, Register, Sig, Slice,
                          _read_mux_tree, const)
from repro.rtl.sim import RtlSim
from repro.verify.fuzz import random_words

_WIDTHS = (1, 2, 3, 5, 7, 8, 13, 16, 17, 24, 31, 32, 33, 48, 63, 64)


def _fit(rng, expr, width):
    """Adapt ``expr`` to ``width`` bits via slice / zero- or sign-extend."""
    if expr.width == width:
        return expr
    if expr.width > width:
        return Slice(expr, width - 1, 0)
    return Ext(expr, width, signed=bool(rng.getrandbits(1)))


def _masked_arms(rng, pool, width):
    """ModularEX's switch shape: an OR of 2-6 arms ``x_i & sext(s_i)``
    (either operand order), each 1-bit select drawn from the pool, so
    zero-, one- and multi-hot select patterns all occur."""
    arms = []
    for _ in range(rng.randrange(2, 7)):
        value = _fit(rng, rng.choice(pool), width)
        mask = Ext(_fit(rng, rng.choice(pool), 1), width, signed=True)
        arms.append(Binary(Op.AND, *((value, mask) if rng.getrandbits(1)
                                     else (mask, value))))
    node = arms[0]
    for arm in arms[1:]:
        node = Binary(Op.OR, node, arm)
    return node


def _arm_selects(expr):
    """The selects of a :func:`_masked_arms` node, else None."""
    if not isinstance(expr, Binary):
        return None
    if expr.op is Op.OR:
        left, right = _arm_selects(expr.a), _arm_selects(expr.b)
        return None if left is None or right is None else left + right
    if expr.op is Op.AND:
        for mask in (expr.a, expr.b):
            if isinstance(mask, Ext) and mask.signed and mask.a.width == 1:
                return [mask.a]
    return None


def _random_node(rng, pool):
    kind = rng.randrange(9)
    a = rng.choice(pool)
    if kind == 8:
        return _masked_arms(rng, pool, a.width)
    if kind == 0:
        return Not(a)
    if kind == 1:
        op = rng.choice([Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR])
        return Binary(op, a, _fit(rng, rng.choice(pool), a.width))
    if kind == 2:
        op = rng.choice([Op.EQ, Op.NE, Op.ULT, Op.SLT, Op.UGE, Op.SGE])
        return Binary(op, a, _fit(rng, rng.choice(pool), a.width))
    if kind == 3:
        # Shift amounts keep their own width so >=width shifts happen often.
        op = rng.choice([Op.SHL, Op.LSHR, Op.ASHR])
        amount = rng.choice(pool)
        if amount.width > 8:
            amount = Slice(amount, 7, 0)
        if rng.getrandbits(1):
            amount = Const(rng.randrange(0, 2 * a.width + 2),
                           max(1, a.width.bit_length() + 1))
        return Binary(op, a, amount)
    if kind == 4:
        sel = _fit(rng, rng.choice(pool), 1)
        return Mux(sel, a, _fit(rng, rng.choice(pool), a.width))
    if kind == 5:
        parts = [a]
        total = a.width
        for _ in range(rng.randrange(1, 3)):
            part = rng.choice(pool)
            if total + part.width > 64:
                break
            parts.append(part)
            total += part.width
        if len(parts) == 1:
            return Not(a)
        return Cat(tuple(parts))
    if kind == 6:
        hi = rng.randrange(a.width)
        lo = rng.randrange(hi + 1)
        return Slice(a, hi, lo)
    out_width = rng.randrange(a.width, min(64, a.width + 16) + 1)
    return Ext(a, out_width, signed=bool(rng.getrandbits(1)))


def _random_module(seed):
    """A random module whose DAG shares subexpressions across assigns."""
    rng = random.Random(seed)
    module = Module(f"fuzz{seed}")
    pool = [Const(rng.getrandbits(w) if rng.getrandbits(1) else (1 << w) - 1,
                  w)
            for w in rng.sample(_WIDTHS, 2)]
    inputs = []
    for index in range(rng.randrange(3, 7)):
        sig = module.input(f"in{index}", rng.choice(_WIDTHS))
        inputs.append(sig)
        pool.append(sig)
    registers = []
    for index in range(rng.randrange(0, 3)):
        sig = module.register(f"r{index}", rng.choice(_WIDTHS),
                              reset_value=rng.getrandbits(8))
        registers.append(sig)
        pool.append(sig)
    for index in range(rng.randrange(20, 45)):
        node = _random_node(rng, pool)
        module.assign(module.wire(f"n{index}", node.width), node)
        pool.append(node)
    for sig in registers:
        enable = None
        if rng.getrandbits(1):
            enable = _fit(rng, rng.choice(pool), 1)
        module.connect_register(sig.name, _fit(rng, rng.choice(pool),
                                               sig.width), enable)
    module.assign(module.output("out", pool[-1].width), pool[-1])
    module.check()
    return module, inputs


def _drive_both(rng, sims, inputs):
    values = {}
    for sig in inputs:
        roll = rng.randrange(4)
        if roll == 0:
            values[sig.name] = 0
        elif roll == 1:
            values[sig.name] = (1 << sig.width) - 1
        else:
            values[sig.name] = rng.getrandbits(sig.width)
    for sim in sims:
        sim.set_inputs(**values)


def _assert_same_state(compiled, interp, context):
    assert compiled.env == interp.env, (
        context + ": " + repr(sorted(
            (k, compiled.env.get(k), interp.env.get(k))
            for k in set(compiled.env) | set(interp.env)
            if compiled.env.get(k) != interp.env.get(k))[:5]))
    assert compiled.regfile_data == interp.regfile_data, context


@pytest.mark.parametrize("seed", range(40))
def test_random_dag_backends_identical(seed):
    module, inputs = _random_module(seed)
    compiled = RtlSim(module, backend="fused")
    interp = RtlSim(module, backend="interpreter")
    rng = random.Random(seed + 10_000)
    for vector in range(12):
        _drive_both(rng, (compiled, interp), inputs)
        for sim in (compiled, interp):
            sim.eval_comb()
        _assert_same_state(compiled, interp, f"seed={seed} vector={vector}")
        for sim in (compiled, interp):
            sim.tick()
        _assert_same_state(compiled, interp,
                           f"seed={seed} vector={vector} post-tick")


def test_masked_arm_fuzz_covers_every_select_pattern():
    """Across the DAG fuzz seeds, the masked-arm nodes see no select set,
    exactly one, and several at once — the compiled pair's lazy arms
    are checked against the oracle on every pattern, multi-hot included."""
    from repro.rtl.sim import eval_expr

    hot_counts = set()
    for seed in range(40):
        module, inputs = _random_module(seed)
        interp = RtlSim(module, backend="interpreter")
        rng = random.Random(seed + 10_000)
        arm_nodes = [expr for expr in module.assigns.values()
                     if len(_arm_selects(expr) or ()) >= 2]
        for _ in range(12):
            _drive_both(rng, (interp,), inputs)
            interp.eval_comb()
            for expr in arm_nodes:
                hot = sum(eval_expr(sel, interp.env)
                          for sel in _arm_selects(expr))
                hot_counts.add(min(hot, 2))
            interp.tick()
    assert hot_counts == {0, 1, 2}


def test_random_dag_every_signal_matches_eval_expr():
    """Spot-check the compiled value of every assign against eval_expr
    directly (not just env equality of two RtlSims)."""
    from repro.rtl.sim import eval_expr

    module, inputs = _random_module(99)
    compiled = RtlSim(module, backend="fused")
    rng = random.Random(7)
    _drive_both(rng, (compiled,), inputs)
    compiled.eval_comb()
    for name, expr in module.assigns.items():
        assert compiled.env[name] == eval_expr(expr, compiled.env), name


def _modularex_arms(core):
    """``(select wire, output)`` of every ModularEX arm ``val &
    sel.sext(w)`` of ``core`` whose select is a decode wire (the default
    arm's select is the NOR of all of them)."""
    ex = build_modularex(core.meta["mnemonics"])
    arms = []
    for port in ex.outputs():
        stack = [ex.assigns[port.name]]
        while stack:
            node = stack.pop()
            if isinstance(node, Binary) and node.op is Op.OR:
                stack += (node.a, node.b)
            elif isinstance(node, Binary) and node.op is Op.AND \
                    and isinstance(node.b, Ext) and isinstance(node.b.a, Sig):
                arms.append(("ex_" + node.b.a.name, port.name))
    return arms


def _act_selects(core_source):
    """The select locals of ``decode_comb``'s ``_act`` tuple, by index."""
    tree = ast.parse(core_source)
    [target] = [node for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "v__act"]
    [generator] = target.value.args[0].generators
    return [name.id for name in generator.iter.args[0].elts]


def _pass_blocks(source, function, selects):
    """``(select index, target)`` of every ``v |= val`` in the active-arm
    passes of ``function``, after checking that the ``if`` tests around
    it pin the pass's ``_k`` to that one index."""
    [func] = [node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    blocks = []

    def walk(suite, lo, hi):
        for stmt in suite:
            if isinstance(stmt, ast.AugAssign):
                assert isinstance(stmt.op, ast.BitOr) and hi - lo == 1, \
                    (function, stmt.lineno, lo, hi)
                blocks.append((lo, stmt.target.id))
            elif isinstance(stmt, ast.If):
                tests = stmt.test.values \
                    if isinstance(stmt.test, ast.BoolOp) else [stmt.test]
                body = (lo, hi)
                for test in tests:
                    assert test.left.id == "_k"
                    bound = test.comparators[0].value
                    if isinstance(test.ops[0], ast.Lt):
                        body = (body[0], min(body[1], bound))
                        rest = (max(lo, bound), hi)
                    else:
                        body = (max(body[0], bound), body[1])
                        rest = (lo, min(hi, bound))
                walk(stmt.body, *body)
                if stmt.orelse:
                    assert len(tests) == 1
                    walk(stmt.orelse, *rest)
            elif not isinstance(stmt, ast.Assign):
                raise AssertionError(f"{function}:{stmt.lineno}: "
                                     f"unexpected statement in a pass")

    loops = [node for node in ast.walk(func)
             if isinstance(node, ast.For) and node.target.id == "_k"]
    assert loops, function
    for loop in loops:
        assert loop.iter.id == "v__act"
        walk(loop.body, 0, len(selects))
    return blocks, ast.get_source_segment(source, func)


def test_every_modularex_arm_is_conditional_on_its_select():
    """No generated code sign-extends a select into a mask, and each
    ModularEX arm of the full RV32E core is evaluated only when its select
    is set.  The per-cycle pair emits every arm as ``(val if sel else
    0)``.  The fused loops emit every arm of a pass signal only inside its
    own select's block of an active-arm pass: the ``if _k < m`` tests
    around each ``v |= val`` pin ``_k`` to one ``_act`` index, every
    select (and the default arm's) has a block that ORs into ``next_pc``,
    no select has more blocks' ORs than arms, and the loops reach the
    selects through ``_act`` alone."""
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    arms = _modularex_arms(core)
    selects = Counter(select for select, _ in arms)
    assert len(selects) == len(core.meta["mnemonics"])
    sources = {"compile_module": compile_module(core).source,
               "compile_core": compile_core(core).source,
               "compile_fleet": compile_fleet(core).source}
    for kind, source in sources.items():
        # Sign-extending a 1-bit value emits ``(x >> 0)``.
        assert ">> 0)" not in source, kind
    source = sources["compile_module"]
    for select in selects:
        assert f"if v_{select} else 0)" in source, select
    # The per-cycle pair emits every distinct arm exactly once.
    assert Counter(re.findall(r"if v_(ex_sel_\w+) else 0\)",
                              source)) == selects

    act = _act_selects(sources["compile_core"])
    default = set(act) - {f"v_{select}" for select in selects}
    assert len(act) == len(selects) + 1 and len(default) == 1, act
    assert next(iter(default)).startswith("v__dec")
    for kind, function in (("compile_core", "run_cycles"),
                           ("compile_fleet", "run_fleet")):
        blocks, body = _pass_blocks(sources[kind], function, act)
        assert {act[index] for index, target in blocks
                if target == "v_ex_next_pc"} == set(act), kind
        ors = Counter(act[index] for index, _ in blocks)
        for select, count in selects.items():
            assert ors[f"v_{select}"] <= count, (kind, select)
        assert "v_ex_sel_" not in body, kind


#: The edge_flow apps plus crc32: every ``workload_target`` core the
#: generated-source checks cover.
WORKLOAD_CORES = ("armpit", "xgboost", "af_detect", "af_detect_irq",
                  "sensor_streaming", "label_refresh", "uart_selftest",
                  "crc32")


def test_fused_loops_index_read_ports_and_view_words():
    """On the full core and every workload core, ``run_cycles`` and
    ``run_fleet`` read each register-file port with one index, so no
    read-mux tree (whose leaves include ``regfile[15]``) is emitted, and
    fetch and load read RAM through the word view, never a byte slice.
    (``tests/test_rtl_fused_diff.py`` runs a read port that is not the
    shared tree, which keeps its tree.)"""
    from repro.farm.campaigns import workload_target

    full = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    cores = [full] + [workload_target(name)[0] for name in WORKLOAD_CORES]
    for core in cores:
        for kind, source in (("run_cycles", compile_core(core).source),
                             ("run_fleet", compile_fleet(core).source)):
            context = (core.name, kind)
            for port in ("v_rf_rs1_addr", "v_rf_rs2_addr"):
                assert source.count(f"regfile[{port}]") == 1, context
            assert "regfile[15]" not in source, context
            assert "int.from_bytes(" not in source, context
            assert source.count("w = words[pc >> 2]") == 1, context
            assert source.count("mem_word = words[_ba >> 2]") == 1, context


def test_rissp_core_lockstep_fuzz():
    """Whole-module lock-step: the full RV32E RISSP on both backends, a few
    thousand cycles of random instructions, full state compared per cycle."""
    core = build_rissp([d.mnemonic for d in INSTRUCTIONS])
    compiled = RtlSim(core, backend="fused")
    interp = RtlSim(core, backend="interpreter")
    rng = random.Random(2025)
    for cycle, word in enumerate(random_words(2025, 2000)):
        dmem = rng.getrandbits(32)
        for sim in (compiled, interp):
            sim.set_inputs(imem_rdata=word, dmem_rdata=dmem)
            sim.eval_comb()
        _assert_same_state(compiled, interp, f"cycle={cycle} insn={word:#x}")
        for sim in (compiled, interp):
            sim.tick()
        _assert_same_state(compiled, interp,
                           f"cycle={cycle} insn={word:#x} post-tick")


def _checked_module():
    """A small checked module touching every frozen structure: ports,
    wires, assigns, a register with next/enable and a register file."""
    module = Module("frozen")
    a = module.input("a", 8)
    b = module.input("b", 8)
    module.assign(module.output("o", 8), a + b)
    acc = module.register("acc", 8, reset_value=1)
    module.connect_register("acc", acc + a, enable=b.bit(0))
    ra = module.wire("ra", 2)
    module.assign(ra, a.slice(1, 0))
    storage = [module.wire(f"q{index}", 8) for index in range(1, 4)]
    module.assign(module.wire("rd", 8),
                  _read_mux_tree([const(0, 8)] + storage, ra))
    module.assign(module.output("q", 8), module.sig("rd"))
    module.regfile = RegFileSpec(name="regs", num_regs=4, width=8,
                                 read_ports=[("ra", "rd")],
                                 storage_signals=["q1", "q2", "q3"])
    module.check()
    return module


def _eval_o(module, a, b):
    sim = RtlSim(module, backend="fused")
    sim.set_inputs(a=a, b=b)
    sim.eval_comb()
    return sim.get("o")


def test_checked_module_refuses_every_mutation():
    """check() freezes the structure: mutating a compiled module raises
    instead of silently recompiling."""
    module = _checked_module()
    first = compile_module(module)
    a, b = module.sig("a"), module.sig("b")
    for table, key, value in ((module.assigns, "o", a - b),
                              (module.wires, "w", 8),
                              (module.ports, "p", Port("p", 1, "in")),
                              (module.registers, "r", Register("r", 8))):
        with pytest.raises(IrError):
            table[key] = value
        with pytest.raises(IrError):
            del table[next(iter(table))]
        with pytest.raises(IrError):
            table.update({key: value})
    reg = module.registers["acc"]
    for name, value in (("next", a), ("enable", None), ("reset_value", 0)):
        with pytest.raises(FrozenInstanceError):
            setattr(reg, name, value)
    with pytest.raises(FrozenInstanceError):
        module.regfile.read_ports = ()
    with pytest.raises(IrError):
        module.regfile = None
    builders = (lambda: module.input("x", 1), lambda: module.output("y", 1),
                lambda: module.wire("z", 1), lambda: module.register("s", 1),
                lambda: module.assign("o", a),
                lambda: module.connect_register("acc", b))
    for build in builders:
        with pytest.raises(IrError):
            build()
    assert compile_module(module) is first
    assert _eval_o(module, 5, 3) == 8


def test_with_assigns_variant_compiles_without_touching_original():
    module = _checked_module()
    first = compile_module(module)
    facts = structural_facts(module)
    fingerprint = stable_fingerprint(module)
    a, b = module.sig("a"), module.sig("b")
    variant = module.with_assigns({"o": Binary(Op.SUB, a, b)})
    assert not variant.frozen
    second = compile_module(variant)
    assert variant.frozen and second is not first
    assert second.source != first.source
    assert _eval_o(variant, 5, 3) == 2
    # The original keeps its structure, cached code and memoized facts.
    assert compile_module(module) is first
    assert structural_facts(module) is facts
    assert stable_fingerprint(module) == fingerprint
    assert stable_fingerprint(variant) != fingerprint
    assert _eval_o(module, 5, 3) == 8
    with pytest.raises(IrError):
        module.with_assigns({"nope": a})
    with pytest.raises(IrError):
        module.with_assigns({"o": a.bit(0)})


def test_frozen_core_sims_derive_nothing(monkeypatch):
    """Once a core is checked and compiled, building RtlSim, RisspSim and
    FleetSim on it and describing it with CoreSpec.of hit every compile
    cache and memo: zero topological walks, zero structural hashes."""
    from repro.farm import CoreSpec, fleet_exercise_target
    from repro.rtl import ir
    from repro.rtl.core_sim import RisspSim
    from repro.rtl.fleet import FleetSim

    core, program = fleet_exercise_target()
    RisspSim(core, program, backend="fused")
    FleetSim(core, program, 1, backend="fused")
    CoreSpec.of(core)
    counts = {"walks": 0, "hashes": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ir, "topo_order", counting("walks", ir.topo_order))
    monkeypatch.setattr(hashlib, "sha256", counting("hashes", hashlib.sha256))
    for node in (Const, ir.Sig, Not, Binary, Mux, Cat, Slice, Ext):
        monkeypatch.setattr(node, "__hash__",
                            counting("hashes", node.__hash__))
    with obs.session() as telemetry:
        RtlSim(core)
        RisspSim(core, program, backend="fused")
        FleetSim(core, program, 4, backend="fused")
        CoreSpec.of(core)
    assert counts == {"walks": 0, "hashes": 0}
    hits = {kind: telemetry.counters[f"compile_cache.{kind}.hit"]
            for kind in ("module", "core", "fleet")}
    assert hits == {"module": 0, "core": 2, "fleet": 1}
    assert not any(telemetry.counters[f"compile_cache.{kind}.miss"]
                   for kind in hits)


def test_construction_compiles_only_the_loop_that_runs():
    """A fused cosimulation compiles the fused loop and never the
    per-cycle pair; an interpreter RisspSim compiles nothing, at
    construction or in run()."""
    from repro.farm import fleet_exercise_target
    from repro.rtl.core_sim import RisspSim, cosimulate

    core, program = fleet_exercise_target()
    variant = core.with_assigns({})          # fresh object: caches miss
    with obs.session() as telemetry:
        assert cosimulate(variant, program, backend="fused") is None
    counters = telemetry.counters
    assert counters["compile_cache.module.miss"] == 0
    assert counters["compile_cache.module.hit"] == 0
    assert counters["compile_cache.core.miss"] == 1
    with obs.session() as telemetry:
        sim = RisspSim(variant, program, backend="interpreter")
        assert sim.run().halted_by == "ecall"
    assert not any(telemetry.counters[f"compile_cache.{kind}.{event}"]
                   for kind in ("module", "core", "fleet")
                   for event in ("hit", "miss"))
