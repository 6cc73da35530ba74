"""MicroC compiler tests: language features, opt levels, correctness."""

import pytest

from repro.compiler import (
    LexError, ParseError, SemaError, compile_to_assembly,
    compile_to_program, normalize_level,
)
from repro.sim import run_program

LEVELS = ("O0", "O1", "O2", "O3", "Oz")


def run(src, level="O2", maxi=4_000_000):
    return run_program(compile_to_program(src, level).program,
                       max_instructions=maxi).exit_code


def s32(v):
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v & 0x80000000 else v


def test_arithmetic_and_precedence():
    assert run("int main(void){ return 2 + 3 * 4 - 1; }") == 13


def test_division_semantics_trunc_toward_zero():
    assert s32(run("int main(void){ return (-7) / 2; }")) == -3
    assert s32(run("int main(void){ return (-7) % 2; }")) == -1


def test_unsigned_division():
    assert run("int main(void){ unsigned a = 0xFFFFFFFE;"
               " return (int)((a / 3) & 0x7FFFFFFF); }") == \
        ((0xFFFFFFFE // 3) & 0x7FFFFFFF)


def test_shift_semantics():
    assert s32(run("int main(void){ int a = -16; return a >> 2; }")) == -4
    assert run("int main(void){ unsigned a = 0x80000000;"
               " return (int)(a >> 28); }") == 8


def test_comparisons_signed_unsigned():
    assert run("int main(void){ int a = -1; return a < 0; }") == 1
    assert run("int main(void){ unsigned a = 0xFFFFFFFF;"
               " return a < 1; }") == 0


def test_short_circuit_side_effects():
    src = """
    int calls = 0;
    int bump(void) { calls = calls + 1; return 1; }
    int main(void) {
        int r = 0 && bump();
        r = r + (1 || bump());
        return calls * 10 + r;
    }
    """
    assert run(src) == 1    # bump never called, r == 1


def test_arrays_and_pointers():
    src = """
    int data[4] = {10, 20, 30, 40};
    int main(void) {
        int *p = data;
        p[1] = p[1] + 1;
        return *p + p[1] + data[3];
    }
    """
    assert run(src) == 10 + 21 + 40


def test_char_short_memory_widths():
    src = """
    char bytes[4];
    short halves[2];
    int main(void) {
        bytes[0] = (char)200;           /* signed char wraps */
        halves[0] = (short)0x8000;
        return (bytes[0] < 0) * 10 + (halves[0] < 0);
    }
    """
    assert run(src) == 11


def test_recursion():
    src = """
    int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    int main(void) { return fib(12); }
    """
    assert run(src) == 144


def test_do_while_and_break_continue():
    src = """
    int main(void) {
        int i = 0;
        int total = 0;
        do {
            i++;
            if (i == 3) continue;
            if (i > 6) break;
            total += i;
        } while (i < 100);
        return total;     /* 1+2+4+5+6 */
    }
    """
    assert run(src) == 18


def test_ternary_and_incdec():
    src = """
    int main(void) {
        int a = 5;
        int b = a++;
        int c = ++a;
        return (a == 7 ? 100 : 0) + b + c;
    }
    """
    assert run(src) == 100 + 5 + 7


def test_globals_with_initializers():
    src = """
    int scalar = 7;
    int table[3] = {1, 2, 3};
    unsigned char msg[4] = "hi";
    int main(void) { return scalar + table[2] + msg[1]; }
    """
    assert run(src) == 7 + 3 + ord("i")


@pytest.mark.parametrize("level", LEVELS)
def test_all_levels_agree(level):
    src = """
    int acc(int *xs, int n) {
        int t = 0;
        for (int i = 0; i < n; i++) t += xs[i] * (i + 1);
        return t;
    }
    int data[6] = {3, -1, 4, 1, -5, 9};
    int main(void) { return acc(data, 6) & 0xFFFF; }
    """
    want = sum(v * (i + 1) for i, v in
               enumerate([3, -1, 4, 1, -5, 9])) & 0xFFFF
    assert run(src, level) == want


def test_o0_bigger_than_o2():
    src = "int main(void){ int t=0; for(int i=0;i<9;i++) t+=i; return t; }"
    o0 = compile_to_program(src, "O0").code_size_bytes
    o2 = compile_to_program(src, "O2").code_size_bytes
    assert o0 > o2


def test_constant_folding_at_o1():
    asm = compile_to_assembly("int main(void){ return 6 * 7; }", "O1")
    assert "li t0, 42" in asm or "li a0, 42" in asm
    assert "__mulsi3" not in asm


def test_strength_reduction_at_o2():
    asm = compile_to_assembly(
        "int main(int) { return 0; } int f(int a){ return a * 8; }", "O2") \
        if False else compile_to_assembly(
        "int f(int a){ return a * 8; } int main(void){ return f(3); }",
        "O2")
    assert "slli" in asm and "__mulsi3" not in asm


def test_builtins_emitted_only_when_used():
    asm = compile_to_assembly("int main(void){ return 1 + 2; }", "O2")
    assert "__mulsi3" not in asm
    asm2 = compile_to_assembly(
        "int g = 3; int main(void){ return g * g; }", "O2")
    assert "__mulsi3" in asm2


def test_inlining_at_o3():
    src = """
    int tiny(int x) { return x + 1; }
    int main(void) { return tiny(tiny(tiny(0))); }
    """
    o3 = compile_to_assembly(src, "O3")
    # all calls inlined away in main
    main_part = o3.split("main:")[1].split("tiny:")[0] \
        if "tiny:" in o3.split("main:")[1] else o3.split("main:")[1]
    assert "call tiny" not in main_part


def test_errors():
    with pytest.raises((ParseError, LexError)):
        compile_to_program("int main(void) { return ; ")
    with pytest.raises(SemaError):
        compile_to_program("int main(void) { return missing; }")
    with pytest.raises(ValueError):
        normalize_level("O9")
    with pytest.raises(ValueError):
        normalize_level("")


# ------------------------------- system intrinsics + __interrupt (PR 5)


def test_csr_intrinsics_round_trip_all_levels():
    # csrw/csrr through mscratch (0x340), csrs sets bits, csrc clears.
    src = """
    int main(void) {
        __csrw(0x340, 0x5A00);
        __csrs(0x340, 0x00A5);
        __csrc(0x340, 0x0800);
        return (int)__csrr(0x340);
    }
    """
    for level in LEVELS:
        assert run(src, level) == 0x52A5, level


def test_csr_id_folds_constant_expressions():
    # The CSR id operand is a parse-time constant expression.
    src = "int main(void){ __csrw(0x300 + 0x40, 7);" \
          " return (int)__csrr(0x340); }"
    assert run(src) == 7
    asm = compile_to_assembly(src, "O2")
    assert "0x340" in asm


def test_csr_id_must_be_constant():
    with pytest.raises(SemaError):
        compile_to_program("int main(void){ int a = 5;"
                           " return (int)__csrr(a); }")
    with pytest.raises(SemaError):
        compile_to_program("int main(void){ return (int)__csrr(0x1000); }")


def test_wfi_emits_the_instruction():
    asm = compile_to_assembly(
        "int main(void){ __wfi(); return 0; }", "O2")
    assert "\n    wfi" in asm


def test_interrupt_qualifier_emits_isr_frame():
    # A handler that calls out can clobber the whole caller-saved set
    # through its callee: the prologue must preserve all of it.
    src = """
    int hits;
    int bump(int x) { return x + 1; }
    __interrupt void isr(void) { hits = bump(hits); }
    int main(void) { __csrw(0x305, isr); return 0; }
    """
    asm = compile_to_assembly(src, "O0")   # O0: no inlining, call survives
    isr_body = asm.split("isr:")[1]
    for reg in ("ra", "gp", "tp", "t0", "t1", "t2",
                "a0", "a1", "a2", "a3", "a4", "a5"):
        assert f"sw {reg}," in isr_body and f"lw {reg}," in isr_body
    assert "mret" in isr_body and "\n    ret" not in isr_body
    # main installs the handler address into mtvec.
    main_body = asm.split("main:")[1].split("isr:")[0]
    assert "la" in main_body and "csrw 0x305" in main_body


def test_leaf_isr_saves_only_clobbered_registers():
    src = """
    int hits;
    __interrupt void isr(void) { hits = hits + 1; }
    int main(void) { __csrw(0x305, isr); return 0; }
    """
    asm = compile_to_assembly(src, "O2")
    isr_body = asm.split("isr:")[1]
    assert "mret" in isr_body
    saved = {line.split()[1].rstrip(",") for line in isr_body.splitlines()
             if line.strip().startswith("sw ") and "(sp)" in line}
    # Leaf handler: no call, nothing spills — ra and the spill scratch
    # registers stay untouched and unsaved; what it does touch is saved.
    assert "ra" not in saved and "gp" not in saved and "tp" not in saved
    assert saved, "clobbered temporaries must still be preserved"
    used = {line.split()[1].rstrip(",") for line in isr_body.splitlines()
            if line.strip().startswith(("lw ", "li ", "la ", "addi "))
            and "(sp)" not in line}
    assert used & {"t0", "t1", "t2", "a0", "a1", "a2", "a3", "a4", "a5"} \
        <= saved


def test_interrupt_function_constraints():
    with pytest.raises(SemaError):
        compile_to_program("__interrupt int isr(void){ return 1; }"
                           "int main(void){ return 0; }")
    with pytest.raises(SemaError):
        compile_to_program("__interrupt void isr(int x){ }"
                           "int main(void){ return 0; }")
    with pytest.raises(SemaError):
        compile_to_program("__interrupt void isr(void){ }"
                           "int main(void){ isr(); return 0; }")
    with pytest.raises(ParseError):
        compile_to_program("__interrupt int bad;")


def test_wfi_is_a_load_barrier_for_local_cse():
    # Two loads of one global in a single block: CSE may fold them —
    # unless a wfi sits between, modelling an ISR write during sleep.
    fused = compile_to_assembly(
        "int g; int main(void){ int a = g; int b = g; return a + b; }",
        "O2")
    split = compile_to_assembly(
        "int g; int main(void){ int a = g; __wfi();"
        " int b = g; return a + b; }", "O2")
    assert fused.count("lw") < split.count("lw")


def test_all_c_interrupt_firmware_runs_on_golden():
    """End-to-end: intrinsics-only firmware (no asm) takes five timer
    interrupts and powers off — the PR 5 acceptance shape in miniature."""
    from repro.soc import SocSpec
    from repro.sim import GoldenSim

    src = """
    int ticks;
    __interrupt void isr(void) {
        ticks = ticks + 1;
        unsigned due = *(unsigned *)0x40108;
        *(unsigned *)0x40108 = due + 100;
    }
    int main(void) {
        ticks = 0;
        __csrw(0x305, isr);
        *(unsigned *)0x40108 = 100;
        *(unsigned *)0x4010C = 0;
        __csrw(0x304, 128);
        __csrs(0x300, 8);
        while (ticks < 5) __wfi();
        __csrc(0x300, 8);
        *(unsigned *)0x40000 = ticks;
        while (1) {}
        return 0;
    }
    """
    for level in ("O0", "O2"):
        program = compile_to_program(src, level).program
        sim = GoldenSim(program, soc=SocSpec())
        result = sim.run(200_000)
        assert result.halted_by == "poweroff" and result.exit_code == 5
        # Real duty-cycling: the clock outran the retirement count.
        assert sim.soc.timer.mtime > result.instructions


def test_csr_writes_are_load_barriers_for_local_cse():
    # A csrs of mstatus can enable interrupts: a cached load of an
    # ISR-shared global must not be reused across it.
    fused = compile_to_assembly(
        "int g; int main(void){ int a = g; int b = g; return a + b; }",
        "O2")
    for barrier in ("__csrs(0x300, 8)", "__csrw(0x304, 128)",
                    "__csrc(0x300, 8)"):
        split = compile_to_assembly(
            f"int g; int main(void){{ int a = g; {barrier};"
            f" int b = g; return a + b; }}", "O2")
        assert fused.count("lw") < split.count("lw"), barrier


def test_interrupt_frame_guard_rejects_gp_epilogue_path():
    from repro.compiler import CodegenError

    # A 2048-byte frame would restore gp and then clobber it with the
    # li-gp epilogue — the guard must refuse at exactly that boundary.
    big = 2048 // 4 - 4     # spill slots + saves land the frame at 2048
    src = (f"__interrupt void isr(void){{ int buf[{big}];"
           f" buf[0] = 1; buf[{big - 1}] = 2; }}"
           "int main(void){ __csrw(0x305, isr); return 0; }")
    with pytest.raises(CodegenError, match="__interrupt frame"):
        compile_to_assembly(src, "O2")
