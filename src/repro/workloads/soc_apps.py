"""Event-driven SoC firmware workloads (PR 3, all-C + two-source in PR 5).

The paper's extreme-edge devices are duty-cycled, interrupt-driven
firmware, not run-to-completion kernels.  These workloads exercise the
machine-mode trap/interrupt subsystem and the MMIO peripherals end to end
on every simulator backend:

* ``af_detect_irq`` — the smart-bandage AF detector restructured the way
  the real device works: a timer ISR samples the ECG front-end
  (:class:`~repro.soc.SensorPort` replaying a synthetic trace) into a
  buffer while the main loop sleeps in ``wfi``; an APPT-style analysis
  stage classifies the window.  Since PR 5 the *entire* image — ISR,
  runtime and analysis — is MicroC, using the ``__csrr``/``__csrw``/
  ``__csrs``/``__csrc``/``__wfi`` intrinsics and the ``__interrupt``
  function qualifier; no hand-written assembly remains.
* ``sensor_streaming`` (PR 5) — two-source interrupt fabric exercise,
  also pure MicroC: the SensorPort data-ready line (mip bit 16) streams
  samples through one ISR while the machine timer (MTIP) paces heartbeat
  ticks on a co-prime period, so both levels periodically rise inside
  the same retirement window and the fixed-priority arbiter (timer
  first) decides the entry order.  The ISR dispatches on ``mcause``.
* ``label_refresh`` — the warehouse smart label (RV32E assembly): a
  timer paces display refreshes; each wake samples the temperature
  sensor, folds it into the display checksum and pushes one telemetry
  byte out the UART.
* ``uart_selftest`` — power-on self test (RV32E assembly): Zicsr
  read-back patterns (csrrw/csrrs/csrrc + immediate forms), an ecall
  trap/mret round trip, and a UART-logged verdict.

All four terminate through the power gate (store the exit code to
``PWR``) because ``ecall``/``ebreak`` trap rather than halt once a
handler is installed.

The matching platform description per workload lives in
:data:`SOC_SPECS`; C firmware compiles with the standard ``-O`` sweep,
assembly images bypass it.
"""

from __future__ import annotations

from ..soc import SocSpec

#: Shared MMIO address map header (matches repro.soc's platform map) and
#: sampling parameters.  PERIOD must equal the workload's SocSpec
#: ``sensor_ticks_per_sample`` so ISR sampling and waveform replay agree.
_HEADER = """
.equ PWR,       0x40000
.equ MTIME,     0x40100
.equ MTIMECMP,  0x40108
.equ UART_TX,   0x40200
.equ SENSOR,    0x40300
.equ MTIE,      128
"""


def ecg_waveform(n: int) -> tuple[int, ...]:
    """Synthetic ECG in the style of the batch ``af_detect`` workload:
    baseline noise plus R peaks whose period jumps erratically beat to
    beat — the AF-like RR irregularity the analysis stage detects."""
    out = []
    period = 24
    phase = 0
    for i in range(n):
        value = ((i * 5) % 11) - 5
        if phase == 0:
            value += 90
        if phase == 1:
            value -= 30
        phase += 1
        if phase >= period:
            phase = 0
            period = 18 + ((i * 13) % 17)
        out.append(value & 0xFFFFFFFF)
    return tuple(out)


def temperature_waveform(n: int) -> tuple[int, ...]:
    """Slow cold-chain temperature drift with a mid-shipment excursion."""
    out = []
    for i in range(n):
        value = 40 + ((i * 3) % 7)          # decidegrees about 4 degC
        if 24 <= i < 40:
            value += (i - 24) * 2           # door-open excursion
        out.append(value)
    return tuple(out)


def stream_waveform(n: int) -> tuple[int, ...]:
    """Pseudo-random 8-bit stream for the two-source streaming workload."""
    out = []
    value = 0x5A
    for _ in range(n):
        value = (value * 75 + 74) % 257     # BBS-style mixing, 8-bit-ish
        out.append(value & 0xFF)
    return tuple(out)


#: Samples per capture window (one lw each ISR entry).
AF_NSAMP = 256
#: Timer ticks between ECG samples — much longer than the ISR+wakeup
#: path, so the core genuinely duty-cycles in ``wfi`` between samples
#: (the real device samples at a few hundred Hz from a kHz core).
AF_PERIOD = 120

#: The whole smart-bandage image in MicroC (PR 5): trap setup, timer ISR,
#: wfi duty-cycling and the APPT-style analysis stage — one translation
#: unit, zero assembly.  The analysis mirrors stages 2-3 of the batch
#: ``af_detect`` workload over the ISR-captured buffer.
AF_DETECT_IRQ_C = rf"""
/* MMIO map: PWR 0x40000, MTIMECMP 0x40108/0x4010C, UART 0x40200,
   SENSOR 0x40300.  CSRs: mstatus 0x300, mie 0x304, mtvec 0x305. */

int ecg_buf[{AF_NSAMP}];
int nsamp;
int peaks[32];

__interrupt void sample_isr(void) {{
    /* One ECG sample per timer interrupt, re-armed on the exact grid. */
    ecg_buf[nsamp] = (int)*(unsigned *)0x40300;
    nsamp = nsamp + 1;
    unsigned due = *(unsigned *)0x40108;
    *(unsigned *)0x40108 = due + {AF_PERIOD};
}}

int analyze(int *ecg, int n) {{
    int num_peaks = 0;
    int hold = 0;
    int i;
    for (i = 1; i < n - 1; i++) {{
        if (hold > 0) {{
            hold = hold - 1;
        }} else if (ecg[i] > 60 && ecg[i] >= ecg[i - 1]
                   && ecg[i] >= ecg[i + 1]) {{
            if (num_peaks < 32) {{
                peaks[num_peaks] = i;
                num_peaks = num_peaks + 1;
            }}
            hold = 8;
        }}
    }}
    int irregular = 0;
    int prev_rr = 0;
    for (i = 1; i < num_peaks; i++) {{
        int rr = peaks[i] - peaks[i - 1];
        int drr = rr - prev_rr;
        if (drr < 0) drr = 0 - drr;
        if (i > 1 && drr > 2) irregular = irregular + 1;
        prev_rr = rr;
    }}
    int af = (irregular * 2 >= num_peaks) ? 1 : 0;
    return af * 4096 + num_peaks * 64 + irregular;
}}

int main(void) {{
    nsamp = 0;
    __csrw(0x305, sample_isr);          /* mtvec = &sample_isr */
    *(unsigned *)0x40108 = {AF_PERIOD}; /* first sample one period out */
    *(unsigned *)0x4010C = 0;
    __csrw(0x304, 128);                 /* mie.MTIE */
    __csrs(0x300, 8);                   /* global MIE: sampling starts */
    while (nsamp < {AF_NSAMP}) __wfi();
    __csrc(0x300, 8);                   /* window full: mask, analyze */
    int verdict = analyze(ecg_buf, {AF_NSAMP});
    *(unsigned *)0x40200 = (verdict >> 12) ? 'A' : 'N';
    *(unsigned *)0x40000 = verdict;     /* power off with the verdict */
    while (1) {{}}
    return 0;
}}
"""

#: Stream length / pacing of the two-source workload.  The sensor delivers
#: one sample every STREAM_TPS ticks; the timer beats every STREAM_BEAT
#: ticks.  lcm(40, 90) = 360, so every 360 ticks both levels rise in the
#: same retirement window and arbitration priority becomes observable.
STREAM_NSAMP = 96
STREAM_TPS = 40
STREAM_BEAT = 90

#: Two-source interrupt fabric exercise in pure MicroC: one handler
#: dispatching on mcause, sensor data-ready (cause 16) below the machine
#: timer (cause 7) in arbitration priority.
SENSOR_STREAMING_C = rf"""
/* SENSOR regs: DATA 0x40300, INDEX 0x40304, COUNT 0x40308, ACK 0x4030C.
   mie bits: MTIE = 1<<7, SDIE = 1<<16. */

unsigned checksum;
int nticks;
int ndata;

__interrupt void fabric_isr(void) {{
    unsigned cause = __csrr(0x342);
    if (cause == 0x80000007u) {{
        /* Machine timer: heartbeat, re-armed on a co-prime period. */
        nticks = nticks + 1;
        unsigned due = *(unsigned *)0x40108;
        *(unsigned *)0x40108 = due + {STREAM_BEAT};
    }} else {{
        /* Sensor data-ready: drain and acknowledge the stream. */
        unsigned idx = *(unsigned *)0x40304;
        unsigned v = *(unsigned *)0x40300;
        checksum = checksum * 31 + v + idx;
        ndata = ndata + 1;
        *(unsigned *)0x4030C = idx + 1;   /* ACK drops the level */
    }}
}}

int main(void) {{
    checksum = 0;
    nticks = 0;
    ndata = 0;
    __csrw(0x305, fabric_isr);
    *(unsigned *)0x40108 = {STREAM_BEAT};
    *(unsigned *)0x4010C = 0;
    __csrw(0x304, 65664);               /* MTIE | SDIE */
    __csrs(0x300, 8);
    while (*(unsigned *)0x4030C < {STREAM_NSAMP}) __wfi();
    __csrc(0x300, 8);
    *(unsigned *)0x40200 = checksum & 63;     /* one telemetry byte */
    *(unsigned *)0x40000 =
        (nticks << 24) | (ndata << 16) | (checksum & 0xFFFF);
    while (1) {{}}
    return 0;
}}
"""

#: Ticks between smart-label display refreshes.
LABEL_PERIOD = 50
#: Refreshes before the label reports and powers down.
LABEL_REFRESHES = 16

LABEL_REFRESH = _HEADER + f"""
.equ PERIOD,    {LABEL_PERIOD}
.equ NREFRESH,  {LABEL_REFRESHES}

.text
main:
    la t0, isr
    csrw mtvec, t0
    li t0, MTIMECMP
    li t1, PERIOD
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, MTIE
    csrw mie, t0
    csrsi mstatus, 8
    li s0, 0                 # refreshes completed
    li s1, 0                 # display checksum
loop:
    wfi                      # sleep until the refresh timer fires
    li t0, SENSOR
    lw t1, 0(t0)             # temperature at this refresh
    slli t2, s1, 1           # fold into the display checksum
    add t2, t2, t1
    mv s1, t2
    andi a0, t1, 63          # one printable telemetry byte per refresh
    addi a0, a0, 48
    call putc
    addi s0, s0, 1
    li t0, NREFRESH
    beq s0, t0, finish
    j loop
finish:
    csrci mstatus, 8
    slli t1, s0, 16          # exit: refreshes<<16 | checksum&0xFFFF
    li t2, 0xFFFF
    and s1, s1, t2
    or t1, t1, s1
    li t0, PWR
    sw t1, 0(t0)
hang:
    j hang

putc:
    li t0, UART_TX
    sw a0, 0(t0)
    ret

isr:
    li t0, MTIMECMP          # pace the next refresh
    lw t1, 0(t0)
    addi t1, t1, PERIOD
    sw t1, 0(t0)
    mret
"""

UART_SELFTEST = _HEADER + """
.text
main:
    li s0, 0                 # tests passed
    li t0, 0x5A5A            # 1: csrrw round trip through mscratch
    csrw mscratch, t0
    csrr t1, mscratch
    bne t0, t1, t2go
    addi s0, s0, 1
t2go:
    li t0, 0xF0              # 2: csrrs reads old value and ORs bits in
    csrw mscratch, t0
    li t1, 0x0F
    csrrs t2, mscratch, t1
    li t1, 0xF0
    bne t2, t1, t3go
    csrr t1, mscratch
    li t0, 0xFF
    bne t1, t0, t3go
    addi s0, s0, 1
t3go:
    li t1, 0xF0              # 3: csrrc clears bits
    csrrc t2, mscratch, t1
    csrr t1, mscratch
    li t0, 0x0F
    bne t1, t0, t4go
    addi s0, s0, 1
t4go:
    csrwi mscratch, 0        # 4: immediate forms
    csrsi mscratch, 21
    csrr t1, mscratch
    li t0, 21
    bne t1, t0, t5go
    addi s0, s0, 1
t5go:
    la t0, aligned           # 5: mepc is a real read/write CSR
    csrw mepc, t0
    csrr t1, mepc
    bne t1, t0, t6go
    addi s0, s0, 1
t6go:
aligned:
    la t0, handler           # 6: ecall traps to mtvec and mret returns
    csrw mtvec, t0
    li s1, 0
    ecall
    li t0, 1
    beq s1, t0, pass6
    j report
pass6:
    addi s0, s0, 1
report:
    li a0, 'S'               # log "S=<score>"
    call putc
    li a0, '='
    call putc
    addi a0, s0, 48
    call putc
    li t0, PWR
    sw s0, 0(t0)
hang:
    j hang

putc:
    li t0, UART_TX
putc_wait:
    lw t1, 4(t0)             # poll STATUS until TX ready
    beq t1, x0, putc_wait
    sw a0, 0(t0)
    ret

handler:
    addi s1, s1, 1
    csrr t0, mepc
    addi t0, t0, 4           # resume past the trapping ecall
    csrw mepc, t0
    mret
"""


#: name -> (source text, language).
_IMAGES: dict[str, tuple[str, str]] = {
    "af_detect_irq": (AF_DETECT_IRQ_C, "c"),
    "sensor_streaming": (SENSOR_STREAMING_C, "c"),
    "label_refresh": (LABEL_REFRESH, "asm"),
    "uart_selftest": (UART_SELFTEST, "asm"),
}


def source(name: str) -> str:
    try:
        return _IMAGES[name][0]
    except KeyError:
        raise KeyError(f"unknown soc workload {name!r}") from None


def lang(name: str) -> str:
    try:
        return _IMAGES[name][1]
    except KeyError:
        raise KeyError(f"unknown soc workload {name!r}") from None


#: Matching platform description per workload — share one spec between
#: simulators to cosimulate them in lock-step.
SOC_SPECS: dict[str, SocSpec] = {
    "af_detect_irq": SocSpec(sensor_samples=ecg_waveform(260),
                             sensor_ticks_per_sample=AF_PERIOD),
    "sensor_streaming": SocSpec(sensor_samples=stream_waveform(STREAM_NSAMP),
                                sensor_ticks_per_sample=STREAM_TPS),
    "label_refresh": SocSpec(sensor_samples=temperature_waveform(64),
                             sensor_ticks_per_sample=LABEL_PERIOD),
    "uart_selftest": SocSpec(),
}
