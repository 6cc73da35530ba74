"""Workload registry: the 22 Embench-analog kernels + 3 extreme-edge apps
+ 4 event-driven SoC firmware images (PR 3, extended in PR 5).

The names match the paper's Figure 5 / Table 3 rows so the benchmark
harness can print the same tables.  SoC workloads target the
trap/interrupt subsystem and the MMIO platform and each carries the
:class:`~repro.soc.SocSpec` it runs against; since PR 5 gave MicroC CSR/
wfi intrinsics and the ``__interrupt`` qualifier, the interrupt-driven
images are pure C (``lang="c"``) while two legacy images stay assembly.
Use :func:`build_program` to turn any workload into a linked binary
without caring which toolflow it needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import embench_a, embench_b, extreme_edge, soc_apps


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    category: str            # "embench" | "extreme-edge" | "soc"
    description: str
    lang: str = "c"          # "c" (MicroC) | "asm" (RV32E assembly)
    soc_spec: object | None = None   # SocSpec for soc workloads


_EMBENCH = (
    ("aha-mont64", embench_a.AHA_MONT64, "Montgomery modular multiply"),
    ("crc32", embench_a.CRC32, "bitwise CRC-32 checksum"),
    ("cubic", embench_a.CUBIC, "fixed-point cubic root solving"),
    ("edn", embench_a.EDN, "FIR filter / vector MAC on int16"),
    ("huffbench", embench_a.HUFFBENCH, "frequency coding + bit packing"),
    ("matmult-int", embench_a.MATMULT_INT, "16x16 integer matrix multiply"),
    ("md5sum", embench_a.MD5SUM, "MD5-style mixing rounds"),
    ("minver", embench_a.MINVER, "fixed-point 3x3 matrix inversion"),
    ("nbody", embench_a.NBODY, "fixed-point gravitational n-body"),
    ("nettle-aes", embench_a.NETTLE_AES, "AES round functions"),
    ("nettle-sha256", embench_a.NETTLE_SHA256, "SHA-256 compression"),
    ("nsichneu", embench_a.NSICHNEU, "Petri-net transition chain"),
    ("picojpeg", embench_b.PICOJPEG, "JPEG dequant + butterfly IDCT"),
    ("primecount", embench_b.PRIMECOUNT, "trial-division prime counting"),
    ("qrduino", embench_b.QRDUINO, "QR code bit-stream framing"),
    ("sglib-combined", embench_b.SGLIB_COMBINED,
     "sorting + lists + binary search"),
    ("slre", embench_b.SLRE, "tiny regular-expression matcher"),
    ("st", embench_b.ST, "integer statistics (mean/var/corr)"),
    ("statemate", embench_b.STATEMATE, "generated state machine"),
    ("tarfind", embench_b.TARFIND, "tar archive header scan"),
    ("ud", embench_b.UD, "integer LU decomposition"),
    ("wikisort", embench_b.WIKISORT, "bottom-up merge sort"),
)

_EXTREME_EDGE = (
    ("armpit", extreme_edge.ARMPIT,
     "malodour classification decision trees (FlexIC app)"),
    ("xgboost", extreme_edge.XGBOOST,
     "boosted decision-tree ensemble (pima-style tabular data)"),
    ("af_detect", extreme_edge.AF_DETECT,
     "APPT atrial-fibrillation detection (FlexIC app)"),
)

_SOC = (
    ("af_detect_irq",
     "interrupt-driven AF detect, pure MicroC: timer-ISR ECG sampling + "
     "wfi sleep + APPT analysis (smart bandage, event-driven)"),
    ("sensor_streaming",
     "two-source interrupt fabric, pure MicroC: sensor data-ready stream "
     "racing a co-prime timer heartbeat through one mcause-dispatching "
     "ISR (fixed-priority arbitration)"),
    ("label_refresh",
     "timer-paced e-label refresh with sensor fold-in and UART telemetry "
     "(warehouse smart label)"),
    ("uart_selftest",
     "Zicsr read-back patterns + ecall/mret round trip, UART-logged"),
)

WORKLOADS: dict[str, Workload] = {}
for _name, _src, _desc in _EMBENCH:
    WORKLOADS[_name] = Workload(_name, _src, "embench", _desc)
for _name, _src, _desc in _EXTREME_EDGE:
    WORKLOADS[_name] = Workload(_name, _src, "extreme-edge", _desc)
for _name, _desc in _SOC:
    WORKLOADS[_name] = Workload(_name, soc_apps.source(_name), "soc",
                                _desc, lang=soc_apps.lang(_name),
                                soc_spec=soc_apps.SOC_SPECS[_name])

EMBENCH_NAMES = tuple(name for name, _, _ in _EMBENCH)
EXTREME_EDGE_NAMES = tuple(name for name, _, _ in _EXTREME_EDGE)
SOC_NAMES = tuple(name for name, _ in _SOC)
#: The 25 compiled (MicroC) workloads of the paper's Figure 5/Table 3;
#: the SoC firmware images are registered separately under SOC_NAMES.
ALL_NAMES = EMBENCH_NAMES + EXTREME_EDGE_NAMES


#: The paper's compile setting: every MicroC application is built at -O2.
OPT_LEVEL = "O2"


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: "
                       f"{', '.join(ALL_NAMES)}") from None


def build_program(workload: "Workload | str"):
    """Linked binary for a workload, whichever toolflow it needs —
    MicroC compilation at :data:`OPT_LEVEL` for ``lang="c"``, direct
    assembly otherwise."""
    if isinstance(workload, str):
        workload = WORKLOADS[workload]
    if workload.lang == "asm":
        from ..isa.assembler import assemble
        return assemble(workload.source)
    from ..compiler import compile_to_program
    return compile_to_program(workload.source, OPT_LEVEL).program
