"""MMIO bus: routes the simulators' load/store traffic to devices.

:class:`SocBus` is a drop-in replacement for :class:`repro.sim.memory.Memory`
(same ``load``/``store``/``fetch``/``write_blob``/``read_blob``/``size``
surface): addresses below the RAM size hit RAM with unchanged semantics and
cost, addresses inside an attached device window hit the device.  Every
simulator in the stack — golden ISS, Serv model, RTL harness — talks to
the same bus class, so device behaviour is identical across backends and
lock-step cosimulation just works.

Two deliberate hard edges:

* **No execution from MMIO**: :meth:`SocBus.fetch` refuses device
  addresses, so the decoded-op cache can never capture (and stale-cache) a
  volatile device read as an instruction — it raises instead.
* **Deferred mode** (:attr:`SocBus.deferred`): the ISS run loops hand
  their compiled closures a copy of the bus with this on.  Any MMIO access
  there raises :class:`MmioDeferred` *before* performing side effects; the
  loop catches it and retires that one instruction through the reflective
  slow path, on the bus itself, with the SoC clock synced.  Device reads
  therefore always observe exact time and device writes (e.g. re-arming
  ``mtimecmp``) take effect before the next retirement, while the hot loop
  itself stays free of device bookkeeping.
"""

from __future__ import annotations

from ..sim.memory import Memory, MemoryError_


class MmioDeferred(Exception):
    """Fast-path signal: retire this instruction via the slow path."""


class PowerOffSignal(Exception):
    """Raised by the power gate: simulation ends with ``exit_code``."""

    def __init__(self, exit_code: int):
        super().__init__(f"poweroff({exit_code})")
        self.exit_code = exit_code


class Device:
    """Base MMIO device: word-register load/store at window offsets.

    A device that can interrupt sets :attr:`irq_bit` to its ``mip``
    position and exposes a level-sensitive ``irq_pending`` property; the
    bus packs every attached device's level into the pending word
    :meth:`SocBus.irq_lines` returns.
    """

    #: ``mip`` bit this device drives (0 = the device never interrupts).
    irq_bit = 0

    @property
    def irq_pending(self) -> bool:  # pragma: no cover - irq devices override
        return False

    def load(self, offset: int, width: int) -> int:  # pragma: no cover
        raise MemoryError_(f"{type(self).__name__}: read at +{offset:#x} "
                           f"unsupported")

    def store(self, offset: int, value: int, width: int) -> None:  # pragma: no cover
        raise MemoryError_(f"{type(self).__name__}: write at +{offset:#x} "
                           f"unsupported")


class SocBus:
    """RAM plus attached MMIO device windows behind one memory interface."""

    def __init__(self, ram: Memory):
        self.ram = ram
        self.size = ram.size
        self._windows: list[tuple[int, int, Device]] = []
        self._irq_devices: list[Device] = []
        #: When True, MMIO accesses raise :class:`MmioDeferred` with no
        #: side effects (set on the ISS run loops' copy, see module
        #: docstring).
        self.deferred = False

    def attach(self, base: int, size: int, device: Device) -> None:
        """Map ``device`` at ``[base, base + size)``; windows must sit
        above RAM and must not overlap."""
        if base % 4 or size % 4 or size <= 0:
            raise ValueError("device window must be word-aligned")
        if base < self.ram.size:
            raise ValueError(f"device window {base:#x} overlaps RAM")
        end = base + size
        for other_base, other_end, _ in self._windows:
            if base < other_end and other_base < end:
                raise ValueError(f"device window {base:#x} overlaps another")
        self._windows.append((base, end, device))
        if device.irq_bit:
            self._irq_devices.append(device)

    def irq_lines(self) -> int:
        """The unified packed pending word: every attached device's
        level-sensitive interrupt line OR-ed into its ``mip`` position.

        Callers must sync the SoC clock first (``Soc.sync``) — the levels
        are pure functions of device state and ``mtime``.
        """
        word = 0
        for device in self._irq_devices:
            if device.irq_pending:
                word |= device.irq_bit
        return word

    @property
    def raw(self) -> bytearray:
        """RAM byte store for pre-checked direct access (below
        :attr:`direct_size` only — device windows must go through
        :meth:`load`/:meth:`store`)."""
        return self.ram.raw

    @property
    def direct_size(self) -> int:
        """Bytes addressable through :attr:`raw`: exactly the RAM window,
        so every device access routes through the bus."""
        return self.ram.size

    def _route(self, addr: int, width: int) -> tuple[Device, int]:
        for base, end, device in self._windows:
            if base <= addr < end:
                if width != 4 or addr % 4:
                    raise MemoryError_(
                        f"device registers are word-only: {width}-byte "
                        f"access at {addr:#x}")
                return device, addr - base
        raise MemoryError_(f"access {addr:#x}+{width} beyond {self.size:#x}")

    # ------------------------------------------------- Memory-compatible API

    def load(self, addr: int, width: int, signed: bool) -> int:
        addr &= 0xFFFFFFFF
        if addr + width <= self.ram.size:
            return self.ram.load(addr, width, signed)
        if self.deferred:
            raise MmioDeferred
        device, offset = self._route(addr, width)
        return device.load(offset, width) & 0xFFFFFFFF

    def store(self, addr: int, value: int, width: int) -> None:
        addr &= 0xFFFFFFFF
        if addr + width <= self.ram.size:
            self.ram.store(addr, value, width)
            return
        if self.deferred:
            raise MmioDeferred
        device, offset = self._route(addr, width)
        device.store(offset, value, width)

    def fetch(self, addr: int) -> int:
        if addr + 4 <= self.ram.size:
            return self.ram.fetch(addr)
        raise MemoryError_(
            f"instruction fetch from MMIO/unmapped address {addr:#x}")

    def write_blob(self, addr: int, blob: bytes) -> None:
        self.ram.write_blob(addr, blob)

    def read_blob(self, addr: int, length: int) -> bytes:
        return self.ram.read_blob(addr, length)
