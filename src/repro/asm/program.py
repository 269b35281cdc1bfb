"""Program container and linker.

A :class:`Program` is an ordered list of instructions with resolved
addresses plus the label map.  :func:`link` lays instructions out from a
base address, resolves symbolic targets (branches, jumps, hardware-loop
setup) into PC-relative immediates, and validates encodability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import LinkError
from ..isa.encoding import encode
from ..isa.instruction import Instruction
from ..isa import rv32c

#: Syntax tokens whose label immediates are PC-relative.
_PC_RELATIVE_TOKENS = ("label",)


@dataclass
class Program:
    """A linked program: instructions with addresses, labels, entry point."""

    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)
    base: int = 0
    entry: int = 0
    #: Named region markers: region name -> list of half-open address
    #: spans ``(lo, hi)``.  Set by the builder's :meth:`region` context
    #: manager / the assembler's ``.region`` directive and consumed by the
    #: tracing layer for per-phase cycle attribution.
    regions: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    #: The encoded instruction stream, as :func:`link` validated it
    #: (None for a program linked without validation).
    image: Optional[bytes] = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        """Total code size in bytes."""
        return sum(ins.size for ins in self.instructions)

    @property
    def end(self) -> int:
        return self.base + self.size

    def encode(self) -> bytes:
        """The whole program's binary image."""
        if self.image is None:
            self.image = _encode_all(self.instructions)
        return self.image

    def digest(self) -> str:
        """Stable content hash of the linked program (hex SHA-256).

        Covers the encoded instruction stream plus the layout facts that
        change execution (base, entry) and the region markers.  Two
        programs with the same digest simulate identically on the same
        machine, which makes the digest the program component of the
        result-cache key (:mod:`repro.serve`).
        """
        import hashlib
        import json

        h = hashlib.sha256()
        h.update(self.encode())
        meta = {
            "base": self.base,
            "entry": self.entry,
            "regions": {
                name: sorted(spans)
                for name, spans in self.regions.items()
            },
        }
        h.update(json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        return h.hexdigest()

    def region_map(self) -> Dict[int, str]:
        """Instruction address -> region name for every marked address.

        Wider spans are applied first so that a nested (inner) region
        overrides the enclosing one — the attribution a profiler wants.
        Unmarked addresses are simply absent.
        """
        spans = [
            (hi - lo, lo, hi, name)
            for name, span_list in self.regions.items()
            for lo, hi in span_list
        ]
        mapping: Dict[int, str] = {}
        for _, lo, hi, name in sorted(spans, key=lambda s: -s[0]):
            for ins in self.instructions:
                if lo <= ins.addr < hi:
                    mapping[ins.addr] = name
        return mapping

    def at(self, addr: int) -> Instruction:
        for ins in self.instructions:
            if ins.addr == addr:
                return ins
        raise LinkError(f"no instruction at address {addr:#010x}")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)


def link(
    instructions: List[Instruction],
    labels: Dict[str, int],
    base: int = 0,
    entry_label: str | None = None,
    validate: bool = True,
) -> Program:
    """Assign addresses and resolve symbolic targets.

    *labels* maps label name -> instruction index (position in the list);
    a label indexing one past the end refers to the address after the last
    instruction (used for hardware-loop end labels).
    """
    addresses: List[int] = []
    addr = base
    for ins in instructions:
        addresses.append(addr)
        ins.addr = addr
        addr += ins.size
    end_addr = addr

    def label_addr(name: str) -> int:
        if name not in labels:
            raise LinkError(f"undefined label {name!r}")
        index = labels[name]
        if index == len(instructions):
            return end_addr
        if not 0 <= index < len(instructions):
            raise LinkError(f"label {name!r} index {index} out of range")
        return addresses[index]

    for ins in instructions:
        if ins.target is not None:
            ins.imm = label_addr(ins.target) - ins.addr

    image = _encode_all(instructions) if validate else None

    entry = base
    if entry_label is not None:
        entry = label_addr(entry_label)
    return Program(instructions=instructions, labels={k: label_addr(k) for k in labels},
                   base=base, entry=entry, image=image)


def _encode_all(instructions: List[Instruction]) -> bytes:
    """The binary image of *instructions*; raises :class:`LinkError` on
    the first one that does not encode."""
    blob = bytearray()
    for ins in instructions:
        try:
            if ins.size == 2:
                blob += rv32c.encode_c(ins).to_bytes(2, "little")
            else:
                blob += encode(ins).to_bytes(4, "little")
        except Exception as exc:
            raise LinkError(
                f"instruction {ins!r} at {ins.addr:#010x} not encodable: {exc}"
            ) from exc
    return bytes(blob)
