"""Compare trees: a forward tree of branches as one op of a loop plan.

Without ``pv.qnt`` a sub-byte kernel quantizes each accumulator by
walking a balanced threshold tree with explicit loads and branches, the
software staircase of :mod:`repro.kernels.quant_sw`.  Inside a software
counted loop (:func:`repro.engine.nest.walk_counted`) each such walk is
one *compare tree* piece, recognised by its structure alone:

* a **node** is a load ``l{b,h,w}[u] s, off(base)`` followed by a
  conditional branch comparing ``s`` with a register ``act``, taken to
  a later address;
* a **leaf** is an immediate write ``addi out, zero, imm`` followed by
  a ``jal zero, merge`` (or ``c.j``), or falling through to ``merge``.

Every node loads the same register at one width from one base register
and compares it with one register under one condition; every leaf
writes one register and reaches one merge address; each node and leaf
is reached on one path only, and neither ``base`` nor ``act`` is the
loaded or the written register.  Anything else declines as
``tree-shape``.

As an op of the loop body the tree reads ``act`` and ``base`` and
writes ``s`` (the threshold its path loaded last) and ``out`` (its
leaf's immediate).  :meth:`Tree.handler` walks every iteration's path
level by level, one gather per level, as the batch ``pv.qnt`` handler
does, and records the leaf each iteration reached.  Each leaf's path is
priced per entering load with :meth:`~repro.engine.blocks.Block.price`
— every ``lh``→``blt`` load-use stall included — plus
:data:`~repro.core.timing.BRANCH_TAKEN_PENALTY` per taken branch and
:data:`~repro.core.timing.JUMP_PENALTY` for the leaf's jump, split
where a region map changes region (:meth:`Tree.region_prices`).  The
plan's one pricing walk prices the tree this way for the core's own
counters (every pc in one region) and for a region table, and one
charge gives every iteration its leaf's price (:mod:`repro.engine.nest`);
a node's misaligned threshold reads are counted per node, so each
region is charged its share.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.timing import BRANCH_TAKEN_PENALTY, JUMP_PENALTY
from .blocks import Block, control_kind, region_spans
from .fusion import MASK32, Unfusable, _check_range
from .vector import gather, to_signed32

#: Branch conditions a node may use: (numpy comparison, signed operands).
CONDITIONS = {
    "beq": (np.equal, False), "bne": (np.not_equal, False),
    "blt": (np.less, True), "bge": (np.greater_equal, True),
    "bltu": (np.less, False), "bgeu": (np.greater_equal, False),
}

#: Largest tree recognised (nodes); deeper staircases stay on tier A.
MAX_TREE_NODES = 255


class Tree:
    """One compare tree starting at *addr* in *imem* (see the module
    docstring); raises :class:`Unfusable` ``("tree-shape")``."""

    __slots__ = ("addr", "merge", "scratch", "out", "base", "act", "size",
                 "signed", "compare", "signed_compare", "scratch_first",
                 "offsets", "taken", "fall", "imms", "paths", "depth",
                 "full_depth", "max_len", "lo", "hi", "node_addrs", "_key")

    def __init__(self, imem: dict, addr: int) -> None:
        self.addr = addr
        self.merge: Optional[int] = None
        #: node k: (load, branch); children as node index, leaf as ~index
        nodes: List[Tuple] = []
        self.taken: List[int] = []
        self.fall: List[int] = []
        self.imms: List[int] = []
        #: per leaf: (instructions on its path, taken branches)
        self.paths: List[Tuple[list, int]] = []
        first = imem.get(addr)
        if first is None or not first.spec.fusion \
                or first.spec.fusion[0] != "load_imm":
            raise Unfusable("tree-shape")
        self.scratch, self.base = first.rd, first.rs1
        if self.scratch in (0, self.base):
            raise Unfusable("tree-shape")
        self.size, self.signed = first.spec.fusion[1:3]
        self.out = self.act = self.compare = None
        self._key: Tuple = ()
        seen: set = set()

        def visit(a: int, path: list, taken: int) -> int:
            if a in seen or len(nodes) >= MAX_TREE_NODES:
                raise Unfusable("tree-shape")
            seen.add(a)
            ins = imem.get(a)
            if ins is not None and ins.spec.fusion == first.spec.fusion:
                branch = imem.get(a + ins.spec.size)
                index = len(nodes)
                nodes.append(self._node(ins, branch))
                self.taken.append(0)
                self.fall.append(0)
                target = (branch.addr + branch.imm) & MASK32
                path = path + [ins, branch]
                self.fall[index] = visit(branch.addr + branch.spec.size,
                                         path, taken)
                self.taken[index] = visit(target, path, taken + 1)
                return index
            return ~self._leaf(ins, imem, path, taken)

        visit(addr, [], 0)
        last = max(ins.addr for instrs, _ in self.paths for ins in instrs)
        if self.merge <= last:
            # The paths must reconverge after the whole tree.
            raise Unfusable("tree-shape")
        self.offsets = np.array([load.imm for load, _ in nodes],
                                dtype=np.int64)
        self.node_addrs = [load.addr for load, _ in nodes]
        self.lo, self.hi = int(self.offsets.min()), int(self.offsets.max())
        self.taken = np.array(self.taken, dtype=np.int64)
        self.fall = np.array(self.fall, dtype=np.int64)
        self.imms = np.array(self.imms, dtype=np.int64) & MASK32
        depths = [sum(ins.spec.timing == "branch" for ins in instrs)
                  for instrs, _ in self.paths]
        #: levels every path walks, and the deepest path's
        self.depth, self.full_depth = min(depths), max(depths)
        self.max_len = max(len(instrs) for instrs, _ in self.paths)

    def _node(self, load, branch) -> Tuple:
        """Check one node's load and branch against the tree's."""
        if (load.rd != self.scratch or load.rs1 != self.base
                or branch is None or control_kind(branch) != "branch"
                or branch.spec.mnemonic not in CONDITIONS
                or (branch.addr + branch.imm) & MASK32 <= branch.addr):
            raise Unfusable("tree-shape")
        if branch.rs1 == self.scratch:
            scratch_first, act = True, branch.rs2
        elif branch.rs2 == self.scratch:
            scratch_first, act = False, branch.rs1
        else:
            raise Unfusable("tree-shape")
        key = (branch.spec.mnemonic, scratch_first, act)
        if self.compare is None:
            if act in (self.scratch, self.base):
                raise Unfusable("tree-shape")
            self.compare, self.signed_compare = CONDITIONS[key[0]]
            self.scratch_first, self.act = scratch_first, act
            self._key = key
        elif key != self._key:
            raise Unfusable("tree-shape")
        return load, branch

    def _leaf(self, ins, imem: dict, path: list, taken: int) -> int:
        """Check one leaf and note its path; returns its index."""
        if (ins is None or ins.spec.mnemonic != "addi" or ins.rs1 != 0
                or ins.rd == 0 or (self.out is not None
                                   and ins.rd != self.out)
                or ins.rd in (self.base, self.act)):
            raise Unfusable("tree-shape")
        self.out = ins.rd
        path = path + [ins]
        merge = ins.addr + ins.spec.size
        jump = imem.get(merge)
        if jump is not None and control_kind(jump) == "jump":
            if jump.spec.mnemonic not in ("jal", "c.j") or jump.rd != 0:
                raise Unfusable("tree-shape")
            path.append(jump)
            merge = (jump.addr + jump.imm) & MASK32
        if self.merge is None:
            self.merge = merge
        elif merge != self.merge:
            raise Unfusable("tree-shape")
        self.imms.append(ins.imm)
        self.paths.append((path, taken))
        return len(self.paths) - 1

    def accesses(self) -> List[Tuple]:
        """The tree as one op of a loop body (see
        :func:`~repro.engine.fusion.classify_ops`)."""
        return [("r", self.act), ("r", self.base),
                ("w", self.scratch, "plain"), ("w", self.out, "plain")]

    def region_prices(self, pending: Optional[int], region_of) -> Tuple:
        """Each leaf's path entered after an instruction that loaded
        *pending*, split by the regions *region_of* maps its pcs to:
        ``(classes, {region: table}, parts)``, where row ``leaf`` of a
        region's table holds what that leaf's path retires in the region
        — cycles, load-use stalls, taken-branch stalls, jump stalls,
        instructions, then its count of each timing class in *classes* —
        and ``parts[leaf]`` lists the path's ``(region, classes)`` runs
        in path order."""
        classes: List[str] = []
        for instrs, _ in self.paths:
            for ins in instrs:
                if ins.spec.timing not in classes:
                    classes.append(ins.spec.timing)
        tables: Dict[object, np.ndarray] = {}
        parts: List[List[Tuple]] = []
        for leaf, (instrs, _) in enumerate(self.paths):
            block = Block(instrs)
            parts.append([])
            for name, a, b in region_spans(instrs, 0, block.n, region_of):
                parts[leaf].append((name, block.classes[a:b]))
                cycles, load_use = block.price(
                    a, b, pending if a == 0 else block.pending[a - 1])
                branch = BRANCH_TAKEN_PENALTY * sum(
                    1 for i in range(a, b)
                    if block.classes[i] == "branch" and instrs[i + 1].addr
                    != instrs[i].addr + instrs[i].spec.size)
                jump = JUMP_PENALTY if (
                    b == block.n and block.classes[-1] == "jump") else 0
                table = tables.get(name)
                if table is None:
                    table = tables[name] = np.zeros(
                        (len(self.paths), 5 + len(classes)), dtype=np.int64)
                table[leaf, :5] += (cycles + branch + jump, load_use, branch,
                                    jump, b - a)
                for cls, pref in block.cls_prefix.items():
                    table[leaf, 5 + classes.index(cls)] += pref[b] - pref[a]
        return classes, tables, parts

    def handler(self, index: int):
        """The batch handler of the tree at body index *index*: it sets
        ``s`` and ``out`` for every iteration and appends the leaf each
        reached to ``ctx.leaves``."""
        size, signed = self.size, self.signed
        compare, signed_compare = self.compare, self.signed_compare
        offsets, taken, fall, imms = (self.offsets, self.taken, self.fall,
                                      self.imms)
        scratch_first = self.scratch_first

        def step(ctx) -> None:
            n = ctx.n
            base = ctx.get(self.base)
            act = ctx.get(self.act)
            if signed_compare:
                act = to_signed32(act)
            if isinstance(base, np.ndarray):
                lo, hi = int(base.min()), int(base.max())
            else:
                lo = hi = base
            # Every threshold any path could read, bounds- and
            # alias-checked at once.
            _check_range(ctx, lo + self.lo, hi + self.hi, size,
                         ctx.store_ranges)
            ctx.load_ranges.append((lo + self.lo, hi + self.hi + size))
            offset = base - ctx.mem.base
            node = np.zeros(n, dtype=np.int64)
            value = node
            misaligned = 0
            node_mis = None
            for level in range(self.full_depth):
                live = None if level < self.depth else node >= 0
                where = node if live is None else np.where(live, node, 0)
                at = offset + offsets[where]
                loaded = gather(ctx.data, at, size, signed)
                if size > 1:
                    odd = at % size != 0
                    if live is not None:
                        odd &= live
                    count = int(np.count_nonzero(odd))
                    if count:
                        misaligned += count
                        reads = np.bincount(where[odd],
                                            minlength=len(offsets))
                        node_mis = reads if node_mis is None \
                            else node_mis + reads
                x = to_signed32(loaded) if signed_compare else loaded
                cond = compare(x, act) if scratch_first \
                    else compare(act, x)
                step_to = np.where(cond, taken[where], fall[where])
                if live is None:
                    node, value = step_to, loaded
                else:
                    node = np.where(live, step_to, node)
                    value = np.where(live, loaded, value)
            leaf = ~node
            ctx.mis[index] += misaligned
            if node_mis is not None:
                ctx.node_mis[index] = node_mis
            ctx.env[self.scratch] = value
            ctx.env[self.out] = imms[leaf]
            ctx.leaves.append(leaf)

        return step

    def __repr__(self) -> str:
        return (f"Tree({self.addr:#x}, {len(self.paths)} leaves -> "
                f"{self.merge:#x})")
