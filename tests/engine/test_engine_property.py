"""Property-based dispatch parity: random programs, both engines.

Hypothesis generates small programs over the fusable instruction mix —
straight-line ALU/memory/MAC/dot-product runs (plain, ``.sc``, ``.sci``,
nibble and crumb dot products), hardware loops (zero-trip, single-
instruction bodies, nested lp0/lp1), forward branches, and mid-body
``ebreak`` — and asserts the block engine retires them bit- and
cycle-identically to the interpreter.  The generator deliberately
includes instructions the fuser declines (``mul``, misaligned and
register-offset accesses) so side exits and partial-block flushes get
the same coverage as the happy path.

The RI5CY unpack idioms get their own makers: bit-field extracts, lane
insert chains (complete, incomplete, mixing byte and half-word lanes,
and reading their own target),
two-source shuffles, and lane shifts/logic in every addressing form;
:func:`interleave_body` builds loops that store 2-4 streams through one
pointer at one stride, with disjoint or colliding residues, beside
strided word-load pairs, and :func:`interleaved_nest` stores such
streams from a loop nest's inner loop, as 2-D streams.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.engine.conftest import run_both

#: Data registers the generated ops read/write freely.
DATA_REGS = ("a0", "a1", "a2", "a3", "a4", "a5")
#: Pointer registers: only post-increment ops may move them, by small
#: steps, so every generated access stays inside the 512 KiB memory.
PTR_REGS = ("s0", "s1")
PTR_BASES = {"s0": 0x8000, "s1": 0x9000}

ALU_RR = ("add", "sub", "xor", "or", "and", "sll", "srl", "sra",
          "slt", "sltu", "mul")

data_reg = st.sampled_from(DATA_REGS)
ptr_reg = st.sampled_from(PTR_REGS)


def _fmt_alu(draw):
    mn = draw(st.sampled_from(ALU_RR))
    return f"{mn} {draw(data_reg)}, {draw(data_reg)}, {draw(data_reg)}"


def _fmt_addi(draw):
    return (f"addi {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(st.integers(-16, 16))}")


def _fmt_ptr_bump(draw):
    reg = draw(ptr_reg)
    return f"addi {reg}, {reg}, {draw(st.integers(-8, 8))}"


def _fmt_lui(draw):
    return f"lui {draw(data_reg)}, {draw(st.integers(0, 64))}"


def _fmt_load(draw):
    mn = draw(st.sampled_from(("lw", "lh", "lhu", "lb", "lbu")))
    off = draw(st.integers(0, 16))       # any alignment: misaligned too
    return f"{mn} {draw(data_reg)}, {off}({draw(ptr_reg)})"


def _fmt_load_post(draw):
    mn = draw(st.sampled_from(("p.lw", "p.lh", "p.lb")))
    return (f"{mn} {draw(data_reg)}, "
            f"{draw(st.integers(-8, 8))}({draw(ptr_reg)}!)")


def _fmt_store(draw):
    mn = draw(st.sampled_from(("sw", "sh", "sb")))
    off = draw(st.integers(0, 16))
    return f"{mn} {draw(data_reg)}, {off}({draw(ptr_reg)})"


def _fmt_store_post(draw):
    mn = draw(st.sampled_from(("p.sw", "p.sh", "p.sb")))
    return (f"{mn} {draw(data_reg)}, "
            f"{draw(st.integers(-8, 8))}({draw(ptr_reg)}!)")


def _fmt_dotp(draw):
    mn = draw(st.sampled_from(
        ("pv.dotsp.b", "pv.dotup.b", "pv.sdotsp.b", "pv.sdotup.b",
         "pv.dotsp.h", "pv.sdotsp.h")))
    return f"{mn} {draw(data_reg)}, {draw(data_reg)}, {draw(data_reg)}"


DOTP_KINDS = ("dotsp", "dotup", "dotusp", "sdotsp", "sdotup", "sdotusp")


def _fmt_dotp_sc(draw):
    """Scalar-replicated dot products over 16/8/4/2-bit lanes."""
    kind = draw(st.sampled_from(DOTP_KINDS))
    width = draw(st.sampled_from(("h", "b", "n", "c")))
    return (f"pv.{kind}.sc.{width} {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(data_reg)}")


def _fmt_dotp_sci(draw):
    """Immediate dot products; the immediate is a 5-bit signed value."""
    kind = draw(st.sampled_from(DOTP_KINDS))
    width = draw(st.sampled_from(("h", "b")))
    return (f"pv.{kind}.sci.{width} {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(st.integers(-16, 15))}")


def _fmt_dotp_subbyte(draw):
    """XpulpNN nibble (.n) and crumb (.c) dot products."""
    kind = draw(st.sampled_from(DOTP_KINDS))
    width = draw(st.sampled_from(("n", "c")))
    return (f"pv.{kind}.{width} {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(data_reg)}")


def _fmt_mac(draw):
    mn = draw(st.sampled_from(("p.mac", "p.msu")))
    return f"{mn} {draw(data_reg)}, {draw(data_reg)}, {draw(data_reg)}"


def _fmt_extract(draw, rd=None):
    """Bit-field extracts, including fields that run past bit 31."""
    mn = draw(st.sampled_from(("p.extract", "p.extractu")))
    return (f"{mn} {rd or draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(st.integers(0, 31))}, {draw(st.integers(1, 32))}")


def _fmt_insert(draw):
    """One lane insert; the lane immediate wraps modulo the lane count."""
    width = draw(st.sampled_from(("b", "h")))
    return (f"pv.insert.{width} {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(st.integers(-16, 15))}")


def _fmt_insert_chain(draw, rd=None, sources=data_reg):
    """A register rebuilt lane by lane from extracted fields, as the
    ordered unpack does: byte and half-word inserts in any order, which
    may overlap, stop short of covering the word, or take the register
    being rebuilt as their source."""
    rd = rd or draw(data_reg)
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        width, lanes = draw(st.sampled_from((("b", 4), ("h", 2))))
        src = draw(sources)
        if draw(st.booleans()):
            lines.append(_fmt_extract(draw, rd=src))
        lines.append(f"pv.insert.{width} {rd}, {src}, "
                     f"{draw(st.integers(-2 * lanes, 2 * lanes - 1))}")
    return "\n".join(lines)


def _fmt_shuffle2(draw):
    """Random selector words: most lanes index past ``2*lanes``."""
    width = draw(st.sampled_from(("b", "h")))
    return (f"pv.shuffle2.{width} {draw(data_reg)}, {draw(data_reg)}, "
            f"{draw(data_reg)}")


def _fmt_lane_op(draw):
    """Lane shifts and logic over 16/8-bit lanes in every addressing
    form (negative and >= width immediates), plus the XpulpNN nibble and
    crumb shifts."""
    op = draw(st.sampled_from(("srl", "sll", "sra", "and", "or", "xor")))
    width = draw(st.sampled_from(("h", "b", "n", "c")
                                 if op in ("srl", "sll", "sra")
                                 else ("h", "b")))
    variants = ("", "sc", "sci") if width in ("h", "b") else ("", "sc")
    variant = draw(st.sampled_from(variants))
    head = f"pv.{op}.{variant}.{width}" if variant else f"pv.{op}.{width}"
    last = draw(st.integers(-16, 15)) if variant == "sci" \
        else draw(data_reg)
    return f"{head} {draw(data_reg)}, {draw(data_reg)}, {last}"


_OP_MAKERS = (_fmt_alu, _fmt_addi, _fmt_ptr_bump, _fmt_lui, _fmt_load,
              _fmt_load_post, _fmt_store, _fmt_store_post, _fmt_dotp,
              _fmt_dotp_sc, _fmt_dotp_sci, _fmt_dotp_subbyte, _fmt_mac,
              _fmt_extract, _fmt_insert, _fmt_insert_chain, _fmt_shuffle2,
              _fmt_lane_op)


#: The RI5CY unpack idioms plus the memory and dot-product ops around them.
_UNPACK_MAKERS = (_fmt_extract, _fmt_insert, _fmt_insert_chain,
                  _fmt_shuffle2, _fmt_lane_op, _fmt_load_post,
                  _fmt_store_post, _fmt_dotp)


@st.composite
def body_ops(draw, min_size=1, max_size=6, allow_ebreak=False,
             makers=_OP_MAKERS):
    """A list of assembly lines drawn from the fusable op mix."""
    size = draw(st.integers(min_size, max_size))
    ops = [draw(st.sampled_from(makers))(draw) for _ in range(size)]
    if allow_ebreak and draw(st.booleans()) and size > 1:
        ops[draw(st.integers(0, size - 1))] = "ebreak"
    return ops


def _store_streams(draw, ptr, stride, sources=data_reg):
    """2-4 stores through *ptr* whose post-increments sum to *stride*,
    so each is an affine stream with that delta.  Half the draws place
    each store in its own word slot of the stride, in any order
    (disjoint residues); the rest draw residues freely, so most
    collide."""
    sizes = {"p.sw": 4, "p.sh": 2, "p.sb": 1}
    if draw(st.booleans()):
        slots = draw(st.permutations(range(stride // 4)))
        stores = []
        for slot in slots[:draw(st.integers(2, len(slots)))]:
            mn = draw(st.sampled_from(tuple(sizes)))
            offset = draw(st.integers(0, 4 - sizes[mn]))
            stores.append((mn, 4 * slot + offset))
    else:
        stores = [(draw(st.sampled_from(tuple(sizes))),
                   draw(st.integers(0, stride - 1)))
                  for _ in range(draw(st.integers(2, 4)))]
    lines = []
    for i, (mn, residue) in enumerate(stores):
        after = stores[i + 1][1] if i + 1 < len(stores) \
            else stores[0][1] + stride
        lines.append(f"{mn} {draw(sources)}, {after - residue}({ptr}!)")
    return lines


@st.composite
def interleave_body(draw):
    """Store streams through ``s0`` at one stride (8 or 16, see
    :func:`_store_streams`); an optional strided word-load pair through
    ``s1`` (delta = stride) feeds them."""
    stride = draw(st.sampled_from((8, 16)))
    lines = []
    if draw(st.booleans()):
        lines += [f"p.lw {draw(data_reg)}, 4(s1!)",
                  f"p.lw {draw(data_reg)}, {stride - 4}(s1!)"]
    return lines + _store_streams(draw, "s0", stride)


@st.composite
def initial_regs(draw):
    regs = {r: draw(st.integers(0, 0xFFFFFFFF)) for r in DATA_REGS}
    regs.update(PTR_BASES)
    return regs


@st.composite
def initial_mem(draw):
    data = draw(st.binary(min_size=64, max_size=64))
    return {0x8000: data, 0x9000: data[::-1]}


def _assemble_lines(lines):
    return "\n".join(lines) + "\n"


def single_loop(ops, count, level):
    """One hardware loop over all of *ops* but the last, which the loop
    end label marks; an ``ebreak`` follows."""
    lines = [f"lp.setupi {level}, {count}, end{level}"]
    lines += ops[:-1]
    lines += [f"end{level}:", ops[-1], "ebreak"]
    return lines


def whole_loop(ops, count):
    """One lp0 loop whose body is all of *ops*; an ``ebreak`` follows."""
    return [f"lp.setupi 0, {count}, end0", *ops, "end0:", "ebreak"]


def nested_loop(inner, outer_tail, n_outer, n_inner):
    """lp1 wrapping lp0, laid out like :func:`single_loop`."""
    lines = [f"lp.setupi 1, {n_outer}, end1",
             f"lp.setupi 0, {n_inner}, end0"]
    lines += inner[:-1]
    lines += ["end0:", inner[-1]]
    lines += outer_tail[:-1]
    lines += ["end1:", outer_tail[-1], "ebreak"]
    return lines


def forward_branch(ops, skip):
    """A data-dependent ``bne`` over the first *skip* of *ops*."""
    lines = ["bne a0, a1, skip"] + list(ops)
    lines.insert(min(skip, len(ops)) + 1, "skip:")
    lines.append("ebreak")
    return lines


@settings(max_examples=60, deadline=None)
@given(ops=body_ops(max_size=8), regs=initial_regs(), mem=initial_mem())
def test_straight_line_parity(ops, regs, mem):
    run_both(_assemble_lines(ops + ["ebreak"]), regs=regs, mem=mem)


@settings(max_examples=60, deadline=None)
@given(ops=body_ops(allow_ebreak=True), count=st.integers(0, 7),
       level=st.integers(0, 1), regs=initial_regs(), mem=initial_mem())
def test_single_loop_parity(ops, count, level, regs, mem):
    """One hardware loop: zero-trip, single-op bodies, either level,
    possibly halting mid-body."""
    run_both(_assemble_lines(single_loop(ops, count, level)),
             regs=regs, mem=mem)


# ---------------------------------------------------------------------------
# Loop nests
# ---------------------------------------------------------------------------

#: Threshold trees (``s2``), the spill slot (``s3``), the inner loop
#: count register (``s4``, never written by the generated bodies) and an
#: output pointer (``s5``).
NEST_BASES = {"s2": 0xA000, "s3": 0xB000, "s4": 3, "s5": 0xC000}
#: Registers a filter loop resets per outer iteration and accumulates in
#: its inner loop, the inner loop's loaded operands, the epilogue's own
#: temporaries, and a register only ever read.
NEST_ACCS = ("a0", "a1")
NEST_TEMPS = ("a2", "a3")
NEST_LOCALS = ("a4", "t0", "t1")
NEST_INVARIANT = "a5"


@st.composite
def random_nest(draw):
    """lp1 wrapping lp0 over random op mixes (:func:`nested_loop`)."""
    lines = nested_loop(draw(body_ops(max_size=4)), draw(body_ops(max_size=3)),
                        draw(st.integers(0, 4)), draw(st.integers(0, 5)))
    return _assemble_lines(lines)


def _nest_epilogue_op(draw, readable, written, spills):
    """One epilogue op reading registers in *readable* and writing an
    epilogue temporary (added to *written*): ALU, clip, the conv kernels'
    ``p.insert`` + ``pv.qnt`` pack, a store, a store to the next spill
    slot and its reload (*spills* counts the slots), or a step of the
    threshold pointer."""
    def src():
        return draw(st.sampled_from(sorted(readable | written)))

    dest = draw(st.sampled_from(NEST_LOCALS))
    kind = draw(st.sampled_from(
        ("alu", "clip", "qnt", "qnt", "store", "spill", "spill", "thr")))
    if kind == "thr":
        return [f"addi s2, s2, {draw(st.sampled_from((0, 16, 64)))}"]
    if kind == "store":
        mn, size = draw(st.sampled_from((("p.sw", 4), ("p.sh", 2),
                                         ("p.sb", 1))))
        step = draw(st.sampled_from((size, size, 4, 1)))
        return [f"{mn} {src()}, {step}(s5!)"]
    if kind == "spill":
        spills.append(dest)
        lines = [f"sw {src()}, 0(s3)", "addi s3, s3, 4"]
        if draw(st.booleans()):
            lines.append(f"p.sb {src()}, 1(s5!)")
        written.add(dest)
        return lines + [f"lw {dest}, -4(s3)"]
    if kind == "alu":
        mn = draw(st.sampled_from(("add", "sub", "xor", "sra", "slt")))
        line = f"{mn} {dest}, {src()}, {src()}"
    elif kind == "clip":
        mn = draw(st.sampled_from(("p.clip", "p.clipu")))
        line = f"{mn} {dest}, {src()}, {draw(st.integers(0, 31))}"
    else:
        lo, hi = src(), src()
        written.add(dest)
        width = draw(st.sampled_from(("n", "c")))
        return [f"addi {dest}, {lo}, 0", f"p.insert {dest}, {hi}, 16, 16",
                f"pv.qnt.{width} {dest}, {dest}, s2"]
    written.add(dest)
    return [line]


@st.composite
def nest_program(draw):
    """An lp1 filter loop shaped like the conv kernels': a prefix that
    resets the accumulators (clear or load), an lp0 dot-product loop
    counted by an immediate (0, 1 or more) or ``s4``, and an epilogue of
    quantization (aligned or misaligned trees, see :func:`nest_regs`),
    clipping, spills and stores; sometimes with an op from the random
    mix inside."""
    prefix = [draw(st.sampled_from((f"addi {acc}, zero, 0",
                                    f"p.lw {acc}, 4(s1!)")))
              for acc in NEST_ACCS]
    temps = sorted(draw(st.sets(st.sampled_from(NEST_TEMPS), min_size=1)))
    inner = [f"p.lw {reg}, 4(s0!)" for reg in temps]
    for _ in range(draw(st.integers(1, 3))):
        mn = draw(st.sampled_from(("pv.sdotsp.b", "pv.sdotusp.n",
                                   "pv.sdotup.c", "p.mac")))
        inner.append(f"{mn} {draw(st.sampled_from(NEST_ACCS))}, "
                     f"{draw(st.sampled_from(temps))}, "
                     f"{draw(st.sampled_from(temps + [NEST_INVARIANT]))}")
    if draw(st.booleans()):
        inner.append(f"addi s0, s0, {draw(st.sampled_from((-4, 0, 8)))}")
    readable = set(NEST_ACCS + NEST_TEMPS) | {NEST_INVARIANT}
    written: set = set()
    spills: list = []
    tail = []
    # An empty epilogue makes the inner loop end where the outer one does.
    for _ in range(draw(st.sampled_from((0, 1, 2, 2, 3, 4)))):
        tail += _nest_epilogue_op(draw, readable, written, spills)
    if spills:
        tail.append(f"addi s3, s3, {-4 * len(spills)}")
    if draw(st.integers(0, 5)) == 0:
        # A random op anywhere: a decline, or a recurrence.
        body = draw(st.sampled_from((prefix, inner, tail)))
        body.insert(draw(st.integers(0, len(body))),
                    draw(st.sampled_from(_OP_MAKERS))(draw))
    count = draw(st.sampled_from(("s4", 0, 1, 2, 5)))
    setup = "lp.setup" if count == "s4" else "lp.setupi"
    lines = [f"lp.setupi 1, {draw(st.integers(1, 4))}, end1", *prefix,
             f"{setup} 0, {count}, end0", *inner, "end0:", *tail, "end1:",
             "ebreak"]
    return _assemble_lines(lines)


@st.composite
def nest_regs(draw):
    regs = draw(initial_regs())
    regs.update(NEST_BASES)
    regs["s2"] += draw(st.sampled_from((0, 0, 0, 0, 0, 1)))  # misaligned
    regs["s4"] = draw(st.integers(0, 4))
    return regs


@st.composite
def nest_mem(draw):
    mem = draw(initial_mem())
    mem[0xA000] = draw(st.binary(min_size=256, max_size=256))
    return mem


nest_sources = st.one_of(random_nest(), nest_program())


def test_nested_loop_parity():
    """lp1 wrapping lp0, over random op mixes and over conv-shaped
    filter loops: the whole nest fuses as one dispatch, or side-exits to
    a fused inner loop and the fast-block/interpreter tiers, with
    interpreter parity either way; nests do fuse in a share of the
    examples."""
    nests = []

    @settings(max_examples=40, deadline=None)
    @given(source=nest_sources, regs=nest_regs(), mem=nest_mem())
    def check(source, regs, mem):
        *_, plain = run_both(source, regs=regs, mem=mem)
        nests.append(plain.engine_stats["nest_dispatches"])

    check()
    assert any(nests), "no example ran a fused loop nest"


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(source=nest_sources, regs=nest_regs(), mem=nest_mem())
def test_nested_loop_parity_deep(source, regs, mem):
    run_both(source, regs=regs, mem=mem)


@st.composite
def interleaved_nest(draw):
    """A filter loop whose inner loop stores same-stride streams through
    ``s5`` (:func:`_store_streams`) after a dot product, and whose
    epilogue steps ``s5`` by a multiple of the stride, which keeps each
    stream's residue across outer iterations, or by a step that shifts
    it."""
    stride = draw(st.sampled_from((8, 16)))
    inner = ["p.lw a2, 4(s0!)", "pv.sdotsp.b a0, a2, a5",
             *_store_streams(draw, "s5", stride,
                             sources=st.sampled_from(("a2", "a5")))]
    step = draw(st.sampled_from((0, stride, 2 * stride, -stride, 2, 4)))
    tail = ["p.clipu a4, a0, 9", "p.sb a4, 1(s3!)", f"addi s5, s5, {step}"]
    count = draw(st.sampled_from(("s4", 0, 1, 2, 5)))
    setup = "lp.setup" if count == "s4" else "lp.setupi"
    lines = [f"lp.setupi 1, {draw(st.integers(1, 4))}, end1",
             "addi a0, zero, 0", f"{setup} 0, {count}, end0", *inner,
             "end0:", *tail, "end1:", "ebreak"]
    return _assemble_lines(lines)


def test_nested_interleaved_stores_parity():
    """Same-stride store streams in a nest's inner loop: disjoint
    residues that every outer step keeps fuse as one nest dispatch, the
    rest side-exit, and both match the interpreter."""
    nests = []

    @settings(max_examples=40, deadline=None)
    @given(source=interleaved_nest(), regs=nest_regs(), mem=nest_mem())
    def check(source, regs, mem):
        *_, plain = run_both(source, regs=regs, mem=mem)
        nests.append(plain.engine_stats["nest_dispatches"])

    check()
    assert any(nests), "no example ran a fused loop nest"


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(source=interleaved_nest(), regs=nest_regs(), mem=nest_mem())
def test_nested_interleaved_stores_parity_deep(source, regs, mem):
    run_both(source, regs=regs, mem=mem)


# ---------------------------------------------------------------------------
# Software counted loops with compare trees
# ---------------------------------------------------------------------------

#: The trees' threshold base (``s2``, as in the nests), loaded register,
#: compared register and the registers their leaves write; the loop
#: counter ``t5`` and the word at ``s3`` holding a threshold base.
TREE_BASE, TREE_SCRATCH, TREE_ACT = "s2", "t1", "a0"
TREE_OUTS = ("a4", "t0")
TREE_CONDITIONS = ("blt", "bge", "bltu", "bgeu", "beq", "bne")


def _compare_tree(draw, label, out):
    """A forward compare tree in the kernels' layout (see
    ``repro.kernels.quant_sw``): 1-3 levels, sometimes unbalanced, any
    branch condition with the loaded register on either side; a leaf
    writes *out* and jumps to the merge (the last may fall through).
    One tree in three has a branchy leaf the engine must decline: a
    register write that is not an immediate, or a jump past the merge."""
    mn = draw(st.sampled_from(TREE_CONDITIONS))
    load, scale = draw(st.sampled_from((("lh", 2), ("lh", 2), ("lhu", 2),
                                        ("lb", 1), ("lw", 4))))
    scratch_first = draw(st.booleans())
    depth = draw(st.integers(1, 3))
    branchy = draw(st.sampled_from((None,) * 8 + (
        f"add {out}, a1, a2", f"addi {out}, a1, 1",
        f"lh {out}, 0({TREE_BASE})", f"j {label}_skip")))
    lines: list = []
    count = [0]

    def leaf(code, last):
        nonlocal branchy
        if branchy is not None and not branchy.startswith("j "):
            lines.append(branchy)
            branchy = None
        else:
            lines.append(f"addi {out}, zero, {code}")
        if not last or draw(st.booleans()):
            if branchy is not None:
                lines.append(branchy)
                branchy = None
            else:
                lines.append(f"j {label}_merge")

    def node(index, left, code, last):
        if left == 0 or (left < depth and draw(st.integers(0, 4)) == 0):
            leaf(code, last)
            return
        right = f"{label}_r{count[0]}"
        count[0] += 1
        lines.append(f"{load} {TREE_SCRATCH}, {scale * index}({TREE_BASE})")
        a, b = ((TREE_SCRATCH, TREE_ACT) if scratch_first
                else (TREE_ACT, TREE_SCRATCH))
        lines.append(f"{mn} {a}, {b}, {right}")
        node(2 * index + 1, left - 1, 2 * code, False)
        lines.append(f"{right}:")
        node(2 * index + 2, left - 1, 2 * code + 1, last)

    node(0, depth, 0, True)
    return lines + [f"{label}_merge:", "addi a1, a1, 1", f"{label}_skip:"]


@st.composite
def counted_program(draw):
    """A software counted loop (``t5`` stepped by 1 or 2, 1-5 trips)
    shaped like the staircase kernels' filter loop: random ops, an
    optional lp0 dot-product loop into ``a0``, one or two compare trees
    joined and stored, a threshold-pointer step, then the latch.  Some
    draws enter after a load of the trees' base, read the counter in the
    body (no counted loop: tier A) or store into the thresholds the
    trees read (an alias: the plan declines)."""
    step = draw(st.sampled_from((1, 1, 2)))
    lines = [f"li t5, {draw(st.integers(1, 5)) * step}"]
    if draw(st.integers(0, 3)) == 0:
        lines.append(f"lw {TREE_BASE}, 0(s3)")
    lines.append("head:")
    if draw(st.booleans()):
        lines += draw(body_ops(max_size=3))
    if draw(st.booleans()):
        count = draw(st.integers(0, 4))
        lines += [f"addi {TREE_ACT}, zero, 0", f"lp.setupi 0, {count}, end0",
                  "p.lw a2, 4(s0!)", f"pv.sdotsp.b {TREE_ACT}, a2, a5",
                  "end0:"]
    hazard = draw(st.sampled_from(("none",) * 6 + ("counter", "alias")))
    if hazard == "alias":
        lines.append(f"sh a1, {draw(st.sampled_from((0, 2, 6)))}"
                     f"({TREE_BASE})")
    for t in range(draw(st.integers(1, 2))):
        lines += _compare_tree(draw, f"tree{t}", TREE_OUTS[t])
    if "tree1_merge:" in lines:
        lines += ["slli t0, t0, 4", "or a4, a4, t0"]
    if hazard == "counter":
        lines.insert(draw(st.integers(lines.index("head:") + 1, len(lines))),
                     "add a3, t5, a1")
    if draw(st.integers(0, 3)) == 0:
        lines += draw(body_ops(max_size=2))
    if draw(st.booleans()):
        lines.append("p.sb a4, 1(s5!)")
    lines.append(f"addi {TREE_BASE}, {TREE_BASE}, "
                 f"{draw(st.sampled_from((0, 16, 30)))}")
    lines += [f"addi t5, t5, -{step}", "bne t5, zero, head", "ebreak"]
    return _assemble_lines(lines)


@st.composite
def counted_mem(draw):
    mem = draw(nest_mem())
    base = NEST_BASES["s2"] + draw(st.sampled_from((0, 0, 0, 1)))
    mem[NEST_BASES["s3"]] = base.to_bytes(4, "little")
    return mem


def _fused_counted(source, plain):
    """Whether *plain* ran the counted loop as a plan: a nest dispatch,
    or any fused dispatch where the program has no hardware loop."""
    stats = plain.engine_stats
    return bool(stats["nest_dispatches"]
                or ("lp.setupi" not in source and stats["fused_dispatches"]))


def test_counted_loop_parity():
    """Software counted loops around compare trees and lp0 loops: the
    loop runs as one plan, or declines to tier A, with interpreter parity
    either way; plans do run in a share of the examples."""
    fused = []

    @settings(max_examples=40, deadline=None)
    @given(source=counted_program(), regs=nest_regs(), mem=counted_mem())
    def check(source, regs, mem):
        *_, plain = run_both(source, regs=regs, mem=mem)
        fused.append(_fused_counted(source, plain))

    check()
    assert any(fused), "no example ran a counted loop plan"


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(source=counted_program(), regs=nest_regs(), mem=counted_mem())
def test_counted_loop_parity_deep(source, regs, mem):
    run_both(source, regs=regs, mem=mem)


@settings(max_examples=40, deadline=None)
@given(ops=body_ops(max_size=6), skip=st.integers(1, 3),
       regs=initial_regs(), mem=initial_mem())
def test_branch_parity(ops, skip, regs, mem):
    """A forward branch mid-program: terminators stay interpreter steps
    and block re-entry lands on the branch target."""
    run_both(_assemble_lines(forward_branch(ops, skip)), regs=regs, mem=mem)


@settings(max_examples=25, deadline=None)
@given(ops=body_ops(min_size=2, max_size=5), count=st.integers(2, 6),
       budget=st.integers(3, 40), regs=initial_regs(), mem=initial_mem())
def test_budget_parity(ops, count, budget, regs, mem):
    """A max_instructions ceiling that may land mid-loop: both engines
    raise the identical SimError (or both halt) at the same state."""
    run_both(_assemble_lines(single_loop(ops, count, 0)), regs=regs,
             mem=mem, max_instructions=budget)


def _check_unpack_loop(ops, fresh, count, regs, mem):
    # Loading the *fresh* registers first makes them loop-local, so the
    # ops after read them without forming a cross-iteration recurrence.
    loads = [f"p.lw {reg}, 4(s1!)" for reg in sorted(fresh)]
    run_both(_assemble_lines(whole_loop(loads + ops, count)),
             regs=regs, mem=mem)


@settings(max_examples=40, deadline=None)
@given(ops=body_ops(max_size=8, makers=_UNPACK_MAKERS),
       fresh=st.sets(data_reg), count=st.integers(2, 7),
       regs=initial_regs(), mem=initial_mem())
def test_unpack_loop_parity(ops, fresh, count, regs, mem):
    """Loops over the unpack idioms: extracts, insert chains, shuffles
    and lane shifts fuse (or decline) with interpreter parity."""
    _check_unpack_loop(ops, fresh, count, regs, mem)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(ops=body_ops(max_size=10, makers=_UNPACK_MAKERS),
       fresh=st.sets(data_reg), count=st.integers(2, 7),
       regs=initial_regs(), mem=initial_mem())
def test_unpack_loop_parity_deep(ops, fresh, count, regs, mem):
    _check_unpack_loop(ops, fresh, count, regs, mem)


def _check_insert_chain(chain, count, regs, mem):
    # a1-a5 are reloaded each iteration; only a0 can open a chain, and
    # the store makes every byte it leaves unwritten observable.
    loads = [f"p.lw {reg}, 4(s1!)" for reg in DATA_REGS[1:]]
    run_both(_assemble_lines(whole_loop(
        loads + [chain, "p.sw a0, 4(s0!)"], count)), regs=regs, mem=mem)


@st.composite
def a0_insert_chain(draw):
    return _fmt_insert_chain(draw, rd="a0",
                             sources=st.sampled_from(DATA_REGS[1:]))


@settings(max_examples=40, deadline=None)
@given(chain=a0_insert_chain(), count=st.integers(2, 7),
       regs=initial_regs(), mem=initial_mem())
def test_unpack_insert_chain_parity(chain, count, regs, mem):
    """Mixed-width insert chains fuse only when they write every bit of
    the word; a chain that leaves bytes unwritten side-exits."""
    _check_insert_chain(chain, count, regs, mem)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(chain=a0_insert_chain(), count=st.integers(2, 7),
       regs=initial_regs(), mem=initial_mem())
def test_unpack_insert_chain_parity_deep(chain, count, regs, mem):
    _check_insert_chain(chain, count, regs, mem)


def _check_interleave(body, count, s1_offset, regs, mem):
    regs = dict(regs, s1=PTR_BASES["s1"] + s1_offset)
    run_both(_assemble_lines(whole_loop(body, count)), regs=regs, mem=mem)


@settings(max_examples=40, deadline=None)
@given(body=interleave_body(), count=st.integers(2, 7),
       s1_offset=st.integers(0, 3), regs=initial_regs(), mem=initial_mem())
def test_interleaved_stores_parity(body, count, s1_offset, regs, mem):
    """Same-stride store streams through one pointer: disjoint residues
    fuse, colliding ones side-exit, and both match the interpreter."""
    _check_interleave(body, count, s1_offset, regs, mem)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(body=interleave_body(), count=st.integers(2, 7),
       s1_offset=st.integers(0, 3), regs=initial_regs(), mem=initial_mem())
def test_interleaved_stores_parity_deep(body, count, s1_offset, regs, mem):
    _check_interleave(body, count, s1_offset, regs, mem)


# ---------------------------------------------------------------------------
# Region cuts
# ---------------------------------------------------------------------------

#: Region names a drawn map gives its spans; ``other`` is the table's
#: default region, so an unmarked span and a marked one can share it.
CUT_REGIONS = ("dotprod", "quant", "other")
#: The regions of compare-tree leaves cut out on their own: iterations
#: after the first may enter them first, in either order.
LEAF_REGIONS = ("leaf0", "leaf1")


@st.composite
def cut_program(draw):
    """A hardware loop, a loop nest or a software counted loop with a
    random region map: ``(kind, source, cuts)``, *cuts* the sorted
    ``(instruction index, region)`` pairs where a region starts.  One
    cut falls inside the loop's body, up to three anywhere; a cut falls
    more often at a label (an inner body's start or end, a compare
    tree's branch targets and merge, the loop head), at a branch (a
    tree node or the latch) and right after an ``lp.setup`` (inside an
    ``lp0`` body)."""
    from repro.asm import assemble

    kind = draw(st.sampled_from(("loop", "nest", "counted")))
    if kind == "loop":
        source = _assemble_lines(single_loop(
            draw(body_ops(min_size=3, max_size=8)), draw(st.integers(2, 7)),
            draw(st.integers(0, 1))))
    elif kind == "nest":
        source = draw(nest_sources)
    else:
        source = draw(counted_program())
    program = assemble(source)
    instrs = program.instructions
    index = {ins.addr: i for i, ins in enumerate(instrs)}
    marked = ({index[addr] for addr in program.labels.values()
               if addr in index}
              | {i for i, ins in enumerate(instrs)
                 if ins.spec.timing == "branch"}
              | {i + 1 for i, ins in enumerate(instrs)
                 if ins.spec.mnemonic.startswith("lp.setup")})
    lo, hi = (index[addr] for addr in _loop_body(kind, program))

    def position(first, last):
        inside = sorted(i for i in marked if first <= i <= last)
        anywhere = st.integers(first, last)
        return st.one_of(st.sampled_from(inside), anywhere) if inside \
            else anywhere

    cuts = draw(st.dictionaries(position(1, len(instrs) - 1),
                                st.sampled_from(CUT_REGIONS), max_size=3))
    if hi - lo > 1:
        cuts[draw(position(lo + 1, hi - 1))] = draw(
            st.sampled_from(CUT_REGIONS))
    subtrees = sorted(index[addr] for label, addr
                      in program.labels.items() if "_r" in label)
    if subtrees:
        # Right subtrees alone in their regions, up to the next label.
        for name, at in zip(LEAF_REGIONS, draw(st.lists(
                st.sampled_from(subtrees), max_size=2, unique=True))):
            after = min(i for i in marked if i > at)
            cuts.setdefault(after, draw(st.sampled_from(CUT_REGIONS)))
            cuts[at] = name
    return kind, source, sorted(cuts.items())


def _loop_body(kind, program):
    """The addresses ``[lo, hi)`` of the body of *program*'s loop (a
    :func:`cut_program` of *kind*): a counted loop's from its head
    through the latch, a hardware loop's or nest's after its setup."""
    labels = program.labels
    if kind == "counted":
        return labels["head"], program.instructions[-1].addr
    return (program.instructions[1].addr,
            labels["end1" if "end1" in labels else "end0"])


def _cut_table(cuts):
    """The *profile* argument of :func:`~tests.engine.conftest.run_both`
    for *cuts*: each cut's region runs to the next cut, the instructions
    before the first are in the default region."""
    from repro.core import RegionCounters

    def profile(program):
        instrs = program.instructions
        bounds = [i for i, _ in cuts] + [len(instrs)]
        return RegionCounters(region_map={
            ins.addr: name for (lo, name), hi in zip(cuts, bounds[1:])
            for ins in instrs[lo:hi]})

    return profile


def _fused_across_a_cut(kind, source, cpu) -> bool:
    """Whether the profiled *cpu* ran the program's loop as one plan and
    the table cuts that loop's body."""
    stats = cpu.engine_stats
    if kind == "loop":
        fused = stats["fused_dispatches"] > 0
    elif kind == "nest":
        fused = stats["nest_dispatches"] > 0
    else:
        fused = _fused_counted(source, cpu)
    program = cpu._loaded_program
    lo, hi = _loop_body(kind, program)
    table = cpu.regions
    return fused and len({table.region_of(ins.addr)
                          for ins in program.instructions
                          if lo <= ins.addr < hi}) > 1


def _check_cuts(case, regs, mem):
    kind, source, cuts = case
    _, block, _ = run_both(source, regs=regs, mem=mem,
                           profile=_cut_table(cuts))
    return _fused_across_a_cut(kind, source, block)


def test_region_cut_parity():
    """Random region maps over hardware loops, loop nests and counted
    loops: the profiled block engine charges each region exactly what
    the interpreter does, with the plain run's translation; some
    examples run a plan whose body the table cuts."""
    across = []

    @settings(max_examples=60, deadline=None)
    @given(case=cut_program(), regs=nest_regs(), mem=counted_mem())
    def check(case, regs, mem):
        across.append(_check_cuts(case, regs, mem))

    check()
    assert any(across), "no example fused a loop across a region cut"


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(case=cut_program(), regs=nest_regs(), mem=counted_mem())
def test_region_cut_parity_deep(case, regs, mem):
    _check_cuts(case, regs, mem)
