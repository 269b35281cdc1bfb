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
strided word-load pairs.
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


@st.composite
def interleave_body(draw):
    """2-4 stores through ``s0`` whose post-increments sum to one stride
    (8 or 16), so each is an affine stream with that delta.  Half the
    bodies place each store in its own word slot of the stride, in any
    order (disjoint residues); the rest draw residues freely, so most
    collide.  An optional strided word-load pair through ``s1`` (delta
    = stride) feeds them."""
    stride = draw(st.sampled_from((8, 16)))
    lines = []
    if draw(st.booleans()):
        lines += [f"p.lw {draw(data_reg)}, 4(s1!)",
                  f"p.lw {draw(data_reg)}, {stride - 4}(s1!)"]
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
    for i, (mn, residue) in enumerate(stores):
        after = stores[i + 1][1] if i + 1 < len(stores) \
            else stores[0][1] + stride
        lines.append(f"{mn} {draw(data_reg)}, {after - residue}(s0!)")
    return lines


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


@settings(max_examples=40, deadline=None)
@given(inner=body_ops(max_size=4), outer_tail=body_ops(max_size=3),
       n_outer=st.integers(0, 4), n_inner=st.integers(0, 5),
       regs=initial_regs(), mem=initial_mem())
def test_nested_loop_parity(inner, outer_tail, n_outer, n_inner, regs, mem):
    """lp1 wrapping lp0: the inner body fuses, the outer back-edge and
    re-setup run on the fast-block/interpreter tiers."""
    lines = nested_loop(inner, outer_tail, n_outer, n_inner)
    run_both(_assemble_lines(lines), regs=regs, mem=mem)


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
