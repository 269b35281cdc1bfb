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
"""

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


_OP_MAKERS = (_fmt_alu, _fmt_addi, _fmt_ptr_bump, _fmt_lui, _fmt_load,
              _fmt_load_post, _fmt_store, _fmt_store_post, _fmt_dotp,
              _fmt_dotp_sc, _fmt_dotp_sci, _fmt_dotp_subbyte, _fmt_mac)


@st.composite
def body_ops(draw, min_size=1, max_size=6, allow_ebreak=False):
    """A list of assembly lines drawn from the fusable op mix."""
    size = draw(st.integers(min_size, max_size))
    ops = [draw(st.sampled_from(_OP_MAKERS))(draw) for _ in range(size)]
    if allow_ebreak and draw(st.booleans()) and size > 1:
        ops[draw(st.integers(0, size - 1))] = "ebreak"
    return ops


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
