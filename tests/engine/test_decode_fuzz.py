"""Decode fuzzing: arbitrary words decode cleanly and execute identically.

Every 32-bit word and every 16-bit RVC word either decodes or raises
:class:`DecodeError`; nothing else escapes the decoders.  A word that
decodes is placed in front of an ``ebreak`` and run from random register
contents on the interpreter and on the block engine: it retires or
raises a :class:`ReproError`, and both engines end in the same state.
"""

from hypothesis import given, settings, strategies as st

from repro.core import Cpu
from repro.errors import DecodeError, ReproError
from repro.isa import build_isa, rv32c
from repro.isa.encoding import _fixed_mask_match
from repro.soc.memory import Memory

from tests.engine.conftest import state_of

ISA = build_isa("xpulpnn")
EBREAK = (0x00100073).to_bytes(4, "little")
#: Small enough to keep the per-example state comparison cheap; register
#: values drawn below it make loads and stores land in memory.
MEM_SIZE = 0x4000

#: Arbitrary words, and words carrying one wide spec's fixed fields (other
#: bits random) so every instruction's operands and semantics get hit.
wide_words = st.one_of(
    st.integers(0, 0xFFFFFFFF).map(lambda w: w | 3),
    st.tuples(st.sampled_from([_fixed_mask_match(s.fixed)
                               for s in ISA.specs if s.size == 4]),
              st.integers(0, 0xFFFFFFFF)).map(
        lambda t: t[1] & ~t[0][0] | t[0][1]))
rvc_words = st.integers(0, 0xFFFF).filter(lambda h: h & 3 != 3)
sized_words = st.one_of(wide_words.map(lambda w: (w, 4)),
                        rvc_words.map(lambda h: (h, 2)))
register_files = st.lists(
    st.one_of(st.integers(0, MEM_SIZE - 1), st.integers(0, 0xFFFFFFFF)),
    min_size=31, max_size=31)


def _step(image, regs, engine):
    cpu = Cpu(isa=ISA, mem=Memory(MEM_SIZE), engine=engine)
    cpu.mem.write_bytes(0, image)
    cpu.load_from_memory(0, len(image))
    for index, value in enumerate(regs, start=1):
        cpu.regs[index] = value
    error = None
    try:
        cpu.run(max_instructions=2)
    except ReproError as exc:
        error = (type(exc).__name__, str(exc))
    return error, state_of(cpu)


@settings(max_examples=600, deadline=None)
@given(sized=sized_words, regs=register_files)
def test_words_decode_and_step_identically(sized, regs):
    word, size = sized
    decode = ISA.decoder.decode if size == 4 else rv32c.decode_c
    try:
        decode(word)
    except DecodeError:
        return
    image = word.to_bytes(size, "little") + EBREAK
    assert _step(image, regs, "interp") == _step(image, regs, "block")
