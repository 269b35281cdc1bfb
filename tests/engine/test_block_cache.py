"""Translated-block cache behavior: sharing, keying, invalidation."""

from repro.asm import assemble
from repro.core import Cpu
from repro.engine.blocks import GLOBAL_CACHE, ProgramBlockCache

SOURCE = """
    lp.setupi 0, 20, end0
    addi a0, a0, 1
end0:
    addi a1, a1, 1
    ebreak
"""


def _run(program, **kwargs):
    cpu = Cpu(isa="xpulpnn", engine="block", **kwargs)
    cpu.run_program(program)
    return cpu


class TestGlobalCache:
    def test_translations_shared_across_cores(self):
        program = assemble(SOURCE, isa="xpulpnn")
        first = _run(program)
        assert first.engine_stats["blocks_translated"] > 0
        second = _run(program)
        assert second.engine_stats["blocks_translated"] == 0
        assert second.engine_stats["block_hits"] > 0
        assert second.perf.snapshot() == first.perf.snapshot()

    def test_negative_entries_cached(self):
        """Interpreter-only start addresses cache as None so repeated
        visits skip re-discovery; a direct jump runs in its block."""
        program = assemble("csrr a1, 0xF14\nj target\ntarget:\n"
                           "addi a0, a0, 1\nebreak", isa="xpulpnn")
        cpu = _run(program)
        key = (program.digest(), cpu.isa.name)
        blocks = GLOBAL_CACHE.map_for(key)
        assert blocks[program.base] is None          # the CSR read
        assert blocks[program.base + 4].n == 1       # the jump
        assert blocks[program.base + 8] is not None  # its target

    def test_lru_eviction(self):
        cache = ProgramBlockCache(max_programs=2)
        a = cache.map_for(("a",))
        a["x"] = 1
        cache.map_for(("b",))
        cache.map_for(("a",))        # refresh a
        cache.map_for(("c",))        # evicts b
        assert cache.map_for(("a",)) == {"x": 1}
        assert cache.map_for(("b",)) == {}           # re-created empty
        assert len(cache) <= 3


class TestLocalCache:
    def _load_image(self, cpu, program):
        blob = program.encode()
        cpu.mem.write_bytes(program.base, blob)
        cpu.load_from_memory(program.base, len(blob), entry=program.entry)

    def test_memory_images_use_per_core_map(self):
        """load_from_memory images have no digest: translations stay
        core-local and never enter the global cache."""
        program = assemble(SOURCE, isa="xpulpnn")
        cpu = Cpu(isa="xpulpnn", engine="block")
        before = len(GLOBAL_CACHE)
        self._load_image(cpu, program)
        cpu.run()
        assert cpu.engine_stats["blocks_translated"] > 0
        assert len(GLOBAL_CACHE) == before

    def test_reload_invalidates_local_map(self):
        program = assemble(SOURCE, isa="xpulpnn")
        cpu = Cpu(isa="xpulpnn", engine="block")
        self._load_image(cpu, program)
        cpu.run()
        first = cpu.engine_stats["blocks_translated"]
        assert first > 0
        cpu.reset()
        self._load_image(cpu, program)
        cpu.run()
        assert cpu.engine_stats["blocks_translated"] >= first

    def test_memory_image_matches_program_run(self):
        """The decode-from-image path retires identically to the linked
        program under the block engine."""
        program = assemble(SOURCE, isa="xpulpnn")
        direct = Cpu(isa="xpulpnn", engine="block")
        direct.run_program(program)
        image = Cpu(isa="xpulpnn", engine="block")
        self._load_image(image, program)
        image.run()
        assert image.perf.snapshot() == direct.perf.snapshot()
        assert list(image.regs) == list(direct.regs)
