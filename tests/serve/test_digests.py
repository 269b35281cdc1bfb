"""Digest foundations: stable identities for specs, programs, networks.

The content-addressed cache is only sound if every digest it hashes is
stable across processes and sensitive to every semantic change.  The
cross-process tests run the digest in a fresh interpreter (new hash
seed, new import order) and require the same answer.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.asm import Assembler
from repro.serve import (
    ConvPointJob,
    ProfileJob,
    ScalingJob,
    array_digest,
    cache_key_parts,
    canonical_json,
    digest_of,
    execute,
    network_digest,
)
from repro.target import get_target
from repro.target.names import RI5CY, XPULPNN

SOURCE = """
    li   a0, 0
    li   t0, 4
loop:
    addi a0, a0, 3
    addi t0, t0, -1
    bne  t0, zero, loop
    ebreak
"""


REPO_ROOT = Path(__file__).resolve().parents[2]


def _fresh_interpreter(snippet: str) -> str:
    """Run *snippet* in a new python and return its stripped stdout."""
    env = dict(os.environ,
               PYTHONPATH=str(REPO_ROOT / "src"),
               PYTHONHASHSEED="random")
    result = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True,
        env=env, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1})

    def test_no_whitespace_ascii_only(self):
        text = canonical_json({"k": ["µ", 1.5]})
        assert " " not in text
        assert text.isascii()

    def test_nan_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="not canonically"):
            canonical_json({"x": float("nan")})

    def test_digest_of_is_sha256_hex(self):
        digest = digest_of({"a": 1})
        assert len(digest) == 64
        assert int(digest, 16) >= 0


class TestTargetSpecDigest:
    def test_distinct_targets_distinct_digests(self):
        assert get_target(XPULPNN).digest() != get_target(RI5CY).digest()

    def test_digest_tracks_spec_content(self):
        import dataclasses

        spec = get_target(XPULPNN)
        bumped = dataclasses.replace(spec, l2_bytes=spec.l2_bytes * 2)
        assert bumped.digest() != spec.digest()

    def test_cross_process_stability(self):
        expected = get_target(XPULPNN).digest()
        got = _fresh_interpreter(
            "from repro.target import get_target\n"
            "from repro.target.names import XPULPNN\n"
            "print(get_target(XPULPNN).digest())")
        assert got == expected


class TestProgramDigest:
    def test_same_source_same_digest(self):
        asm = Assembler(isa="xpulpnn")
        assert asm.assemble(SOURCE).digest() == \
            asm.assemble(SOURCE).digest()

    def test_code_change_changes_digest(self):
        asm = Assembler(isa="xpulpnn")
        assert asm.assemble(SOURCE).digest() != \
            asm.assemble(SOURCE.replace("addi a0, a0, 3",
                                        "addi a0, a0, 4")).digest()

    def test_base_address_changes_digest(self):
        a = Assembler(isa="xpulpnn").assemble(SOURCE)
        b = Assembler(isa="xpulpnn", base=0x100).assemble(SOURCE)
        assert a.digest() != b.digest()

    def test_cross_process_stability(self):
        expected = Assembler(isa="xpulpnn").assemble(SOURCE).digest()
        got = _fresh_interpreter(
            "from repro.asm import Assembler\n"
            f"print(Assembler(isa='xpulpnn').assemble({SOURCE!r}).digest())")
        assert got == expected


class TestArrayAndNetworkDigest:
    def test_array_digest_covers_dtype_and_shape(self):
        data = np.arange(12, dtype=np.int32)
        assert array_digest(data) != array_digest(data.astype(np.int8))
        assert array_digest(data) != array_digest(data.reshape(3, 4))
        assert array_digest(data) == array_digest(data.copy())

    def test_network_digest_tracks_weights(self):
        from repro.compiler import build_network

        built = build_network("mixed3")
        base = network_digest(built)
        assert base == network_digest(build_network("mixed3"))
        built.network.layers[0].weights[0, 0, 0, 0] += 1
        assert network_digest(built) != base

    def test_cross_process_stability(self):
        from repro.compiler import build_network

        expected = network_digest(build_network("mixed3"))
        got = _fresh_interpreter(
            "from repro.compiler import build_network\n"
            "from repro.serve import network_digest\n"
            "print(network_digest(build_network('mixed3')))")
        assert got == expected


class TestCacheKeyParts:
    def test_parts_name_all_three_digests(self):
        parts = cache_key_parts(ScalingJob(bits=4, cores=1, out_ch=32,
                                           reduction=64))
        assert set(parts) == {"schema", "kind", "spec", "program", "config"}
        assert parts["kind"] == "scaling"

    def test_key_tracks_target_spec(self):
        a = cache_key_parts(ProfileJob(kernel="conv_4bit", target=XPULPNN))
        b = cache_key_parts(ProfileJob(kernel="conv_4bit", target=RI5CY))
        assert a["spec"] != b["spec"]
        assert digest_of(a) != digest_of(b)

    def test_key_tracks_kernel_program(self):
        a = cache_key_parts(ProfileJob(kernel="matmul_4bit"))
        b = cache_key_parts(ProfileJob(kernel="matmul_8bit"))
        assert a["program"] != b["program"]

    def test_cross_process_stability(self):
        job = ScalingJob(bits=4, cores=2, out_ch=32, reduction=64)
        expected = digest_of(cache_key_parts(job))
        got = _fresh_interpreter(
            "from repro.serve import ScalingJob, cache_key_parts, "
            "digest_of\n"
            "job = ScalingJob(bits=4, cores=2, out_ch=32, reduction=64)\n"
            "print(digest_of(cache_key_parts(job)))")
        assert got == expected


def _spec_point_job():
    from repro.explore.space import Candidate, variant_spec

    return Candidate(spec=variant_spec(2, 64, 512), bits=4, quant="hw",
                     out_ch=32, reduction=64).job()


class TestKeyProgramRuns:
    """The key hashes a program the run really loads into a core."""

    @pytest.fixture
    def loaded(self, monkeypatch):
        from repro.core.cpu import Cpu
        from repro.eval import workloads

        workloads._point_for.cache_clear()
        digests = set()
        load = Cpu.load_program

        def record(cpu, program, *digest):
            digests.add(program.digest())
            return load(cpu, program, *digest)

        # Cluster.load_program loads every core through Cpu.load_program.
        monkeypatch.setattr(Cpu, "load_program", record)
        yield digests
        workloads._point_for.cache_clear()

    @pytest.mark.parametrize("make_job", [
        lambda: ProfileJob(kernel="conv_4bit", target=XPULPNN),
        lambda: ProfileJob(kernel="matmul_4bit", target="xpulpnn-cluster8"),
        lambda: ProfileJob(kernel="conv_4bit", target=RI5CY),
        lambda: ProfileJob(kernel="matmul_2bit", trace=True),
        lambda: ScalingJob(bits=4, cores=2, out_ch=32, reduction=64),
        _spec_point_job,
        lambda: ConvPointJob(bits=4, quant="sw", target=RI5CY),
        lambda: ConvPointJob(bits=8, quant="shift", target=RI5CY),
    ], ids=["profile", "profile-cluster8", "profile-ri5cy-sw",
            "profile-trace", "scaling", "specpoint", "convpoint",
            "convpoint-8bit-ri5cy-alias"])
    def test_key_program_is_loaded_by_the_run(self, make_job, loaded):
        job = make_job()
        execute(job)
        assert loaded
        assert cache_key_parts(job)["program"] in loaded
