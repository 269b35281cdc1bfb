"""Command-line interface tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text("""
        li   a0, 0
        li   t0, 4
        lp.setup 0, t0, end
        addi a0, a0, 3
    end:
        ebreak
    """)
    return path


class TestAsm:
    def test_assemble_to_binary(self, source_file, tmp_path, capsys):
        out = tmp_path / "prog.bin"
        assert main(["asm", str(source_file), "-o", str(out)]) == 0
        blob = out.read_bytes()
        assert len(blob) % 4 == 0 and len(blob) > 0
        assert "instructions" in capsys.readouterr().out

    def test_default_output_name(self, source_file, tmp_path):
        assert main(["asm", str(source_file)]) == 0
        assert (tmp_path / "prog.bin").exists()

    def test_isa_gating(self, tmp_path, capsys):
        path = tmp_path / "nn.s"
        path.write_text("pv.qnt.n a0, a1, a2\nebreak")
        assert main(["asm", str(path), "--isa", "ri5cy"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["asm", "/nonexistent.s"]) == 1


class TestDisasm:
    def test_roundtrip(self, source_file, tmp_path, capsys):
        out = tmp_path / "prog.bin"
        main(["asm", str(source_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["disasm", str(out)]) == 0
        text = capsys.readouterr().out
        assert "lp.setup" in text
        assert "ebreak" in text

    def test_base_address(self, source_file, tmp_path, capsys):
        out = tmp_path / "prog.bin"
        main(["asm", str(source_file), "-o", str(out)])
        capsys.readouterr()
        main(["disasm", str(out), "--base", "0x100"])
        assert "0x00000100" in capsys.readouterr().out


class TestRun:
    def test_executes_and_reports(self, source_file, capsys):
        assert main(["run", str(source_file)]) == 0
        text = capsys.readouterr().out
        assert "halted: ebreak" in text
        assert "a0 = 0x0000000c (12)" in text

    def test_register_preload(self, tmp_path, capsys):
        path = tmp_path / "add.s"
        path.write_text("add a0, a1, a2\nebreak")
        assert main(["run", str(path), "--reg", "a1=30", "--reg", "a2=0xc"]) == 0
        assert "(42)" in capsys.readouterr().out

    def test_trace(self, tmp_path, capsys):
        path = tmp_path / "t.s"
        path.write_text("nop\nebreak")
        main(["run", str(path), "--trace"])
        assert "addi" in capsys.readouterr().out


class TestReport:
    def test_table3_report(self, capsys):
        assert main(["report", "table3"]) == 0
        text = capsys.readouterr().out
        assert "Table III" in text

    def test_unknown_experiment(self, capsys):
        assert main(["report", "fig42"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_cluster_report_table(self, capsys):
        assert main(["report", "cluster"]) == 0
        text = capsys.readouterr().out
        assert "Cluster scaling" in text
        assert "4-bit MatMul" in text

    def test_cluster_json_report(self, capsys):
        import json

        assert main(["report", "cluster", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        points = data["cluster"]["points"]
        assert len(points) == 12
        eight_core = [p for p in points if p["cores"] == 8]
        assert len(eight_core) == 3
        assert all(p["efficiency"] >= 0.75 for p in eight_core)
        assert all(p["speedup"] >= 6.0 for p in eight_core)

    def test_json_mode_covers_table_experiments(self, capsys):
        import json

        assert main(["report", "table3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "table3" in data


class TestIsaReference:
    def test_lists_xpulpnn_subset(self, capsys):
        assert main(["isa", "--subset", "xpulpnn"]) == 0
        text = capsys.readouterr().out
        assert "pv.qnt.n" in text and "pv.sdotusp.c" in text
        assert "qnt_n" in text  # timing annotation

    def test_baseline_has_no_xpulpnn(self, capsys):
        assert main(["isa", "--isa", "ri5cy"]) == 0
        text = capsys.readouterr().out
        assert "pv.qnt" not in text
        assert "pv.sdotsp.b" in text

    def test_full_listing_grouped(self, capsys):
        assert main(["isa"]) == 0
        text = capsys.readouterr().out
        for subset in ("rv32i", "rv32m", "rv32c", "zicsr", "xpulpv2", "xpulpnn"):
            assert f"== {subset}" in text


class TestLint:
    FIXTURES = str(Path(__file__).parent / "analysis" / "fixtures")

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.s"
        path.write_text("li a0, 1\nadd a0, a0, a1\nebreak")
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, capsys):
        fixture = f"{self.FIXTURES}/undef_register.s"
        assert main(["lint", fixture]) == 1
        text = capsys.readouterr().out
        assert "undef-register" in text
        assert "1 with findings" in text

    def test_json_output(self, capsys):
        import json

        fixture = f"{self.FIXTURES}/out_of_range_store.s"
        assert main(["lint", fixture, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        (report,) = data["reports"]
        (finding,) = report["findings"]
        assert finding["checker"] == "addr-range"

    def test_checks_filter(self, capsys):
        fixture = f"{self.FIXTURES}/undef_register.s"
        assert main(["lint", fixture, "--checks", "write-x0"]) == 0

    def test_unknown_checker_rejected(self, capsys):
        assert main(["lint", "--kernels", "--checks", "bogus"]) == 1
        assert "unknown checker" in capsys.readouterr().err

    def test_list_checkers(self, capsys):
        assert main(["lint", "--list-checkers"]) == 0
        text = capsys.readouterr().out
        assert "undef-register" in text
        assert "hwloop" in text

    def test_nothing_to_lint_is_an_error(self, capsys):
        assert main(["lint"]) == 1
        assert "nothing to lint" in capsys.readouterr().err

    def test_kernel_catalog_is_clean(self, capsys):
        assert main(["lint", "--kernels"]) == 0
        text = capsys.readouterr().out
        assert "0 with findings" in text

    def test_race_mode(self, capsys):
        assert main(["lint", "--race", "matmul"]) == 0
        text = capsys.readouterr().out
        assert "clean" in text
        assert "barrier epoch" in text


REGION_SOURCE = """
.region setup
    li   a0, 4
.endregion
.region spin
spin:
    addi a0, a0, -1
    bnez a0, spin
.endregion
    ebreak
"""


@pytest.fixture
def region_file(tmp_path):
    path = tmp_path / "regions.s"
    path.write_text(REGION_SOURCE)
    return path


class TestTrace:
    def test_exports_valid_chrome_trace(self, region_file, tmp_path, capsys):
        from repro.trace import validate_chrome_trace_file

        out = tmp_path / "trace.json"
        assert main(["trace", str(region_file), "--out", str(out)]) == 0
        assert validate_chrome_trace_file(str(out)) > 0
        text = capsys.readouterr().out
        assert "perfetto" in text

    def test_region_names_in_export(self, region_file, tmp_path):
        import json

        out = tmp_path / "trace.json"
        main(["trace", str(region_file), "--out", str(out)])
        names = {e["name"] for e in json.loads(out.read_text())["traceEvents"]
                 if e["ph"] == "X"}
        assert {"setup", "spin"} <= names

    def test_kernel_trace(self, tmp_path, capsys):
        from repro.trace import validate_chrome_trace_file

        out = tmp_path / "mm.json"
        assert main(["trace", "--kernel", "matmul_4bit",
                     "--out", str(out)]) == 0
        assert validate_chrome_trace_file(str(out)) > 0

    def test_needs_input_or_kernel(self, capsys):
        assert main(["trace"]) == 1
        assert "--kernel" in capsys.readouterr().err

    def test_unknown_kernel(self, capsys):
        assert main(["trace", "--kernel", "nope"]) == 1
        assert "unknown kernel" in capsys.readouterr().err


class TestProfile:
    def test_source_file_table(self, region_file, capsys):
        assert main(["profile", str(region_file)]) == 0
        text = capsys.readouterr().out
        assert "spin" in text and "setup" in text
        assert "TOTAL" in text

    def test_source_file_json(self, region_file, capsys):
        import json

        assert main(["profile", str(region_file), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cycles"] > 0
        assert "spin" in data["regions"]

    def test_kernel_table(self, capsys):
        assert main(["profile", "--kernel", "matmul_4bit"]) == 0
        text = capsys.readouterr().out
        assert "dotprod" in text and "quant" in text

    def test_kernel_json(self, capsys):
        import json

        assert main(["profile", "--kernel", "matmul_2bit", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kernel"] == "matmul_2bit"
        assert data["regions"]["dotprod"]["share"] > 0.5

    def test_list_catalog(self, capsys):
        assert main(["profile", "--list"]) == 0
        text = capsys.readouterr().out
        assert "conv_4bit" in text and "matmul_8bit" in text

    def test_needs_input_or_kernel(self, capsys):
        assert main(["profile"]) == 1
        assert "--kernel" in capsys.readouterr().err


class TestTrajectory:
    def test_requires_json(self, tmp_path, capsys):
        out = tmp_path / "traj.json"
        assert main(["report", "table3", "--trajectory", str(out)]) == 1
        assert "--json" in capsys.readouterr().err

    def test_writes_summary(self, tmp_path, capsys):
        import json

        out = tmp_path / "traj.json"
        assert main(["report", "table3", "--json",
                     "--trajectory", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-trajectory/1"
        assert doc["experiments"] == ["table3"]
        # Stdout stays pure JSON (the note goes to stderr).
        json.loads(capsys.readouterr().out)


class TestCompile:
    def test_plan_only_json(self, capsys):
        import json

        assert main(["compile", "--network", "mixed3",
                     "--plan-only", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["network"] == "mixed3"
        assert doc["total_tiles"] > len(doc["layers"])

    def test_plan_only_lint(self, capsys):
        assert main(["compile", "--network", "mixed3",
                     "--plan-only", "--lint"]) == 0
        text = capsys.readouterr().out
        assert "conv" in text and "linear" in text

    def test_unknown_network_rejected(self, capsys):
        assert main(["compile", "--network", "nope"]) == 1
        assert "nope" in capsys.readouterr().err


class TestTargets:
    def test_table_lists_all_targets(self, capsys):
        assert main(["targets"]) == 0
        text = capsys.readouterr().out
        for name in ("ri5cy", "xpulpv2", "xpulpnn", "xpulpnn-cluster8",
                     "stm32l4", "stm32h7"):
            assert name in text

    def test_family_filter(self, capsys):
        assert main(["targets", "--family", "arm"]) == 0
        text = capsys.readouterr().out
        assert "stm32l4" in text and "xpulpnn" not in text

    def test_json_round_trips_through_spec(self, capsys):
        import json

        from repro.target import TargetSpec

        assert main(["targets", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) >= 7
        specs = []
        for entry in payload:
            entry = dict(entry)
            # Derived annotations ride along with the spec fields.
            digest = entry.pop("digest")
            capabilities = entry.pop("capabilities")
            spec = TargetSpec.from_dict(entry)
            assert digest == spec.digest()
            assert capabilities == spec.capabilities()
            specs.append(spec)
        assert {"riscv", "arm"} <= {spec.family for spec in specs}

    def test_json_capability_flags(self, capsys):
        import json

        assert main(["targets", "--json"]) == 0
        by_name = {entry["name"]: entry
                   for entry in json.loads(capsys.readouterr().out)}
        nn = by_name["xpulpnn-cluster8"]["capabilities"]
        assert nn["cluster"] and nn["hw_quant"] and nn["subbyte_simd"]
        base = by_name["ri5cy"]["capabilities"]
        assert not base["hw_quant"] and not base["cluster"]
        assert all(len(e["digest"]) == 64 for e in by_name.values())

    def test_isa_strings_gate_passes_on_tree(self, capsys):
        assert main(["lint", "--isa-strings"]) == 0
        assert "isa-strings: OK" in capsys.readouterr().out

    def test_profile_accepts_target_flag(self, capsys):
        assert main(["profile", "--kernel", "matmul_4bit",
                     "--target", "xpulpnn-cluster2"]) == 0
        assert "cores" in capsys.readouterr().out.lower()

    def test_unknown_target_errors(self, capsys):
        assert main(["profile", "--kernel", "conv_4bit",
                     "--target", "gpu"]) == 1
        assert "gpu" in capsys.readouterr().err


class TestServe:
    @pytest.fixture
    def job_file(self, tmp_path):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([
            {"kind": "scaling", "bits": 4, "cores": 2,
             "out_ch": 32, "reduction": 64},
            {"kind": "selftest", "mode": "ok", "value": 5},
        ]))
        return path

    def test_job_file_batch(self, job_file, tmp_path, capsys):
        assert main(["serve", str(job_file), "--quiet",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        text = capsys.readouterr().out
        assert "2 point(s)" in text and "FAILED" not in text

    def test_rerun_hits_cache(self, job_file, tmp_path, capsys):
        import json

        cache = str(tmp_path / "cache")
        main(["serve", str(job_file), "--quiet", "--cache-dir", cache])
        capsys.readouterr()
        assert main(["serve", str(job_file), "--quiet", "--cache-dir",
                     cache, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stats"]["cache"]["hits"] == 1  # selftest is uncached
        assert report["results"][0]["cached"] is True

    def test_failure_sets_exit_code(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "selftest", "mode": "raise"}))
        assert main(["serve", str(path), "--quiet", "--no-cache"]) == 1
        assert "ServeError" in capsys.readouterr().out

    def test_report_written_to_file(self, job_file, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        assert main(["serve", str(job_file), "--quiet", "--no-cache",
                     "--label", "cli-test", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["label"] == "cli-test"
        assert len(report["results"]) == 2

    def test_bad_job_file_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "teapot"}')
        assert main(["serve", str(path), "--quiet", "--no-cache"]) == 1
        assert "unknown job kind" in capsys.readouterr().err

    def test_progress_streams_to_stderr(self, job_file, capsys):
        assert main(["serve", str(job_file), "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "done" in err


class TestSweep:
    def test_cartesian_expansion_runs(self, capsys):
        assert main(["sweep", "scaling", "bits=8,4", "cores=1,2",
                     "--base", "out_ch=32", "--base", "reduction=64",
                     "--no-cache", "--quiet"]) == 0
        assert "4 point(s)" in capsys.readouterr().out

    def test_expand_only_prints_jobs(self, capsys):
        import json

        assert main(["sweep", "scaling", "bits=8,4", "cores=1,2,4",
                     "--base", "out_ch=32", "--base", "reduction=64",
                     "--expand-only", "--no-cache", "--quiet"]) == 0
        jobs = json.loads(capsys.readouterr().out)
        assert len(jobs) == 6
        assert all(j["kind"] == "scaling" for j in jobs)

    def test_skip_invalid(self, capsys):
        import json

        assert main(["sweep", "scaling", "bits=2", "cores=1,2,8",
                     "--base", "out_ch=8", "--base", "reduction=64",
                     "--skip-invalid", "--expand-only",
                     "--no-cache", "--quiet"]) == 0
        jobs = json.loads(capsys.readouterr().out)
        assert [j["cores"] for j in jobs] == [1, 2]

    def test_invalid_point_errors_by_default(self, capsys):
        assert main(["sweep", "scaling", "bits=2", "cores=8",
                     "--base", "out_ch=8", "--no-cache", "--quiet"]) == 1
        assert "error" in capsys.readouterr().err

    def test_zero_points_rejected(self, capsys):
        assert main(["sweep", "scaling", "bits=2", "cores=8",
                     "--base", "out_ch=8", "--skip-invalid",
                     "--no-cache", "--quiet"]) == 1
        assert "zero valid points" in capsys.readouterr().err

    def test_bad_axis_spec_errors(self, capsys):
        assert main(["sweep", "scaling", "bits", "--no-cache",
                     "--quiet"]) == 1
        assert "bad axis" in capsys.readouterr().err


class TestExplore:
    def test_quick_space_runs_and_verifies(self, tmp_path, capsys):
        assert main(["explore", "--space", "quick", "--quiet",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        text = capsys.readouterr().out
        assert "staged search" in text
        assert "bit-identical" in text

    def test_report_and_trajectory_written(self, tmp_path, capsys):
        import json

        report = tmp_path / "explore.json"
        traj = tmp_path / "traj.json"
        assert main(["explore", "--space", "quick", "--quiet", "--no-cache",
                     "--no-verify", "--report", str(report),
                     "--trajectory", str(traj)]) == 0
        from repro.explore import validate_explore_report

        doc = json.loads(report.read_text())
        validate_explore_report(doc)
        entries = json.loads(traj.read_text())["entries"]
        assert any(k.startswith("explore/quick/") for k in entries)

    def test_axis_overrides(self, capsys):
        import json

        assert main(["explore", "--space", "quick", "--cores", "2",
                     "--tcdm", "64", "--points", "4:hw,4:sw",
                     "--quiet", "--no-cache", "--no-verify",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["space"]["cores"] == [2]
        assert {p["quant"] for p in doc["points"]} == {"hw", "sw"}

    def test_no_prune_simulates_everything(self, capsys):
        import json

        assert main(["explore", "--space", "quick", "--no-prune",
                     "--quiet", "--no-cache", "--no-verify",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["pruned"] == 0
        assert doc["stats"]["simulated"] == doc["stats"]["candidates"]

    def test_bad_point_spec_errors(self, capsys):
        assert main(["explore", "--space", "quick", "--points", "4hw",
                     "--quiet", "--no-cache"]) == 1
        assert "expected BITS:QUANT" in capsys.readouterr().err

    def test_unknown_space_errors(self, capsys):
        assert main(["explore", "--space", "warp", "--quiet",
                     "--no-cache"]) == 1
        assert "unknown search space" in capsys.readouterr().err

    def test_network_mode(self, tmp_path, capsys):
        assert main(["explore", "--network", "mixed3",
                     "--assign", "8,4,8", "--assign", "4,2,4",
                     "--quiet", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        text = capsys.readouterr().out
        assert "per-layer precision" in text
        assert "8/4/8" in text and "4/2/4" in text


def test_version_does_not_import_numpy():
    """``python -m repro --version`` answers without loading numpy
    (about 100 ms of start-up), in a fresh interpreter."""
    snippet = (
        "import runpy, sys\n"
        "sys.argv = ['repro', '--version']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print('numpy' in sys.modules)\n")
    result = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert result.returncode == 0, result.stderr
    version, loaded = result.stdout.split()
    assert version == "1.0.0"
    assert loaded == "False", "repro --version imported numpy"
