"""Engine choice: the block engine by default, the interpreter on request."""

import pytest

from repro.core import Cpu
from repro.errors import ReproError


def test_block_is_the_default():
    assert Cpu(isa="xpulpnn").engine == "block"


def test_explicit_argument_wins():
    assert Cpu(isa="xpulpnn", engine="interp").engine == "interp"


@pytest.mark.parametrize("bad", ["jit", "BLOCK", ""])
def test_unknown_mode_rejected(bad):
    with pytest.raises(ReproError, match="block or interp"):
        Cpu(isa="xpulpnn", engine=bad)


def test_parsers_reject_engine_flag(capsys):
    from repro.cli import build_parser

    parser = build_parser()
    for command in (["run", "prog.s"], ["profile", "--kernel", "conv_4bit"],
                    ["report"], ["compile", "--network", "mixed3"],
                    ["serve", "jobs.json"], ["sweep", "scaling", "cores=1,2"],
                    ["explore"]):
        parser.parse_args(command)
        with pytest.raises(SystemExit):
            parser.parse_args(command + ["--engine", "block"])
        assert "unrecognized arguments: --engine" in capsys.readouterr().err
