"""The CLI's help and usage text, pinned byte for byte.

``cli.main`` adds flags only to the sub-command it is asked to run, so a
change to how the parser is built could drop a flag, a default or a help
line without any other test noticing. These cases compare stdout, stderr
and the exit code with ``tests/data/cli_help.json``, captured at an
80-column terminal. ``python -m fischlin.cli`` is also run in a
subprocess, which reads its arguments from ``sys.argv``."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from fischlin.cli import main

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "cli_help.json").read_text())
SUBCOMMANDS = ["keygen", "prove", "verify", "extract", "simulate", "bounds", "plan", "lab"]
CASES = [
    ["-h"], ["--help"], *([name, "--help"] for name in SUBCOMMANDS),
    [], ["bogus"], ["prove"], ["verify", "--bogus"],
    # --json is a sub-command flag, so before the sub-command it is unknown
    ["--json", "verify", "--instance", "instance.json", "--proof", "proof.bin"],
]


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, which exits through
    argparse on every pinned case."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_text_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    pin = PINS[" ".join(argv)]
    assert run_main(capsys, argv) == (pin["code"], pin["stdout"], pin["stderr"])


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=" ".join)
def test_console_script_matches_in_process(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "fischlin.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == run_main(capsys, argv)[:2]
    assert proc.returncode == 0
