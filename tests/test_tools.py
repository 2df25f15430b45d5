"""The repository's tools still run against the package as it stands, and
``tools/parity.py`` still prints the lines recorded in
``tools/parity_lines.txt``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_SHA = "[0-9a-f]{64}"
_EPOCH = "0x[0-9a-f.p+-]+/0x[0-9a-f.p+-]+/0x[0-9a-f.p+-]+"
_LINE = re.compile(rf"(rnn|cnn|bidaf) forward={_SHA} history={_EPOCH}(,{_EPOCH})* "
                   rf"ckpt={_SHA} scores={_SHA} report={_SHA} transfer={_SHA}")
_CBOW = re.compile(rf"cbow table={_SHA} history=0x[0-9a-f.p+-]+(,0x[0-9a-f.p+-]+)* "
                   rf"vectors={_SHA} concat={_SHA}")


def _parity(threads: int) -> str:
    """The stdout of tools/parity.py with BLAS at ``threads`` threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py")],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_parity_prints_one_digest_line_per_model():
    # tools/parity.py is the gate of every change that claims to be exact: an
    # exact change gives the same bits at 1 and 2 BLAS threads, and the lines
    # recorded for the tree. The bits depend on the BLAS and numpy build and
    # the CPU, so on a build other than the recorded one only the first two
    # checks hold and the comparison is skipped, with both builds named.
    out = _parity(1)
    lines = out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["build", "rnn", "cnn", "bidaf", "cbow"]
    for line in lines[1:4]:
        assert _LINE.fullmatch(line), line
    assert _CBOW.fullmatch(lines[4]), lines[4]
    assert _parity(2) == out
    recorded = (ROOT / "tools" / "parity_lines.txt").read_text()
    recorded_build = recorded.split("\n", 1)[0]
    if lines[0] != recorded_build:
        pytest.skip(f"parity lines recorded on '{recorded_build}', this is '{lines[0]}'")
    assert out == recorded
