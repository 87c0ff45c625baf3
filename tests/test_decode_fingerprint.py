"""Smoke test for tools/decode_fingerprint.py at the benchmark smoke test's
sizes: two runs print the same digests, and the second finds no grid moved
against the grids the first saved."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "decode_fingerprint.py"
SCHEMES = ("greedy", "standard", "combined")


def fingerprint(*args):
    done = subprocess.run([sys.executable, str(TOOL), "--tiny", *args],
                          check=True, capture_output=True, text=True)
    return done.stdout.splitlines()


def test_two_runs_print_the_same_digests(tmp_path):
    grids = tmp_path / "grids.npz"
    first = fingerprint("--grids", str(grids))
    second = fingerprint("--against", str(grids))

    digest = "[0-9a-f]{64}"
    want = [rf"neural-decode seed {seed} {scheme} decodes {digest} grids {digest}"
            for seed in (1, 2, 3) for scheme in SCHEMES]
    for seed in (1, 2):
        want.append(rf"train seed {seed} training losses {digest} params {digest}")
        want += [rf"train seed {seed} {scheme} decodes {digest} grids {digest}"
                 for scheme in SCHEMES]
    assert len(first) == len(want)
    for line, pattern in zip(first, want):
        assert re.fullmatch(pattern, line), line
    assert second[:-1] == first
    assert re.fullmatch(r"largest grid move against grids\.npz: 0 \(.*\)", second[-1])
