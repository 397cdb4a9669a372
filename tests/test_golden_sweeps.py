"""``knappflow sweep`` output and the amplitude lattices must keep their bits.

The digests were recorded at commit cf40bec (before the whole-window
kernel pass), all for k=1..10 at eps=0.01, rho=2e-6:
- the sha256 of the CSV and JSON files that ``knappflow sweep`` wrote,
  in both modes at two (s, r) pairs, and in one slab run on a coarser
  configured grid;
- the sha256 of the ``repr`` of every lattice breakdown in each mode.
  The CSV keeps 17 significant digits of a few magnitudes per window and
  cannot see a last-bit change in, say, a near-zero real part of one
  sign triple's term; the breakdowns can.
A change to the quadrature, the norms, the fits or the serialization
that moves any of these bits fails here.
"""

import hashlib

import pytest

from knappflow import cli
from knappflow.sweep import sweep_core

# name: (sweep arguments, CSV sha256, JSON sha256)
GOLDEN = {
    "slab-s0.5-r-0.25": (
        ["--mode", "slab", "--s", "0.5", "--r", "-0.25"],
        "0848f0e4a8cdfc7a4ec850f6a34f800c1b92c1bb80e6cf117f4735e4953aa8f0",
        "da3b286b12766af7ca18c0a6d9865116c07cc0efe95abe12d774c3fb40e5df31",
    ),
    "slab-s1.0-r-0.5": (
        ["--mode", "slab", "--s", "1.0", "--r", "-0.5"],
        "690334542dc48a58345ccdcd4e45ef09626bb0b69f460f6a000ce41c9f47cfc5",
        "174b68c9e88695c8b978867adbeb9d83e8585731c2adf5536a133e79178897ed",
    ),
    "surface-s0.5-r-0.25": (
        ["--mode", "surface", "--s", "0.5", "--r", "-0.25"],
        "a437d6afdf10267cbd0cffa02ec8b6922ba823f0467aa9d603803e40ef4d2595",
        "43202405b76a275d2fadf542dbfdadf3ede9cf7044c881cdc50ed484869ceb16",
    ),
    "surface-s1.0-r-0.5": (
        ["--mode", "surface", "--s", "1.0", "--r", "-0.5"],
        "91067fc39af6a05d4f298d5a466289c6137e3fefb68ea9181859a68ffa302fd2",
        "b802afa59539025db8a467f0a5aaf4b12105b2c4394ecc80dc8b907d075df022",
    ),
    "slab-grid-8-4-4": (
        ["--mode", "slab", "--grid", "8,4,4"],
        "b1ad67bab967d0be9b621941b8362074758dcf6b9223ea5768027ac30449dbeb",
        "39cf108181c4e25023d40dacf388a8c34c1ca1ea16ab46ab870ccfdd6791d971",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_bytes_match_recorded_digests(tmp_path, name):
    args, csv_digest, json_digest = GOLDEN[name]
    csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert cli.main(["sweep", *args, "--out", str(csv_path), "--json", str(json_path)]) == 0
    assert sha256(csv_path) == csv_digest
    assert sha256(json_path) == json_digest


BREAKDOWNS = {
    "slab": "1d813dfdfb415ba4b4f28caa2aabfab050bb248985efd1a13acc4b184cd09a23",
    "surface": "4f1f0ee2dded3c0f26b9b36dbb66ac488fffb9247be9bfbd779f632526453cfc",
}


@pytest.mark.parametrize("mode", sorted(BREAKDOWNS))
def test_lattice_breakdowns_match_recorded_digest(mode):
    cores = sweep_core(0.01, 2e-6, range(1, 11), mode=mode)
    text = repr([core.breakdowns for core in cores])
    assert hashlib.sha256(text.encode()).hexdigest() == BREAKDOWNS[mode]
