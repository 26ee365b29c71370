"""Command line interface: CSV format, exit codes, determinism, and
agreement with direct library calls."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from cqsw import exponents, presets
from cqsw.cli import main
from cqsw.exponents import exponent
from cqsw.states import save_state


@pytest.fixture()
def dsbs_path(tmp_path):
    p = tmp_path / "dsbs.json"
    save_state(presets.doubly_symmetric(0.11), p)
    return str(p)


@pytest.fixture()
def nosi_path(tmp_path):
    p = tmp_path / "nosi.json"
    save_state(presets.no_side_info(), p)
    return str(p)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_exponents_csv_shape_and_tokens(nosi_path, tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["exponents", "--state", nosi_path, "--rate-min", "0",
               "--rate-max", "2", "--steps", "5", "--out", str(out)])
    assert rc == 0
    raw = _read(out)
    assert b"\r" not in raw  # LF only
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "R,E_r_down,E_r,E_sp,E_sc_star,E_sc_flat,alpha_star"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    # uniform bit: E_sp is 0 through R = 1 and inf beyond
    grid = {float(r[0]): r for r in rows}
    assert float(grid[0.5][3]) == 0.0
    assert grid[1.5][3] == "inf"
    assert grid[2.0][3] == "inf"
    # every token parses and round-trips
    for row in rows:
        for tok in row:
            v = float(tok)
            if math.isfinite(v):
                assert float(repr(v)) == v


def test_exponents_matches_library(dsbs_path, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["exponents", "--state", dsbs_path, "--rate-min", "0.6",
                 "--rate-max", "0.8", "--steps", "2",
                 "--out", str(out)]) == 0
    s = presets.doubly_symmetric(0.11)
    lines = _read(out).decode().strip().split("\n")[1:]
    for line in lines:
        vals = [float(t) for t in line.split(",")]
        r = vals[0]
        assert vals[2] == pytest.approx(exponent(s, r, "random_coding"),
                                        abs=1e-9)
        assert vals[3] == pytest.approx(exponent(s, r, "sphere_packing"),
                                        abs=1e-9)


def test_exponents_curves_share_probes(dsbs_path, tmp_path, monkeypatch):
    # one exponent_family curve per kind: the 21 rates share their probes
    # (evaluated one rate at a time, the searches took 662 evaluations), and
    # alpha* comes from the sphere-packing curve's own search (a saddle
    # point search per rate took 236 more); each search stops once its value
    # has converged (258 evaluations when it ran to 1e-8 in s)
    evals = []
    real = exponents.golden_max

    def counted(f, *args, **kwargs):
        def g(x):
            evals.append(x)
            return f(x)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(exponents, "golden_max", counted)
    out = tmp_path / "curve.csv"
    assert main(["exponents", "--state", dsbs_path, "--rate-min", "0",
                 "--rate-max", "1", "--steps", "21", "--out", str(out)]) == 0
    assert len(_read(out).decode().strip().split("\n")) == 22
    assert len(evals) <= 182


def test_simulate_deterministic(dsbs_path, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["simulate", "--state", dsbs_path, "--n", "1", "--rate", "0.8",
            "--trials", "3", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read(a) == _read(b)


def test_bruteforce_report(dsbs_path, tmp_path):
    out = tmp_path / "bf.txt"
    assert main(["bruteforce", "--state", dsbs_path, "--n", "1",
                 "--w-size", "2", "--out", str(out)]) == 0
    text = _read(out).decode()
    assert "p_error 0.0" in text


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "1", "--out", str(out)]) == 0
    text = _read(out).decode()
    assert "FAIL" not in text
    assert text.count("PASS") >= 5


def test_moderate_csv(dsbs_path, tmp_path):
    out = tmp_path / "mod.csv"
    assert main(["moderate", "--state", dsbs_path, "--deltas", "0.05,0.02",
                 "--out", str(out)]) == 0
    lines = _read(out).decode().strip().split("\n")
    assert lines[0] == "delta,ratio,half_inverse_variance"
    assert len(lines) == 3


def test_moderate_zero_variance(tmp_path):
    p = tmp_path / "psi.json"
    save_state(presets.perfect_side_info(), p)
    rc = main(["moderate", "--state", str(p)])
    assert rc == 3


def test_rate_window_command(dsbs_path, tmp_path):
    out = tmp_path / "rw.txt"
    assert main(["rate-window", "--state", dsbs_path, "--n", "2",
                 "--epsilon", "0.1", "--alpha", "0.5",
                 "--out", str(out)]) == 0
    text = dict(line.split(" ", 1)
                for line in _read(out).decode().strip().split("\n"))
    assert float(text["lower"]) <= float(text["upper"])


def test_exit_codes(dsbs_path, tmp_path):
    assert main(["exponents", "--state", str(tmp_path / "nope.json")]) == 3
    assert main(["exponents", "--state", dsbs_path, "--rate-min", "1",
                 "--rate-max", "0.5"]) == 2
    assert main(["simulate", "--state", dsbs_path, "--trials", "0",
                 "--rate", "0.5"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["exponents", "--state", str(bad)]) == 3


def test_console_entry_point(dsbs_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cqsw.cli", "rate-window", "--state",
         dsbs_path, "--n", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "lower" in proc.stdout


def test_removed_flags_are_rejected(dsbs_path):
    assert main(["exponents", "--state", dsbs_path, "--variants", "petz"]) == 2
    assert main(["simulate", "--state", dsbs_path, "--rate", "0.8",
                 "--w-size", "2"]) == 2
    # shared flags a subcommand never reads
    for argv in (["exponents", "--state", dsbs_path, "--seed", "1"],
                 ["exponents", "--state", dsbs_path, "--cap", "64"],
                 ["bruteforce", "--state", dsbs_path, "--seed", "1"],
                 ["verify", "--state", dsbs_path],
                 ["verify", "--cap", "64"],
                 ["moderate", "--state", dsbs_path, "--seed", "1"],
                 ["moderate", "--state", dsbs_path, "--cap", "64"],
                 ["rate-window", "--state", dsbs_path, "--seed", "1"]):
        assert main(argv) == 2, argv
