import re

import numpy as np
import pytest

import zklat.cli
import zklat.lattice
from zklat import bounds, catalog, fileio
from zklat.cli import EXIT_OK, EXIT_REFUTED, EXIT_UNKNOWN, main
from zklat.codes import systematic
from zklat.lattice import Lattice, contains_frame

# these tests prove minima of catalog objects, so each builds them afresh
pytestmark = pytest.mark.usefixtures("fresh_catalog")


def test_verify_code(capsys):
    assert main(["verify", "C_13_12"]) == EXIT_OK
    assert "self-dual = True" in capsys.readouterr().out


def test_verify_seed_and_lattice(capsys):
    assert main(["verify", "D6_seed"]) == EXIT_OK
    assert main(["verify", "D12_plus"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "unimodular = True" in out


def test_unknown_id_is_refuted(capsys):
    assert main(["verify", "nonsense"]) == EXIT_REFUTED
    assert "error:" in capsys.readouterr().err


def test_dmin_prints_classification(capsys):
    assert main(["dmin", "C_13_12"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "d_E = 26" in out and "extremal" in out


def test_dmin_budget_maps_to_unknown(capsys):
    assert main(["dmin", "C_13_12", "--budget", "10"]) == EXIT_UNKNOWN
    assert "budget exceeded" in capsys.readouterr().out


def test_budget_line_prints_used_and_budget(capsys):
    assert main(["dmin", "C_13_12", "--budget", "10"]) == EXIT_UNKNOWN
    line = capsys.readouterr().out
    assert re.fullmatch(r"budget exceeded: enumeration nodes: \d+ used, budget 10\n", line)
    assert main(["theta", "D12_plus", "--max-norm", "4", "--budget", "50"]) == EXIT_UNKNOWN
    line = capsys.readouterr().out
    assert line.startswith("budget exceeded: enumeration nodes: ")
    assert "used, budget 50" in line


def test_dmin_of_the_zero_code_is_an_error(tmp_path, capsys):
    p = tmp_path / "code.txt"
    p.write_text("zkcode 3 4\n0 3 0 6\n")  # every entry is 0 mod 3
    assert main(["dmin", str(p)]) == EXIT_REFUTED
    captured = capsys.readouterr()
    assert "d_E" not in captured.out and "error: " in captured.err


def test_dmin_past_the_bound_table_fails_before_the_walk(tmp_path, capsys, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("d_E was walked before the bound lookup")

    monkeypatch.setattr(zklat.cli, "min_euclidean_weight", no_walk)
    p = tmp_path / "code.txt"
    p.write_text("zkcode 2 50\n" + " ".join(["1"] * 50) + "\n")  # length 50: past the table
    assert main(["dmin", str(p)]) == EXIT_REFUTED
    captured = capsys.readouterr()
    assert captured.err == "error: bound table covers lengths up to 48\n"
    assert "d_E" not in captured.out


def test_dmin_of_a_code_with_dependent_rows(tmp_path, capsys):
    p = tmp_path / "code.txt"
    p.write_text("zkcode 6 2\n1 1\n2 2\n")  # the second row is twice the first
    assert main(["dmin", str(p)]) == EXIT_OK
    assert "d_E = 2 " in capsys.readouterr().out


def test_lattice_of_an_odd_length_self_dual_code(tmp_path, capsys):
    p = tmp_path / "code.txt"
    p.write_text("zkcode 4 3\n2 0 0\n0 2 0\n0 0 2\n")  # {0, 2}^3, whose A_4 is Z^3
    assert main(["lattice", str(p)]) == EXIT_OK
    assert "dim 3, scale 4, unimodular = True" in capsys.readouterr().out


def test_lattice_and_minnorm_from_file(tmp_path, capsys):
    out = tmp_path / "lat.txt"
    assert main(["lattice", "C_13_12", "--out", str(out)]) == EXIT_OK
    assert main(["minnorm", str(out)]) == EXIT_OK
    assert "min norm = 2" in capsys.readouterr().out


def test_minnorm_rejects_a_basis_whose_gram_wraps(tmp_path, capsys):
    # the row (2^32, 0) has norm 2^64, which an int64 Gram reads as 0
    p = tmp_path / "lat.txt"
    p.write_text(f"lattice 2 1\n{2**32} 0\n0 1\n")
    assert main(["minnorm", str(p)]) == EXIT_REFUTED
    captured = capsys.readouterr()
    assert "min norm" not in captured.out and "error:" in captured.err


def test_minnorm_rejects_an_entry_outside_int64(tmp_path, capsys):
    p = tmp_path / "lat.txt"
    p.write_text(f"lattice 2 1\n{2**63} 0\n0 1\n")
    assert main(["minnorm", str(p)]) == EXIT_REFUTED
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    # k/2 = 2^32 + 1 as the one generator: d_E = (2^32 + 1)^2 is beyond int64
    ("dmin", "zkcode 8589934594 1\n4294967297\n"),
    # the lift row (0, k) has norm k^2 > 2^62, so an int64 Gram wraps
    ("dmin", "zkcode 3037000507 2\n1 0\n"),
    ("dmin", "zkcode 18446744073709551629 2\n1 0\n"),  # k beyond int64
    # MM^T = 2^64 I, which an int64 product reads as 0 = m I
    ("lattice", f"skewseed 2 0 1 2\n0 {2**32}\n{-2**32} 0\n"),
    ("lattice", f"skewseed 2 0 1 2\n0 {2**64}\n{-2**64} 0\n"),
    # ell = 2^63 with k = ell^2 + 2: the code's lift holds k on its diagonal
    ("lattice", f"skewseed {2**126 + 2} 1 {2**63} 2\n0 1\n-1 0\n"),
])
def test_a_row_beyond_the_norm_cap_is_an_error_line(command, text, tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text(text)
    assert main([command, str(p)]) == EXIT_REFUTED
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "row of norm >= 2^62" in captured.err


def test_frame_build_past_the_norm_cap_is_an_error_line(capsys):
    # a = 3 * 2^62 meets D6_seed's congruences; its rows would have norm a^2
    assert main(["frame-build", "D6_seed", "--abcd", f"{3 * 2**62},0,0,0"]) == EXIT_REFUTED
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: norm bound")


def test_frame_scale_past_the_norm_cap_is_an_error_line(tmp_path, capsys):
    lat, fr = tmp_path / "z4.txt", tmp_path / "frame.txt"
    lat.write_text("lattice 4 1\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    assert main(["frame-find", str(lat), "--k", "1", "--out", str(fr)]) == EXIT_OK
    capsys.readouterr()
    assert main(["frame-scale", str(fr), "--m", str(2**127)]) == EXIT_REFUTED
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: norm bound")


def test_theta_output(tmp_path, capsys):
    out = tmp_path / "theta.txt"
    assert main(["theta", "D12_plus", "--max-norm", "2", "--out", str(out)]) == EXIT_OK
    assert "\n2 264\n" in out.read_text()


def test_shadow(capsys):
    assert main(["shadow", "D12_plus"]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["neighbors", "D8_2"],
    ["two-neighbor", "D8_2", "--x", "0", "--y", "0"],
])
def test_an_unknown_command_is_refuted(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_REFUTED  # not EXIT_UNKNOWN: nothing was searched
    assert "invalid choice" in capsys.readouterr().err


def test_a_seed_token_names_its_construction_a_lattice(capsys):
    assert main(["minnorm", "D6_seed"]) == EXIT_OK
    assert capsys.readouterr().out == "min norm = 2\n"


def test_frame_build_and_scale(tmp_path, capsys):
    fr = tmp_path / "frame.txt"
    assert main(["frame-build", "D6_seed", "--abcd", "0,0,3,0", "--out", str(fr)]) == EXIT_OK
    assert "3-frame" in capsys.readouterr().out
    assert main(["frame-scale", str(fr), "--m", "2"]) == EXIT_OK
    assert "6-frame" in capsys.readouterr().out


def test_frame_scale_by_a_large_power_of_two(tmp_path, capsys):
    lat, fr = tmp_path / "z4.txt", tmp_path / "frame.txt"
    lat.write_text("lattice 4 1\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    assert main(["frame-find", str(lat), "--k", "1", "--out", str(fr)]) == EXIT_OK
    assert main(["frame-scale", str(fr), "--m", str(2**39)]) == EXIT_OK
    assert f"{2**39}-frame" in capsys.readouterr().out


def test_frame_find_exit_codes(tmp_path, capsys):
    z2 = Lattice(np.eye(2, dtype=np.int64), 1)
    p = tmp_path / "z2.txt"
    fileio.write_text(p, fileio.dump_lattice(z2))
    assert main(["frame-find", str(p), "--k", "1"]) == EXIT_OK
    assert main(["frame-find", str(p), "--k", "3"]) == EXIT_REFUTED
    assert "none (exhaustive)" in capsys.readouterr().out


def test_rep_search(capsys):
    assert main(["rep-search", "--case", "a", "--p", "3"]) == EXIT_OK
    assert main(["rep-search", "--case", "a", "--p", "7"]) == EXIT_REFUTED
    assert "none (exhaustive)" in capsys.readouterr().out


def test_star(capsys):
    assert main(["star", "--row", "D4_5", "--k", "11"]) == EXIT_OK
    # every prime factor of 35 sits in the excluded basis for this row
    assert main(["star", "--row", "D4_5", "--k", "35"]) == EXIT_REFUTED


def test_report_exit_codes(capsys):
    assert main(["report", "D4_5", "--k", "5"]) == EXIT_OK
    assert main(["report", "D20", "--k", "3"]) == EXIT_REFUTED
    assert main(["report", "L48", "--k", "17"]) == EXIT_UNKNOWN


def test_report_writes_the_frame(tmp_path, capsys):
    out = tmp_path / "frame.txt"
    assert main(["report", "D12_plus", "--k", "4", "--out", str(out)]) == EXIT_OK
    frame = fileio.load_frame(out.read_text())
    assert frame.norm_k == 4
    assert contains_frame(catalog.build("D12_plus"), frame)


def test_report_out_says_when_it_writes_no_frame(tmp_path, capsys):
    # k = 13 rests on the code certificate of C_13_12: a "yes" with no explicit frame
    out = tmp_path / "frame.txt"
    assert main(["report", "D12_plus", "--k", "13", "--out", str(out)]) == EXIT_OK
    assert not out.exists()
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"no frame file written to {out}: the verdict carries no explicit frame"


def test_bound(capsys):
    assert main(["bound", "--n", "20", "--k", "5"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("10")
    assert main(["bound", "--n", "48", "--k", "4", "--type1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("20")


def test_reproduce_fig1(capsys):
    assert main(["reproduce", "fig1"]) == EXIT_OK
    assert "  Cp_4_20: self-dual True, Type I, d_E 8 (expected 8) ok\n" in capsys.readouterr().out


def test_reproduce_fails_a_type_ii_code(capsys, monkeypatch):
    # (I | J - I) over Z_2 is the extended Hamming code: self-dual, and its lift is E8, even
    hamming = systematic(2, 1 - np.eye(4, dtype=np.int64))
    build = catalog.build
    monkeypatch.setattr(catalog, "build", lambda cid: hamming if cid == "Cp_4_20" else build(cid))
    assert main(["reproduce", "fig1"]) == EXIT_REFUTED
    assert "  Cp_4_20: self-dual True, Type II FAIL, d_E 4" in capsys.readouterr().out


def test_reproduce_table9_lists_only_type_i_codes(capsys):
    assert main(["reproduce", "table9"]) == EXIT_OK
    out = capsys.readouterr().out
    for cid in ("C_7_48", "C_9_48", "C_48_5_D24"):
        assert f"  {cid}: self-dual True, Type I\n" in out
    assert "FAIL" not in out and "C_4_48" not in out


def test_reproduce_table1(capsys):
    assert main(["reproduce", "table1"]) == EXIT_OK
    assert "D24_seed: ok" in capsys.readouterr().out


def test_reproduce_table3_checks_every_d_e(capsys):
    assert main(["reproduce", "table3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "  C_13_20: self-dual True, Type I, d_E 26 (expected 26) ok\n" in out
    assert "FAIL" not in out


# a budget the D12_plus proof (119 nodes on its reduced centred lift, walked
# one norm step below each best) meets and D20's (170) does not
TABLE2_BUDGET = "150"


def test_reproduce_table2_reports_every_row_under_a_budget(capsys):
    assert main(["reproduce", "table2", "--budget", TABLE2_BUDGET]) == EXIT_UNKNOWN
    out = capsys.readouterr().out
    assert "  D12_plus: min norm 2 (expected 2) ok, extremal\n" in out
    for lid in ("D20", "R28_15"):  # rows after the first overrun are reported too
        assert re.search(
            rf"  {lid}: min norm unknown \(budget exceeded: enumeration nodes: \d+ used, "
            rf"budget {TABLE2_BUDGET}\)\n", out
        )
    assert "  L48: skipped" in out


def test_reproduce_table2_fails_before_it_is_unknown(capsys, monkeypatch):
    wrong = catalog.LatticeInfo("C_12_3_D6", 3, {})
    info = catalog.lattice_info
    monkeypatch.setattr(catalog, "lattice_info", lambda lid: wrong if lid == "D12_plus" else info(lid))
    assert main(["reproduce", "table2", "--budget", TABLE2_BUDGET]) == EXIT_REFUTED
    out = capsys.readouterr().out
    assert "  D12_plus: min norm 2 (expected 3) FAIL, extremal\n" in out
    assert "D20: min norm unknown" in out


def test_reproduce_table2_says_how_far_each_minimum_is_from_the_bound(capsys):
    # the unimodular bound is 2 up to dim 23 and 4 at dim 28
    assert main(["reproduce", "table2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "  D20: min norm 2 (expected 2) ok, extremal\n" in out
    for lid in ("R28_32", "R28_15"):
        assert f"  {lid}: min norm 3 (expected 3) ok, near-extremal\n" in out


def test_reproduce_table2_fails_a_minimum_two_below_the_bound(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "unimodular_min_norm_bound", lambda n: 4)
    assert main(["reproduce", "table2", "--budget", TABLE2_BUDGET]) == EXIT_REFUTED
    assert "  D12_plus: min norm 2 (expected 2) ok, 2 below the bound FAIL\n" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize("argv", [
    ["dmin", "C_13_12"],
    ["minnorm", "D8_2"],
    ["theta", "D8_2", "--max-norm", "1"],
    ["frame-find", "D8_2", "--k", "2"],
    ["reproduce", "table2"],
])
@pytest.mark.parametrize("budget", ["-1", "x"])
def test_budget_must_be_a_non_negative_integer(argv, budget, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--budget", budget])
    assert info.value.code == EXIT_REFUTED  # not EXIT_UNKNOWN: nothing was searched
    captured = capsys.readouterr()
    assert f"error: argument --budget: '{budget}' is not a non-negative integer" in captured.err
    assert "budget exceeded" not in captured.out


def test_malformed_file_is_an_error(tmp_path, capsys):
    texts = [
        "",
        "# nothing here\n\n",
        "zkcode 3 4\n",  # no generator rows
        "lattice two 1\n1 0\n0 1\n",
        "zkcode 3 2\n1 x\n",
    ]
    p = tmp_path / "in.txt"
    for text in texts:
        p.write_text(text)
        assert main(["lattice", str(p)]) == EXIT_REFUTED, text
        assert "error:" in capsys.readouterr().err


def test_shadow_of_non_unimodular_lattice_is_an_error(tmp_path, capsys):
    p = tmp_path / "lat.txt"
    fileio.write_text(p, fileio.dump_lattice(Lattice(np.array([[1, 0], [0, 2]]), 1)))
    assert main(["shadow", str(p)]) == EXIT_REFUTED
    assert "error:" in capsys.readouterr().err


def test_lattice_file_with_a_missing_row_is_an_error(tmp_path, capsys):
    p = tmp_path / "lat.txt"
    p.write_text("lattice 3 1\n1 0\n0 1\n")
    assert main(["lattice", str(p)]) == EXIT_REFUTED
    captured = capsys.readouterr()
    assert "error:" in captured.err and "unimodular" not in captured.out


def test_negative_theta_bound_is_an_error_line(capsys):
    assert main(["theta", "D12_plus", "--max-norm", "-1"]) == EXIT_REFUTED
    captured = capsys.readouterr()
    assert "error:" in captured.err and "[0, 2^62)" in captured.err


def test_bounds_are_checked_before_the_basis_is_reduced(tmp_path, capsys, monkeypatch):
    def no_reduction(basis):
        raise AssertionError("block_reduce ran before the bound check")

    monkeypatch.setattr(zklat.lattice, "block_reduce", no_reduction)
    p = tmp_path / "lat.txt"  # a fresh lattice: no reduced basis cached yet
    fileio.write_text(p, fileio.dump_lattice(catalog.build("L48")))
    for argv in (["theta", str(p), "--max-norm", "-1"], ["frame-find", str(p), "--k", "-1"]):
        assert main(argv) == EXIT_REFUTED
        captured = capsys.readouterr()
        assert "error:" in captured.err and "[0, 2^62)" in captured.err


def test_singular_lattice_file_is_an_error_line(tmp_path, capsys):
    # the file's lattice is refused as it is read, whatever the command
    p = tmp_path / "lat.txt"
    p.write_text("lattice 2 1\n1 2\n2 4\n")
    for argv in (["minnorm", str(p)], ["theta", str(p), "--max-norm", "2"], ["lattice", str(p)]):
        assert main(argv) == EXIT_REFUTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: basis rows are linearly dependent: no lattice basis\n"


@pytest.mark.parametrize("argv, message", [
    (["dmin", "D8_2"], "'D8_2' is a Lattice, not a ZkCode"),
    (["frame-build", "C_13_12", "--abcd", "1,0,0,0"], "is a ZkCode, not a SkewSeed"),
    (["frame-scale", "D8_2", "--m", "2"], "is a Lattice, not a Frame"),
    (["frame-build", "D6_seed", "--abcd", "1,2,3"], "--abcd takes 4 integers, not '1,2,3'"),
    (["frame-build", "D6_seed", "--abcd", "1,2,x,3"], "--abcd takes 4 integers, not '1,2,x,3'"),
    (["frame-find", "D8_2", "--k", "0"], "frame norm 0 is not a positive integer"),
    (["report", "D8_2", "--k", "0"], "frame norm 0 is not a positive integer"),
    (["report", "D8_2", "--k", "-1"], "norm bound -1 is outside [0, 2^62)"),
])
def test_wrong_input_is_an_error_line(argv, message, capsys):
    assert main(argv) == EXIT_REFUTED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, text", [
    (["minnorm"], "lattice 2 -1\n1 0\n0 1\n"),
    (["minnorm"], "lattice 2 0\n1 0\n0 1\n"),
    (["frame-scale", "--m", "2"], "frame -1 4 -1\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"),
])
def test_a_scale_or_norm_below_one_is_an_error_line(argv, text, tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text(text)
    assert main([argv[0], str(p), *argv[1:]]) == EXIT_REFUTED
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
