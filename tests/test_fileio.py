from fractions import Fraction

import numpy as np
import pytest

from zklat import catalog
from zklat.errors import PreconditionViolation, UnknownId
from zklat.fileio import (
    dump_code,
    dump_frame,
    dump_lattice,
    dump_seed,
    dump_theta,
    load,
    load_code,
    load_frame,
    load_lattice,
    load_seed,
    write_text,
)
from zklat.lattice import Lattice, find_frame, theta_prefix


def test_code_roundtrip():
    code = catalog.build("C_13_12")
    again = load_code(dump_code(code))
    assert again.k == code.k and again.generators == code.generators


def test_code_header_validation():
    with pytest.raises(PreconditionViolation):
        load_code("zkcode 4\n1 2\n")
    with pytest.raises(PreconditionViolation):
        load_code("zkcode 4 3\n1 2\n")  # row shorter than header says


def test_seed_roundtrip():
    seed = catalog.build("D6_seed")
    again = load_seed(dump_seed(seed))
    assert (again.k, again.m, again.ell) == (seed.k, seed.m, seed.ell)
    assert np.array_equal(again.matrix, seed.matrix)


def test_lattice_roundtrip():
    lat = catalog.build("D12_plus")
    again = load_lattice(dump_lattice(lat))
    assert again.scale == lat.scale
    assert np.array_equal(again.basis, lat.basis)


@pytest.mark.parametrize("loader, text", [
    (load_lattice, "lattice 2 -1\n1 0\n0 1\n"),
    (load_lattice, "lattice 2 0\n1 0\n0 1\n"),
    (load_frame, "frame -1 4 -1\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"),
])
def test_a_header_scale_or_norm_below_one_is_rejected(loader, text):
    with pytest.raises(PreconditionViolation):
        loader(text)


def test_frame_roundtrip_reverifies_gram():
    z4 = Lattice(np.eye(4, dtype=np.int64), 1)
    frame = find_frame(z4, 1)
    text = dump_frame(frame)
    again = load_frame(text)
    assert dump_frame(again) == text
    broken = text.replace("1 0 0 0", "1 1 0 0", 1)
    with pytest.raises(PreconditionViolation):
        load_frame(broken)


def test_frame_file_with_a_wrapping_gram_is_rejected():
    with pytest.raises(PreconditionViolation):
        load_frame(f"frame 1 2 1\n{2**32} 1\n-1 {2**32}\n")


def test_theta_dump_with_fractions():
    lat = Lattice(np.eye(2, dtype=np.int64), 2)  # Z^2 / sqrt(2): norms are multiples of 1/2
    th = theta_prefix(lat, 1)
    assert th.as_pairs() == [(0, 1), (Fraction(1, 2), 4), (1, 4)]
    assert dump_theta(th) == "# theta prefix up to norm 1\n0 1\n1/2 4\n1 4\n"


def test_write_read_text(tmp_path):
    p = tmp_path / "code.txt"
    write_text(p, dump_code(catalog.build("C_13_12")))
    assert load_code(p.read_text()).k == 13


@pytest.mark.parametrize("loader, text", [
    (load_lattice, "lattice 3 1\n1 0\n0 1\n"),  # two of three rows
    (load_lattice, "lattice 2 1\n1 0\n0 1\n0 0\n"),  # a row too many
    (load_frame, "frame 1 4 1\n1 0 0 0\n0 1 0 0\n"),  # two of four rows
    (load_frame, "frame 1 2 1\n1 0 0\n0 1 0\n"),  # rows of length 3
    (load_code, "zkcode 3 2\n1 2\n1\n"),  # rows of unequal length
])
def test_rows_must_match_the_header(loader, text):
    with pytest.raises(PreconditionViolation):
        loader(text)


def test_seed_file_with_a_row_too_many_is_rejected():
    text = dump_seed(catalog.build("D6_seed"))
    with pytest.raises(PreconditionViolation):
        load_seed(text + " ".join(["0"] * 6) + "\n")


@pytest.mark.parametrize("loader", [load_code, load_seed, load_lattice, load_frame, load])
def test_empty_file_is_a_precondition_violation(loader):
    with pytest.raises(PreconditionViolation):
        loader("# a comment only\n")


def test_load_dispatches_on_the_header_tag():
    for obj, dump in [
        (catalog.build("C_13_12"), dump_code),
        (catalog.build("D6_seed"), dump_seed),
        (find_frame(Lattice(np.eye(4, dtype=np.int64), 1), 1), dump_frame),
    ]:
        assert dump(load(dump(obj))) == dump(obj)
    lat = load(dump_lattice(catalog.build("D12_plus")))
    assert np.array_equal(lat.basis, catalog.build("D12_plus").basis)
    with pytest.raises(UnknownId):
        load("matrix 2\n1 0\n0 1\n")
