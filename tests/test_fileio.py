from fractions import Fraction

import numpy as np
import pytest

from zklat import catalog
from zklat.errors import PreconditionViolation
from zklat.fileio import (
    dump_code,
    dump_frame,
    dump_lattice,
    dump_seed,
    dump_theta,
    load_code,
    load_frame,
    load_lattice,
    load_seed,
    load_theta,
    read_text,
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
    assert again == seed


def test_lattice_roundtrip():
    lat = catalog.build("D12_plus")
    again = load_lattice(dump_lattice(lat))
    assert again.scale == lat.scale
    assert np.array_equal(again.basis, lat.basis)


def test_frame_roundtrip_reverifies_gram():
    z4 = Lattice(np.eye(4, dtype=np.int64), 1)
    frame = find_frame(z4, 1)
    text = dump_frame(frame)
    again = load_frame(text)
    assert again == frame
    broken = text.replace("1 0 0 0", "1 1 0 0", 1)
    with pytest.raises(PreconditionViolation):
        load_frame(broken)


def test_frame_file_with_a_wrapping_gram_is_rejected():
    with pytest.raises(PreconditionViolation):
        load_frame(f"frame 1 2 1\n{2**32} 1\n-1 {2**32}\n")


def test_theta_roundtrip_with_fractions():
    lat = Lattice(2 * np.eye(2, dtype=np.int64), 4)  # norms are multiples of 1
    th = theta_prefix(lat, 2)
    out = load_theta(dump_theta(th))
    assert out == {q: c for q, c in th.as_pairs()}
    assert load_theta("1/2 24\n") == {Fraction(1, 2): 24}


def test_write_read_text(tmp_path):
    p = tmp_path / "code.txt"
    write_text(p, dump_code(catalog.build("C_13_12")))
    assert load_code(read_text(p)).k == 13
