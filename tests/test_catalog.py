import numpy as np
import pytest

import zklat.lattice
from zklat import catalog
from zklat.codes import is_self_dual, min_euclidean_weight
from zklat.errors import SkewViolation, UnknownId
from zklat.intmat import hnf
from zklat.lattice import Lattice, contains_frame
from zklat.skew import SkewSeed


def test_every_code_entry_is_self_dual():
    # self-duality doubles as a transcription checksum for the whole table
    for cid in catalog.catalog_list("code"):
        code = catalog.build(cid)
        assert is_self_dual(code), cid


def test_every_seed_entry_validates():
    for sid in catalog.catalog_list("skew_seed"):
        seed = catalog.build(sid)
        assert isinstance(seed, SkewSeed)
        m = seed.np_matrix()
        assert np.array_equal(m.T, -m)
        assert np.array_equal(m @ m.T, seed.m * np.eye(m.shape[0], dtype=np.int64))


def test_small_lattices_unimodular_and_odd():
    for lid in ["D12_plus", "D8_2", "D4_5", "A5_4", "D20"]:
        lat = catalog.build(lid)
        assert isinstance(lat, Lattice)
        assert lat.is_unimodular() and not lat.is_even()


def test_expected_weights_on_cheap_codes():
    for cid in ["C_13_12", "C_23_12"]:
        entry = catalog.catalog_get(cid)
        assert min_euclidean_weight(catalog.build(cid)) == entry.expected["d_E"]


def test_build_is_cached():
    assert catalog.build("D4_5") is catalog.build("D4_5")


def test_cached_lattice_bases_are_read_only():
    lat = catalog.build("D12_plus")
    with pytest.raises(ValueError):
        lat.basis[0, 0] = 7
    with pytest.raises(ValueError):
        lat.reduced_basis()[0, 0] = 7


@pytest.mark.parametrize("lid", ["D12_plus", "D8_2", "D4_5", "A5_4", "D20"])
def test_reduced_basis_spans_the_model_lattice(lid):
    lat = catalog.build(lid)
    assert hnf(lat.reduced_basis().tolist()) == hnf(lat.basis.tolist())


def test_unknown_ids_raise():
    with pytest.raises(UnknownId):
        catalog.catalog_get("no_such_entry")
    with pytest.raises(UnknownId):
        catalog.lattice_info("C_13_12")  # a code id, not a lattice id


def test_lattice_info_fields():
    info = catalog.lattice_info("D4_5")
    assert info.model_code == "C_20_3_D10"
    assert info.min_norm == 2 and catalog.lattice_case("D4_5").label == "a"
    assert 5 in info.direct_codes


def test_frame_report_yes_via_direct_code():
    v = catalog.frame_report("D4_5", 5)
    assert v.status == "yes" and any("C_5_20" in line for line in v.chain)


def test_frame_report_no_below_min_norm():
    v = catalog.frame_report("R28_32", 2)
    assert v.status == "no" and "minimum norm" in v.chain[0]


def test_frame_report_no_via_vector_count():
    v = catalog.frame_report("D20", 3)
    assert v.status == "no" and "fewer than" in v.chain[0]


def test_frame_report_scales_a_searched_smaller_frame():
    v = catalog.frame_report("D12_plus", 4)
    assert v.status == "yes"
    assert "direct search found a 2-frame" in v.chain[0]
    assert "quaternion scaling" in v.chain[1]
    assert v.frame.norm_k == 4
    assert contains_frame(catalog.build("D12_plus"), v.frame)


def test_frame_report_enumerates_once_per_divisor(monkeypatch):
    calls = []
    enumerate_ball = zklat.lattice.enumerate_ball

    def counted(*args, **kwargs):
        calls.append(args[1])
        return enumerate_ball(*args, **kwargs)

    monkeypatch.setattr(zklat.lattice, "enumerate_ball", counted)
    v = catalog.frame_report("A5_4", 2)
    assert v.status == "no" and "exhaustive search" in v.chain[0]
    assert len(calls) == 1


def test_frame_report_unknown_out_of_reach():
    v = catalog.frame_report("L48", 17)
    assert v.status == "unknown"


def test_every_model_seed_has_its_case_row():
    labels = set()
    for lid in catalog.catalog_list("lattice"):
        sid = catalog.catalog_get(catalog.lattice_info(lid).model_code).params["seed"]
        seed = catalog.build(sid)
        case = catalog.lattice_case(lid)
        assert (seed.k, seed.m, seed.ell) == (case.k, case.m, case.ell), lid
        labels.add(case.label)
    assert labels == set("abcdefgh")


def test_seed_rows_must_give_their_case_m(monkeypatch):
    # the D6_seed rows give MM^T = 25 I, but case c has m = 49
    entry = catalog.CatalogEntry(
        "D6_as_case_c", "skew_seed", "test entry",
        {"form": "negacirculant", "case": "c", "r_a1": (0, 2, 2), "r_a2": (0, 1, -4)},
    )
    monkeypatch.setitem(catalog._ENTRIES, entry.id, entry)
    with pytest.raises(SkewViolation, match=r"MM\^T != mI"):
        catalog.build(entry.id)
