import functools
import time

import numpy as np
import pytest

import zklat.lattice
import zklat.shortvec
from zklat import catalog
from zklat.codes import ZkCode, is_self_dual, min_euclidean_weight
from zklat.errors import BudgetExceeded, PreconditionViolation, UnknownId
from zklat.intmat import hnf
from zklat.lattice import Lattice, contains_frame
from zklat.skew import SkewSeed

# these tests prove minima of catalog objects, so each builds them afresh
pytestmark = pytest.mark.usefixtures("fresh_catalog")


def test_every_code_entry_is_self_dual():
    # self-duality doubles as a transcription checksum for the whole table;
    # an odd lift makes each code Type I, the paper's kind
    for cid in catalog.catalog_list("code"):
        code = catalog.build(cid)
        assert is_self_dual(code) and not code.lift().is_even(), cid


def test_every_seed_entry_validates():
    for sid in catalog.catalog_list("skew_seed"):
        seed = catalog.build(sid)
        assert isinstance(seed, SkewSeed)
        m = seed.matrix
        assert np.array_equal(m.T, -m)
        assert np.array_equal(m @ m.T, seed.m * np.eye(m.shape[0], dtype=np.int64))


def test_small_lattices_unimodular_and_odd():
    lids = catalog.catalog_list("lattice")
    assert len(lids) == 12
    for lid in lids:
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


def test_every_lattice_dimension_is_divisible_by_four():
    # frame_report scales a d-frame to every multiple of d by quaternions,
    # which needs 4 | n; scale_frame raises PreconditionViolation otherwise
    for lid in catalog.catalog_list("lattice"):
        assert catalog.build(lid).dim % 4 == 0, lid


def test_frame_report_yes_via_direct_code():
    v = catalog.frame_report("D4_5", 5)
    assert v.status == "yes" and any("C_5_20" in line for line in v.chain)


def test_frame_report_rejects_a_code_with_the_wrong_root_system(monkeypatch):
    # Cp_5_20 is an A5^4 code: same dimension, minimum norm and root count
    # as D4^5, but its root system is 4 x A5, not 5 x D4
    info = catalog.lattice_info("D4_5")
    swapped = catalog.LatticeInfo(
        info.model_code, info.min_norm, {**info.direct_codes, 5: "Cp_5_20"}
    )
    monkeypatch.setitem(catalog._LATTICES, "D4_5", swapped)
    ok, note = catalog._code_fingerprint_ok("D4_5", "Cp_5_20")
    assert not ok and "root-system" in note
    v = catalog.frame_report("D4_5", 5)
    assert not any("catalog code" in line for line in v.chain)


def test_divisors_match_the_linear_scan_and_are_fast_at_large_k():
    for k in range(1, 3000):
        assert catalog._divisors(k) == ([d for d in range(2, k + 1) if k % d == 0] or [1])
    start = time.perf_counter()
    divs = catalog._divisors(10**12)  # trial division to 10^6, not a scan to 10^12
    assert time.perf_counter() - start < 5
    assert len(divs) == 13 * 13 - 1 and divs[0] == 2 and divs[-1] == 10**12
    assert divs == sorted(divs) and all(10**12 % d == 0 for d in divs)


def test_frame_report_rejects_a_norm_below_one():
    with pytest.raises(PreconditionViolation, match="frame norm 0 is not a positive integer"):
        catalog.frame_report("D8_2", 0)
    with pytest.raises(PreconditionViolation, match=r"bound -3 is outside \[0, 2\^62\)"):
        catalog.frame_report("D8_2", -3)


def test_frame_report_no_below_min_norm():
    v = catalog.frame_report("R28_32", 2)
    assert v.status == "no" and "minimum norm" in v.chain[0]


def test_frame_report_no_below_min_norm_by_empty_shell():
    # at search dimensions an exhaustive enumeration, not the annotation, proves it
    v = catalog.frame_report("D12_plus", 1)
    assert v.status == "no" and v.chain == [
        "D12_plus has only 0 vectors of norm 1, fewer than the 2n = 24 a frame needs"
    ]


def test_quadruple_certificate_needs_no_reduction(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a quadruple certificate needs no reduced basis")

    # uncached builds, so no reduced basis is left over from other tests
    monkeypatch.setattr(catalog, "build", catalog.build.__wrapped__)
    monkeypatch.setattr(catalog, "min_norm", forbidden)
    for module in (zklat.shortvec, zklat.lattice):
        monkeypatch.setattr(module, "block_reduce", forbidden)
    v = catalog.frame_report("D12_plus", 21)
    assert v.status == "yes" and v.chain[0].startswith("quadruple")
    assert v.frame.norm_k == 21


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


def recorded_shells(monkeypatch):
    """(basis, bound) of every shell read from now on (one list, appended to)."""
    calls = []
    enumerate_shell = zklat.lattice.enumerate_shell

    def recorded(basis, bound, *args, **kwargs):
        calls.append((basis, bound))
        return enumerate_shell(basis, bound, *args, **kwargs)

    monkeypatch.setattr(zklat.lattice, "enumerate_shell", recorded)
    return calls


def test_frame_report_enumerates_once_per_divisor(monkeypatch):
    calls = recorded_shells(monkeypatch)
    v = catalog.frame_report("A5_4", 2)
    assert v.status == "no" and "exhaustive search" in v.chain[0]
    assert len(calls) == 1


@pytest.mark.parametrize("lid", ["D12_plus", "D8_2", "D4_5", "A5_4", "D20"])
def test_direct_search_decides_every_small_k_at_small_norms(lid, monkeypatch):
    # no cap on the searched norm: each k <= 60 gets a verdict, and the
    # model's shells are read only at small norms (the code fingerprints'
    # root shells live in other lattices, with other bases)
    model = catalog.build(lid)
    calls = recorded_shells(monkeypatch)
    for k in range(1, 61):
        assert catalog.frame_report(lid, k).status in ("yes", "no"), k
    norms = {b // model.scale for basis, b in calls if basis is model.reduced_basis()}
    assert norms and max(norms) <= 7, sorted(norms)


def test_frame_report_unknown_names_the_budget_that_stopped_it(monkeypatch):
    # an overrun is an "unknown", never a "no", and says which budget ran out
    def overrun(*args):
        raise BudgetExceeded("clique search nodes", 11, 10)

    monkeypatch.setattr(catalog, "frame_in_shell", overrun)
    v = catalog.frame_report("A5_4", 2)
    assert v.status == "unknown"
    assert any("clique search nodes: 11 used, budget 10" in line for line in v.chain), v.chain


def test_frame_report_unknown_out_of_reach():
    v = catalog.frame_report("L48", 17)
    assert v.status == "unknown"


@functools.cache
def _frame_report_table():
    # the 12 model lattices x k = 1..50, one Verdict per cell
    return {
        lid: [catalog.frame_report(lid, k) for k in range(1, 51)]
        for lid in catalog.catalog_list("lattice")
    }


def test_frame_report_table_for_k_up_to_50():
    # a lost or a new verdict anywhere in the table shows up here
    tally, unknown = {"frame": 0, "code": 0, "no": 0, "unknown": 0}, {}
    for lid, row in _frame_report_table().items():
        model = catalog.build(lid)
        for k, v in enumerate(row, start=1):
            if v.status == "yes":
                tally["frame" if v.frame is not None else "code"] += 1
                assert v.frame is None or contains_frame(model, v.frame), (lid, k)
            else:
                tally[v.status] += 1
            if v.status == "unknown":
                unknown.setdefault(lid, []).append(k)
    assert tally == {"frame": 490, "code": 60, "no": 27, "unknown": 23}
    assert unknown == {
        "R28_15": [3],
        "L40": [6, 13, 19, 26, 38],
        "L44": [4, 8, 16, 17, 32],
        "L48": [6, 7, 9, 12, 14, 17, 18, 21, 27, 34, 36, 42],
    }


# per model lattice, k = 1..50: (yes with a frame, yes on a code certificate, the "no" k's)
FRAME_REPORT_ROWS = {
    "D12_plus": (47, 2, [1]),
    "D8_2": (46, 3, [1]),
    "D4_5": (45, 4, [1]),
    "A5_4": (40, 8, [1, 2]),
    "D20": (37, 11, [1, 3]),
    "R28_32": (40, 8, [1, 2]),
    "R28_15": (42, 5, [1, 2]),
    "L32_82": (43, 4, [1, 2, 3]),
    "L36": (32, 15, [1, 2, 3]),
    "L40": (42, 0, [1, 2, 3]),
    "L44": (42, 0, [1, 2, 3]),
    "L48": (34, 0, [1, 2, 3, 4]),
}


def test_frame_report_rows_cover_the_catalog():
    assert sorted(FRAME_REPORT_ROWS) == sorted(catalog.catalog_list("lattice"))


@pytest.mark.parametrize("lid", list(FRAME_REPORT_ROWS))
def test_frame_report_row_for_k_up_to_50(lid):
    # which k's of one lattice's row are frames, code certificates or "no"
    frames, codes, no = FRAME_REPORT_ROWS[lid]
    row = _frame_report_table()[lid]
    yes = [v for v in row if v.status == "yes"]
    assert sum(v.frame is not None for v in yes) == frames
    assert len(yes) - frames == codes
    assert [k for k, v in enumerate(row, start=1) if v.status == "no"] == no


def test_every_model_seed_has_its_case_row():
    labels = set()
    for lid in catalog.catalog_list("lattice"):
        seed = catalog.build(catalog._model_seed_id(lid))
        case = catalog.lattice_case(lid)
        assert (seed.k, seed.m, seed.ell) == (case.k, case.m, case.ell), lid
        labels.add(case.label)
    assert labels == set("abcdefgh")


def test_seed_rows_must_give_their_case_m():
    # the D6_seed rows give MM^T = 25 I, but case c has m = 49
    with pytest.raises(PreconditionViolation, match=r"MM\^T != mI"):
        catalog._seed("c", ((0, 2, 2), (0, 1, -4)))


@pytest.mark.parametrize(
    "kind, cls", [("skew_seed", SkewSeed), ("code", ZkCode), ("lattice", Lattice)]
)
def test_every_entry_builds_an_object_of_its_kind(kind, cls):
    ids = catalog.catalog_list(kind)
    assert ids
    for eid in ids:
        assert isinstance(catalog.build(eid), cls), eid
