import pytest

from zklat.bounds import BoundProfile, classify, d_E_upper_bound, unimodular_min_norm_bound
from zklat.catalog import build, catalog_list, lattice_info
from zklat.errors import PreconditionViolation


@pytest.mark.parametrize(
    "n,k,expect",
    [
        (12, 3, 6),
        (16, 4, 8),
        (20, 5, 10),
        (20, 23, 46),
        (22, 2, 6),
        (23, 4, 12),
        (23, 3, 6),  # the exception needs k >= 4
        (24, 2, 8),
        (28, 7, 28),
        (36, 6, 24),
        (47, 4, 20),
        (48, 5, 30),
    ],
)
def test_d_e_upper_bound_values(n, k, expect):
    assert d_E_upper_bound(n, k).value == expect


def test_type_one_strengthenings():
    assert d_E_upper_bound(24, 4, type_one=True).value == 12
    assert d_E_upper_bound(28, 7, type_one=True).value == 21
    assert d_E_upper_bound(48, 4, type_one=True).value == 20
    # strengthening only applies when it actually lowers the bound
    assert d_E_upper_bound(22, 2, type_one=True).value == 6


def test_bound_monotone_in_k():
    for n in [12, 20, 28, 36, 48]:
        vals = [d_E_upper_bound(n, k).value for k in range(2, 30)]
        assert vals == sorted(vals)


def test_bound_rule_strings():
    prof = d_E_upper_bound(12, 3)
    assert isinstance(prof, BoundProfile) and "general" in prof.rule
    assert "exception" in d_E_upper_bound(23, 5).rule


def test_bound_domain_errors():
    with pytest.raises(PreconditionViolation, match="bound table covers lengths up to 48"):
        d_E_upper_bound(49, 2)
    with pytest.raises(PreconditionViolation):
        d_E_upper_bound(0, 2)
    with pytest.raises(PreconditionViolation):
        d_E_upper_bound(12, 1)


def test_classify():
    assert classify(20, 5, 10) == "extremal"
    assert classify(20, 5, 5) == "near_extremal"
    assert classify(20, 5, 0) == "neither"
    assert classify(28, 2, 6) == "near_extremal"
    with pytest.raises(PreconditionViolation):
        classify(20, 5, 15)


@pytest.mark.parametrize("lid", catalog_list("lattice"))
def test_catalog_min_norms_respect_the_unimodular_bound(lid):
    info = lattice_info(lid)
    assert info.min_norm <= unimodular_min_norm_bound(build(lid).dim)


def test_unimodular_min_norm_bound():
    assert unimodular_min_norm_bound(12) == 2
    assert unimodular_min_norm_bound(23) == 3
    assert unimodular_min_norm_bound(24) == 4
    assert unimodular_min_norm_bound(36) == 4
    assert unimodular_min_norm_bound(46) == 4
    assert unimodular_min_norm_bound(47) == 5  # 2 floor(n/24) + 3 at n = 23 (mod 24)
    assert unimodular_min_norm_bound(48) == 6
    with pytest.raises(PreconditionViolation, match="bound table covers dimensions up to 48"):
        unimodular_min_norm_bound(49)
