"""Embedded reference data: every explicit skew seed, code, and named
lattice used by the library's reproduction suite, plus the combined
frame-existence report.

Each entry carries a `provenance` string naming the reference table or
figure the raw numbers were transcribed from, so a failing check points
back at the data source.  Construction parameters are stored verbatim
(signed integers for seeds; digit strings for the Z4 block matrices);
all validity checks happen in the builders, never here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from .arith import REPRESENTATION_CASES, FrameVerdict, RepresentationCase, scale_frame
from .codes import (
    build_bordered_circulant,
    build_four_negacirculant,
    build_z4_two_block,
)
from .errors import BudgetExceeded, MembershipViolation, UnknownId
from .lattice import (
    Frame,
    construction_a,
    contains_frame,
    frame_in_shell,
    min_norm,
    norm_shell,
)
from .skew import (
    SkewSeed,
    build_code_from_skew,
    build_frame,
    build_paley_skew,
    build_skew_negacirculant,
    search_quadruple,
)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str  # "code" | "skew_seed" | "lattice"
    provenance: str
    params: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)


_ENTRIES: dict[str, CatalogEntry] = {}


def _add(entry: CatalogEntry) -> None:
    assert entry.id not in _ENTRIES, entry.id
    _ENTRIES[entry.id] = entry


def catalog_get(entry_id: str) -> CatalogEntry:
    try:
        return _ENTRIES[entry_id]
    except KeyError:
        raise UnknownId(f"no catalog entry named {entry_id!r}") from None


def catalog_list(kind: str | None = None) -> list[str]:
    return [e.id for e in _ENTRIES.values() if kind is None or e.kind == kind]


# ---------------------------------------------------------------------------
# skew seeds (negacirculant pairs and bordered quadratic-residue matrices)
# ---------------------------------------------------------------------------

# Each seed names its representation case; the case row of
# arith.REPRESENTATION_CASES supplies (k, m, ell), and the seed's
# constructor checks MM^T = mI against the transcribed rows.

_SEED_ROWS = {
    # id: (case, r_A1, r_A2) -- negacirculant form
    "D6_seed": ("a", (0, 2, 2), (0, 1, -4)),
    "D10_seed": ("a", (0, 0, 2, 2, 0), (1, 2, 2, -2, 2)),
    "Dp10_seed": ("a", (0, 0, 0, 0, 0), (-3, -2, 2, -2, 2)),
    "Dpp10_seed": ("c", (0, 0, 3, 3, 0), (-2, -3, 4, -1, 1)),
    "D14_seed": ("a", (0, 2, 1, 0, 0, 1, 2), (-1, -2, 1, -2, 2, 1, 0)),
    "Dp14_seed": ("d", (0, 0, 2, -1, -1, 2, 0), (-2, -1, -2, 0, -1, -1, -2)),
    "D16_seed": ("e", (0, 1, 1, 0, 1, 0, 1, 1), (1, 1, 1, -1, -1, 2, -1, 0)),
    "D18_seed": ("f", (0, 1, -3, 0, 2, 2, 0, -3, 1), (-2, 2, -1, 2, 1, 2, 1, 1, 1)),
    "D22_seed": (
        "d",
        (0, 0, -1, 1, 0, 0, 0, 0, 1, -1, 0),
        (1, 0, -2, 1, 1, 1, 2, 1, 0, 2, -2),
    ),
    "D24_seed": (
        "h",
        (0, 1, 1, 1, 2, -1, 1, -1, 2, 1, 1, 1),
        (-2, -1, 2, -1, -1, -2, 0, 1, 0, 2, -1, -1),
    ),
}

_PALEY_SEEDS = {
    # id: case -- the bordered quadratic-residue matrix of order m + 1
    "P8_seed": "b",
    "P20_seed": "g",
}

for _sid, (_case, _r1, _r2) in _SEED_ROWS.items():
    _add(CatalogEntry(
        _sid, "skew_seed",
        "reference table: skew seeds for the frame construction",
        {"form": "negacirculant", "case": _case, "r_a1": _r1, "r_a2": _r2},
    ))
for _sid, _case in _PALEY_SEEDS.items():
    _add(CatalogEntry(
        _sid, "skew_seed",
        "reference table: skew seeds for the frame construction",
        {"form": "paley", "case": _case},
    ))


# ---------------------------------------------------------------------------
# four-negacirculant codes (generator (I | A B ; -B^T A^T))
# ---------------------------------------------------------------------------

_NEGA_CODES = {
    # id: (k, r_A, r_B, provenance tag, expected d_E or None)
    "C_13_12": (13, (0, 1, 6), (2, 3, 1), "length-12 codes", 26),
    "C_23_12": (23, (0, 1, 18), (7, 4, 0), "length-12 codes", 46),
    "C_7_16": (7, (0, 0, 1, 1), (1, 3, 1, 0), "length-16 code", 14),
    "C_5_20": (5, (0, 0, 0, 1, 1), (1, 4, 2, 1, 0), "extremal length-20 table", 10),
    "C_7_20": (7, (0, 0, 0, 1, 6), (3, 0, 1, 1, 0), "extremal length-20 table", 14),
    "C_13_20": (13, (0, 0, 0, 1, 1), (10, 3, 2, 1, 0), "extremal length-20 table", 26),
    "C_23_20": (23, (0, 0, 0, 1, 18), (7, 4, 0, 0, 0), "extremal length-20 table", 46),
    "Cp_5_20": (5, (0, 0, 0, 1, 4), (3, 1, 4, 1, 0), "extremal length-20 table", 10),
    "Cp_7_20": (7, (0, 0, 0, 1, 5), (1, 5, 3, 1, 0), "extremal length-20 table", 14),
    "Cp_13_20": (13, (0, 0, 0, 1, 4), (4, 0, 3, 3, 0), "extremal length-20 table", 26),
    "Cp_23_20": (23, (0, 0, 0, 1, 12), (3, 5, 7, 1, 0), "extremal length-20 table", 46),
    "Cpp_7_20": (7, (0, 0, 0, 1, 4), (1, 3, 2, 3, 1), "extremal length-20 table", 14),
    "Cpp_9_20": (9, (0, 0, 0, 1, 3), (1, 2, 4, 2, 6), "extremal length-20 table", 18),
    "Cpp_11_20": (11, (0, 0, 0, 1, 8), (5, 6, 6, 3, 2), "extremal length-20 table", 22),
    "Cpp_19_20": (19, (0, 0, 0, 1, 12), (14, 12, 11, 1, 0), "extremal length-20 table", 38),
    "Cpp_29_20": (29, (0, 0, 0, 1, 21), (7, 11, 16, 1, 0), "extremal length-20 table", 58),
    "C_5_28": (5, (0, 0, 0, 1, 3, 4, 2), (3, 1, 2, 0, 3, 4, 0), "near-extremal length-28 table", 15),
    "C_7_28": (7, (0, 1, 2, 2, 4, 2, 3), (2, 2, 4, 0, 4, 1, 2), "near-extremal length-28 table", 21),
    "C_13_28": (13, (0, 0, 0, 1, 0, 9, 1), (5, 1, 3, 7, 7, 1, 4), "near-extremal length-28 table", 39),
    "C_23_28": (23, (0, 0, 0, 1, 12, 1, 1), (3, 19, 7, 5, 14, 21, 17), "near-extremal length-28 table", 69),
    "Cp_17_28": (17, (0, 0, 0, 1, 13, 14, 2), (10, 1, 1, 9, 16, 11, 15), "near-extremal length-28 table", 51),
    "C_6_32": (6, (0, 0, 1, 2, 2, 2, 1, 2), (1, 0, 5, 5, 1, 1, 3, 3), "extremal length-32 table", 24),
    "C_9_32": (9, (0, 0, 1, 5, 0, 6, 0, 1), (0, 6, 2, 2, 7, 6, 1, 7), "extremal length-32 table", 36),
    "C_5_36": (5, (0, 1, 1, 2, 3, 2, 0, 2, 3), (1, 1, 0, 2, 0, 3, 4, 0, 4), "extremal length-36 table", 20),
    "C_7_36": (7, (0, 1, 6, 2, 3, 3, 6, 4, 5), (4, 3, 3, 6, 2, 4, 3, 0, 3), "extremal length-36 table", 28),
    "C_9_36": (9, (0, 1, 0, 5, 5, 0, 0, 0, 3), (0, 2, 3, 3, 4, 5, 5, 7, 3), "extremal length-36 table", 36),
    "C_9_40": (9, (0, 0, 1, 0, 5, 8, 3, 0, 4, 4), (0, 5, 0, 0, 5, 6, 7, 2, 5, 8), "extremal length-40 table", 36),
    "C_13_40": (13, (0, 0, 1, 4, 10, 5, 1, 10, 11, 4), (11, 4, 4, 6, 7, 12, 11, 7, 2, 8), "extremal length-40 table", 52),
    "C_19_40": (19, (0, 0, 1, 2, 14, 16, 17, 1, 0, 13), (10, 2, 15, 2, 18, 16, 9, 15, 12, 0), "extremal length-40 table", 76),
    "C_9_44": (9, (0, 0, 0, 0, 1, 0, 1, 4, 0, 8, 0), (7, 0, 7, 1, 8, 8, 2, 8, 1, 5, 1), "extremal length-44 table", 36),
    "C_17_44": (17, (0, 0, 0, 0, 1, 13, 7, 13, 11, 16, 13), (12, 14, 8, 14, 7, 12, 14, 7, 14, 14, 7), "extremal length-44 table", 68),
    "C_7_48": (7, (0, 1, 6, 3, 0, 2, 0, 2, 4, 2, 5, 3), (3, 6, 1, 5, 4, 6, 0, 5, 0, 5, 1, 5), "near-extremal length-48 table", 35),
    "C_9_48": (9, (0, 1, 2, 4, 6, 1, 6, 2, 2, 0, 3, 0), (7, 2, 5, 1, 6, 8, 4, 1, 2, 2, 8, 4), "near-extremal length-48 table", 45),
}

for _cid, (_k, _ra, _rb, _tag, _de) in _NEGA_CODES.items():
    _add(CatalogEntry(
        _cid, "code", f"reference table: {_tag}, row {_cid}",
        {"form": "four_negacirculant", "k": _k, "r_a": _ra, "r_b": _rb},
        {"d_E": _de} if _de is not None else {},
    ))


# ---------------------------------------------------------------------------
# Z4 two-block codes (figures; digit strings transcribed verbatim)
# ---------------------------------------------------------------------------

_Z4_CODES = {
    "Cp_4_20": {
        "top": [
            "11 220113303", "00 021012300", "10 222120030",
            "01 031321330", "01 232220201", "11 231021312",
            "00 023031002", "10 230133321", "11 333130022",
        ],
        "two_d": ["202202200", "220022200"],
        "tag": "figure: length-20 block generator",
        "d_E": 8,
    },
    "C_4_28": {
        "top": [
            "00 3221032113010", "00 2312302202000", "01 1011113132031",
            "01 2021011201031", "10 3033332032202", "00 2220031132311",
            "00 1130232110223", "11 2213122020013", "01 3200201111201",
            "01 3133230220230", "10 3111000202123", "10 3011332120200",
            "10 3331011112112",
        ],
        "two_d": ["2220022000000", "0022222000000"],
        "tag": "figure: length-28 block generators",
        "d_E": 12,
    },
    "Cp_4_28": {
        "top": [
            "01 1023301203302", "01 1022200000021", "01 1130203022312",
            "11 1202303012212", "00 2321232113032", "01 0002112332213",
            "11 1113323310300", "00 3321000023111", "00 1210231221321",
            "11 2012013002211", "11 1010001123020", "11 2203101320001",
            "00 3302011030033",
        ],
        "two_d": ["0002202020200", "2220222202200"],
        "tag": "figure: length-28 block generators",
        "d_E": 12,
    },
    "C_4_36": {
        "top": [
            "0100 1203131221301121", "1011 1011202100200000",
            "1010 2020221222311322", "0101 1311223022101123",
            "1110 0022223222133220", "0110 0102101300313130",
            "0100 1003131232103103", "0001 0212210231101002",
            "1101 3311103322131110", "0101 3033123233020103",
            "0101 1320133200323130", "0100 2002221022321133",
            "0101 3211333002312322", "0101 1031113220233320",
            "0101 0103111200301112", "1110 2222020200331300",
        ],
        "two_d": [
            "0020020000222022", "0200202000000220",
            "2222220000020000", "2022000000000000",
        ],
        "tag": "figure: length-36 block generator",
        "d_E": 16,
    },
}

for _cid, _d in _Z4_CODES.items():
    _add(CatalogEntry(
        _cid, "code", f"reference {_d['tag']}, code {_cid}",
        {"form": "z4_two_block", "top": tuple(_d["top"]), "two_d": tuple(_d["two_d"])},
        {"d_E": _d["d_E"]},
    ))

_add(CatalogEntry(
    "C_4_48", "code",
    "reference data: length-48 bordered-circulant code",
    {
        "form": "bordered_circulant", "k": 4,
        "first_row": (1, 1, 3, 0, 3, 3, 1, 2, 0, 1, 3, 2, 3, 0, 0, 3, 3, 2, 1, 2, 1, 1, 0),
    },
    {"d_E": 20},
))

# codes generated by the skew seeds (generator (I | M + ell I) mod k)
_SEED_CODES = {
    "C_12_3_D6": "D6_seed",
    "C_16_4_P8": "P8_seed",
    "C_20_3_D10": "D10_seed",
    "C_20_3_Dp10": "Dp10_seed",
    "C_20_5_Dpp10": "Dpp10_seed",
    "C_28_3_D14": "D14_seed",
    "C_28_5_Dp14": "Dp14_seed",
    "C_32_4_D16": "D16_seed",
    "C_36_6_D18": "D18_seed",
    "C_40_4_P20": "P20_seed",
    "C_44_5_D22": "D22_seed",
    "C_48_5_D24": "D24_seed",
}

for _cid, _sid in _SEED_CODES.items():
    _add(CatalogEntry(
        _cid, "code", f"code generated by the skew seed {_sid}",
        {"form": "from_seed", "seed": _sid},
    ))


# ---------------------------------------------------------------------------
# named lattices (models are Construction A applied to a seed code)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeInfo:
    model_code: str          # catalog id of a seed code; Construction A of it is the model
    min_norm: int            # published (and, at desk scale, re-verified) minimum norm
    direct_codes: dict       # modulus -> catalog code id with matching lattice


_LATTICES: dict[str, LatticeInfo] = {
    # id: (model code, minimum norm, direct codes); the representation case
    # is the model seed's (see lattice_case)
    "D12_plus": LatticeInfo("C_12_3_D6", 2, {13: "C_13_12", 23: "C_23_12"}),
    "D8_2": LatticeInfo("C_16_4_P8", 2, {7: "C_7_16"}),
    "D4_5": LatticeInfo(
        "C_20_3_D10", 2, {5: "C_5_20", 7: "C_7_20", 13: "C_13_20", 23: "C_23_20"}
    ),
    "A5_4": LatticeInfo(
        "C_20_3_Dp10", 2,
        {4: "Cp_4_20", 5: "Cp_5_20", 7: "Cp_7_20", 13: "Cp_13_20", 23: "Cp_23_20"},
    ),
    "D20": LatticeInfo(
        "C_20_5_Dpp10", 2,
        {7: "Cpp_7_20", 9: "Cpp_9_20", 11: "Cpp_11_20", 19: "Cpp_19_20", 29: "Cpp_29_20"},
    ),
    "R28_32": LatticeInfo(
        "C_28_3_D14", 3,
        {4: "C_4_28", 5: "C_5_28", 7: "C_7_28", 13: "C_13_28", 23: "C_23_28"},
    ),
    "R28_15": LatticeInfo("C_28_5_Dp14", 3, {4: "Cp_4_28", 17: "Cp_17_28"}),
    "L32_82": LatticeInfo("C_32_4_D16", 4, {6: "C_6_32", 9: "C_9_32"}),
    "L36": LatticeInfo(
        "C_36_6_D18", 4, {4: "C_4_36", 5: "C_5_36", 7: "C_7_36", 9: "C_9_36"}
    ),
    "L40": LatticeInfo("C_40_4_P20", 4, {}),
    "L44": LatticeInfo("C_44_5_D22", 4, {}),
    "L48": LatticeInfo("C_48_5_D24", 5, {}),
}

_THETA_PREFIXES = {
    # norm -> count, verified against the published prefixes
    "D20": {2: 760, 4: 77560, 5: 524288},
    "L36": {4: 42840, 5: 1916928},
}

for _lid, _info in _LATTICES.items():
    _add(CatalogEntry(
        _lid, "lattice",
        f"reference table: named unimodular lattices, row {_lid}",
        {"model_code": _info.model_code},
        {
            "min_norm": _info.min_norm,
            **({"theta": _THETA_PREFIXES[_lid]} if _lid in _THETA_PREFIXES else {}),
        },
    ))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _parse_digit_rows(rows: tuple[str, ...]) -> list[list[int]]:
    return [[int(ch) for ch in row.replace(" ", "")] for row in rows]


@lru_cache(maxsize=None)
def build(entry_id: str):
    """Construct the catalog object (ZkCode, SkewSeed, or Lattice)."""
    entry = catalog_get(entry_id)
    p = entry.params
    if entry.kind == "skew_seed":
        case = REPRESENTATION_CASES[p["case"]]
        if p["form"] == "paley":
            mat = build_paley_skew(case.m).matrix
        else:
            mat = build_skew_negacirculant(p["r_a1"], p["r_a2"])
        return SkewSeed(mat, k=case.k, m=case.m, ell=case.ell)
    if entry.kind == "code":
        form = p["form"]
        if form == "four_negacirculant":
            return build_four_negacirculant(p["k"], p["r_a"], p["r_b"])
        if form == "z4_two_block":
            top = _parse_digit_rows(p["top"])
            two_d = _parse_digit_rows(p["two_d"])
            a, b = len(top), len(two_d)
            bottom = [[2 * (i == j) for j in range(b)] + row for i, row in enumerate(two_d)]
            return build_z4_two_block(a, b, top, bottom)
        if form == "bordered_circulant":
            return build_bordered_circulant(p["k"], p["first_row"])
        if form == "from_seed":
            return build_code_from_skew(build(p["seed"]))
        raise UnknownId(f"unknown code form {form!r}")
    if entry.kind == "lattice":
        return construction_a(build(p["model_code"]))
    raise UnknownId(f"unknown catalog kind {entry.kind!r}")


def lattice_info(lattice_id: str) -> LatticeInfo:
    if lattice_id not in _LATTICES:
        raise UnknownId(f"no catalog lattice named {lattice_id!r}")
    return _LATTICES[lattice_id]


def _model_seed_id(lattice_id: str) -> str:
    return _ENTRIES[lattice_info(lattice_id).model_code].params["seed"]


def lattice_case(lattice_id: str) -> RepresentationCase:
    """The representation case of a lattice: that of its model seed."""
    return REPRESENTATION_CASES[_ENTRIES[_model_seed_id(lattice_id)].params["case"]]


# ---------------------------------------------------------------------------
# frame-existence report
# ---------------------------------------------------------------------------

_SEARCH_DIM_CAP = 20      # direct frame search only in dimensions up to this
_SEARCH_NORM_CAP = 8      # ... and for frame norms up to this
_FINGERPRINT_DIM_CAP = 24  # live min-norm fingerprint check up to this dimension

_base_cache: dict[tuple[str, int], tuple[list[str], Frame | None] | None] = {}
_minnorm_cache: dict[str, Any] = {}


def _divisors(k: int) -> list[int]:
    return [d for d in range(2, k + 1) if k % d == 0]


def _code_fingerprint_ok(lattice_id: str, code_id: str) -> tuple[bool, str]:
    info = lattice_info(lattice_id)
    code = build(code_id)
    model = build(lattice_id)
    if code.n != model.dim:
        return False, "dimension mismatch"
    if code.n <= _FINGERPRINT_DIM_CAP:
        mn = min_norm(construction_a(code))
        if mn != info.min_norm:
            return False, f"minimum-norm fingerprint mismatch ({mn} != {info.min_norm})"
        return True, f"fingerprint verified (dimension {code.n}, minimum norm {mn})"
    return True, "fingerprint deferred to catalog annotation (large dimension)"


def _base_cert(lattice_id: str, d: int) -> tuple[list[str], Frame | None] | None:
    """Code or quadruple certificate that the model lattice has a d-frame.

    Returns (chain, frame).  A quadruple certificate carries its explicit
    frame, verified inside the model; a code certificate carries None,
    since its frame lives in A_d(C), which is matched to the model only
    by invariants.
    """
    key = (lattice_id, d)
    if key in _base_cache:
        return _base_cache[key]
    info = lattice_info(lattice_id)
    cert = None

    code_id = info.direct_codes.get(d)
    if code_id is not None:
        ok, note = _code_fingerprint_ok(lattice_id, code_id)
        if ok:
            cert = ([
                f"catalog code {code_id} over Z_{d} is self-dual; "
                f"its Construction A lattice carries the standard {d}-frame; {note}"
            ], None)

    if cert is None:
        seed = build(_model_seed_id(lattice_id))
        quad = search_quadruple(seed.k, seed.m, seed.ell, d)
        if quad is not None:
            frame = build_frame(seed, quad)
            if not contains_frame(build(lattice_id), frame):
                raise MembershipViolation("quadruple frame failed lattice membership")
            cert = ([
                f"quadruple (a,b,c,d)=({quad.a},{quad.b},{quad.c},{quad.d}) with "
                f"(k,m,ell)=({seed.k},{seed.m},{seed.ell}) gives an explicit "
                f"{d}-frame, verified inside {lattice_id}"
            ], frame)

    _base_cache[key] = cert
    return cert


def _model_min_norm(lattice_id: str):
    if lattice_id not in _minnorm_cache:
        info = lattice_info(lattice_id)
        model = build(lattice_id)
        if model.dim <= _FINGERPRINT_DIM_CAP:
            mn = min_norm(model)
            assert mn == info.min_norm, (lattice_id, mn)
        else:
            mn = info.min_norm  # catalog annotation for the large dimensions
        _minnorm_cache[lattice_id] = mn
    return _minnorm_cache[lattice_id]


def frame_report(lattice_id: str, k: int) -> FrameVerdict:
    """Yes / no / unknown: does the model lattice contain a k-frame?

    A d-frame for a divisor d of k gives a k-frame by quaternion scaling
    when 4 | n, so every divisor d >= 2 with d == k or 4 | n is usable.
    Code and quadruple certificates are tried first, largest d first;
    then direct search, smallest d first, one enumeration per divisor.
    A search miss at d == k is exhaustive, hence a "no".  A "yes" carries
    its explicit frame, membership-checked in the model, unless it rests
    on a code certificate.
    """
    lattice_info(lattice_id)  # raises UnknownId for anything but a catalog lattice
    if k < 1:
        raise UnknownId("frame norm must be a positive integer")
    model = build(lattice_id)
    n = model.dim

    mn = _model_min_norm(lattice_id)
    if k < mn:
        return FrameVerdict("no", [
            f"minimum norm of {lattice_id} is {mn} > {k}: no vectors of norm {k} at all"
        ])

    usable = [d for d in _divisors(k) if d == k or n % 4 == 0]

    def yes(d: int, chain: list[str], frame: Frame | None) -> FrameVerdict:
        chain = list(chain)
        if d != k:
            chain.append(
                f"quaternion scaling turns the {d}-frame into a {k}-frame "
                f"(multiplier {k // d}, dimension {n} divisible by 4)"
            )
            if frame is not None:
                frame = scale_frame(frame, k // d)
                if not contains_frame(model, frame):
                    raise MembershipViolation("scaled frame failed lattice membership")
        return FrameVerdict("yes", chain, frame)

    for d in reversed(usable):
        cert = _base_cert(lattice_id, d)
        if cert is not None:
            return yes(d, *cert)

    if n <= _SEARCH_DIM_CAP:
        for d in usable:
            if d > _SEARCH_NORM_CAP:
                break
            try:
                shell = norm_shell(model, d)
                frame = frame_in_shell(model, shell, d)
            except BudgetExceeded:
                continue
            if frame is not None:
                return yes(d, [f"direct search found a {d}-frame in {lattice_id}"], frame)
            if d == k:
                if len(shell) < n:
                    return FrameVerdict("no", [
                        f"{lattice_id} has only {2 * len(shell)} vectors of norm {k}, "
                        f"fewer than the 2n = {2 * n} a frame needs"
                    ])
                return FrameVerdict("no", [
                    f"exhaustive search over all norm-{k} vectors of {lattice_id}: "
                    f"no {n} mutually orthogonal ones"
                ])

    return FrameVerdict("unknown", [
        f"no certificate found for a {k}-frame in {lattice_id} within desk-scale budgets"
    ])
