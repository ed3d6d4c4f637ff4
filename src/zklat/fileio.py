"""Plain-text file formats for codes, skew seeds, lattices, frame
certificates and theta prefixes.

All formats are line oriented; lines starting with '#' are comments.
Header line first, then one row/record per line of space-separated
integers (theta norms may be fractions like 1/2).  A file must hold
exactly the rows its header announces, each of the announced width.
"""

from __future__ import annotations

from pathlib import Path

from .codes import ZkCode
from .errors import PreconditionViolation, UnknownId
from .lattice import Frame, Lattice, ThetaPrefix
from .skew import SkewSeed


def _data_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _header(lines: list[str], tag: str, nfields: int) -> list[int]:
    parts = lines[0].split() if lines else []
    if parts[:1] != [tag] or len(parts) != nfields + 1:
        raise PreconditionViolation(f"expected header '{tag}' with {nfields} fields")
    return [int(x) for x in parts[1:]]


def _rows(lines: list[str], count: int, width: int) -> tuple[tuple[int, ...], ...]:
    """The integer rows under the header: exactly `count`, each `width` long."""
    rows = tuple(tuple(int(x) for x in line.split()) for line in lines[1:])
    if len(rows) != count:
        raise PreconditionViolation(f"header announces {count} rows, the file holds {len(rows)}")
    if any(len(r) != width for r in rows):
        raise PreconditionViolation(f"every row must hold the header's {width} entries")
    return rows


def _text(header: str, rows, *tail: str) -> str:
    """The header line, one line of space-separated entries per row, then `tail`."""
    return "\n".join([header, *(" ".join(map(str, row)) for row in rows), *tail]) + "\n"


def dump_code(code: ZkCode) -> str:
    return _text(f"zkcode {code.k} {code.n}", code.generators)


def load_code(text: str) -> ZkCode:
    lines = _data_lines(text)
    k, n = _header(lines, "zkcode", 2)
    return ZkCode(k, _rows(lines, len(lines) - 1, n))  # the header gives no row count


def dump_seed(seed: SkewSeed) -> str:
    return _text(f"skewseed {seed.k} {seed.m} {seed.ell} {seed.order}", seed.matrix.tolist())


def load_seed(text: str) -> SkewSeed:
    lines = _data_lines(text)
    k, m, ell, order = _header(lines, "skewseed", 4)
    return SkewSeed(_rows(lines, order, order), k=k, m=m, ell=ell)


def dump_lattice(lat: Lattice) -> str:
    return _text(f"lattice {lat.dim} {lat.scale}", lat.basis.tolist())


def load_lattice(text: str) -> Lattice:
    lines = _data_lines(text)
    n, s = _header(lines, "lattice", 2)
    return Lattice(_rows(lines, n, n), s)  # entries checked in exact ints by the constructor


def dump_frame(frame: Frame) -> str:
    """Frame certificate: the vectors plus the (re-verified) Gram fact."""
    return _text(
        f"frame {frame.norm_k} {len(frame.vectors)} {frame.scale}",
        frame.vectors.tolist(),
        f"# gram = {frame.norm_k} * scale * I, verified on construction",
    )


def load_frame(text: str) -> Frame:
    lines = _data_lines(text)
    k, n, s = _header(lines, "frame", 3)
    return Frame(_rows(lines, n, n), s, k)  # Gram re-verified by the constructor


_LOADERS = {
    "zkcode": load_code,
    "skewseed": load_seed,
    "lattice": load_lattice,
    "frame": load_frame,
}


def load(text: str) -> ZkCode | SkewSeed | Lattice | Frame:
    """The code, seed, lattice or frame certificate a file holds, by its header tag."""
    lines = _data_lines(text)
    if not lines:
        raise PreconditionViolation("the file holds no data lines")
    tag = lines[0].split()[0]
    if tag not in _LOADERS:
        raise UnknownId(f"unrecognized file header {tag!r}")
    return _LOADERS[tag](text)


def dump_theta(theta: ThetaPrefix) -> str:
    return _text(f"# theta prefix up to norm {theta.bound}", theta.as_pairs())


def write_text(path, text: str) -> None:
    Path(path).write_text(text)
