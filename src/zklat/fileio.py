"""Plain-text file formats for codes, skew seeds, lattices, frame
certificates and theta prefixes.

All formats are line oriented; lines starting with '#' are comments.
Header line first, then one row/record per line of space-separated
integers (theta norms may be fractions like 1/2).
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .codes import ZkCode
from .errors import PreconditionViolation
from .lattice import Frame, Lattice, ThetaPrefix
from .skew import SkewSeed


def _data_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _header(line: str, tag: str, nfields: int) -> list[int]:
    parts = line.split()
    if parts[0] != tag or len(parts) != nfields + 1:
        raise PreconditionViolation(f"expected header '{tag}' with {nfields} fields")
    return [int(x) for x in parts[1:]]


def dump_code(code: ZkCode) -> str:
    lines = [f"zkcode {code.k} {code.n}"]
    lines += [" ".join(str(x) for x in row) for row in code.generators]
    return "\n".join(lines) + "\n"


def load_code(text: str) -> ZkCode:
    lines = _data_lines(text)
    k, n = _header(lines[0], "zkcode", 2)
    rows = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    if any(len(r) != n for r in rows):
        raise PreconditionViolation("generator row length does not match header")
    return ZkCode(k, tuple(rows))


def dump_seed(seed: SkewSeed) -> str:
    lines = [f"skewseed {seed.k} {seed.m} {seed.ell} {seed.order}"]
    lines += [" ".join(str(x) for x in row) for row in seed.matrix]
    return "\n".join(lines) + "\n"


def load_seed(text: str) -> SkewSeed:
    lines = _data_lines(text)
    k, m, ell, order = _header(lines[0], "skewseed", 4)
    rows = tuple(tuple(int(x) for x in line.split()) for line in lines[1 : order + 1])
    return SkewSeed(rows, k=k, m=m, ell=ell)


def dump_lattice(lat: Lattice) -> str:
    lines = [f"lattice {lat.dim} {lat.scale}"]
    lines += [" ".join(str(int(x)) for x in row) for row in lat.basis]
    return "\n".join(lines) + "\n"


def load_lattice(text: str) -> Lattice:
    lines = _data_lines(text)
    n, s = _header(lines[0], "lattice", 2)
    rows = [[int(x) for x in line.split()] for line in lines[1 : n + 1]]
    return Lattice(rows, s)  # entries checked in exact ints by the constructor


def dump_frame(frame: Frame) -> str:
    """Frame certificate: the vectors plus the (re-verified) Gram fact."""
    n = len(frame.vectors)
    lines = [f"frame {frame.norm_k} {n} {frame.scale}"]
    lines += [" ".join(str(x) for x in row) for row in frame.vectors]
    lines.append(f"# gram = {frame.norm_k} * scale * I, verified on construction")
    return "\n".join(lines) + "\n"


def load_frame(text: str) -> Frame:
    lines = _data_lines(text)
    k, n, s = _header(lines[0], "frame", 3)
    rows = tuple(tuple(int(x) for x in line.split()) for line in lines[1 : n + 1])
    return Frame(rows, s, k)  # Gram re-verified by the constructor


def dump_theta(theta: ThetaPrefix) -> str:
    lines = [f"# theta prefix up to norm {theta.bound}"]
    for q, c in theta.as_pairs():
        lines.append(f"{q} {c}")
    return "\n".join(lines) + "\n"


def load_theta(text: str) -> dict[Fraction, int]:
    out: dict[Fraction, int] = {}
    for line in _data_lines(text):
        q, c = line.split()
        out[Fraction(q)] = int(c)
    return out


def write_text(path, text: str) -> None:
    Path(path).write_text(text)


def read_text(path) -> str:
    return Path(path).read_text()
