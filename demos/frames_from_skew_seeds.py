"""Building k-frames of a lattice from a skew matrix seed.

A seed is an integer matrix M with M^T = -M and MM^T = mI, plus a pair
(k, ell) with m + ell^2 = -1 (mod k).  Any quadruple (a, b, c, d)
meeting two congruences yields 2n pairwise orthogonal lattice vectors
of equal norm -- an N-frame, where N = (a^2 + m b^2 + c^2 + m d^2) / k.

Run with: python3 demos/frames_from_skew_seeds.py
"""

from zklat.catalog import build as catalog_build
from zklat import (
    build_code_from_skew,
    build_frame,
    construction_a,
    contains_frame,
    scale_frame,
    search_quadruple,
)

seed = catalog_build("D6_seed")
print(f"seed: order {seed.order}, m = {seed.m}, (k, ell) = ({seed.k}, {seed.ell})")

lat = construction_a(build_code_from_skew(seed))
print(f"model lattice: dim {lat.dim}, unimodular = {lat.is_unimodular()}")

# Ask for frames of several norms.  A returned quadruple is a complete
# certificate; None is an exhaustive nonexistence proof for the scan.
for target in [3, 6, 7, 11]:
    quad = search_quadruple(seed.k, seed.m, seed.ell, target)
    if quad is None:
        print(f"  {target}-frame via quadruples: none (exhaustive scan)")
        continue
    frame = build_frame(seed, quad)  # checks F F^T = N k I exactly
    ok = contains_frame(lat, frame)
    print(f"  {target}-frame: quadruple ({quad.a},{quad.b},{quad.c},{quad.d}),"
          f" rows in lattice = {ok}")

# In dimensions divisible by 4 a k-frame scales to a km-frame by a
# quaternion trick built on the four-square decomposition of m.
frame = build_frame(seed, search_quadruple(seed.k, seed.m, seed.ell, 3))
bigger = scale_frame(frame, 7)
print(f"scaled: {frame.norm_k}-frame -> {bigger.norm_k}-frame,"
      f" still inside = {contains_frame(lat, bigger)}")
