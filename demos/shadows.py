"""Shadows of odd unimodular lattices.

Run with: python3 demos/shadows.py
"""

from zklat.catalog import build as catalog_build
from zklat import coset_theta, even_sublattice_and_shadow, theta_prefix

lat = catalog_build("D12_plus")
print(f"lattice: dim {lat.dim}, odd unimodular, min-norm vectors:",
      theta_prefix(lat, 2).coefficient(2))

# The even sublattice L0 has index 2; its dual splits into four cosets
# L0, L1, L2, L3 with L = L0 u L2 and shadow S = L1 u L3.
parts = even_sublattice_and_shadow(lat)
bound = 2
whole = theta_prefix(parts.l0_dual, bound)
print("theta of L0* :", {str(q): c for q, c in whole.as_pairs()})
for name, rep in [("L1", parts.rep_l1), ("L2", parts.rep_l2), ("L3", parts.rep_l3)]:
    th = coset_theta(parts.l0_refined, rep, bound)
    print(f"theta of {name}  :", {str(q): c for q, c in th.as_pairs()})
# The coset thetas sum exactly to the theta of L0^*; shadow norms sit in
# n/4 + Z, which is why fractional norms appear above.
