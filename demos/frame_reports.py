"""Yes / no / unknown frame-existence verdicts with certificate chains.

For every named lattice the catalog knows a model code, a
representation case for prime norms, and direct codes for a few moduli.
The report combines them into a verdict whose chain lists each exact
fact used; a "yes" also carries its explicit frame unless it rests on a
catalog code.

Run with: python3 demos/frame_reports.py
"""

from zklat import frame_report

QUERIES = [
    ("D4_5", 2),    # yes: direct search at desk scale
    ("D4_5", 5),    # yes: a catalog code over Z_5 matches this lattice
    ("A5_4", 2),    # no: the 60 root pairs form four orthogonal A5 components,
                    # each of rank 5 but holding at most 3 orthogonal roots
    ("D20", 3),     # no: not even enough norm-3 vectors for a frame
    ("D12_plus", 21),  # yes: quadruple certificate with an explicit frame
    ("D12_plus", 8),   # yes: a searched 2-frame, then quaternion scaling
    ("L48", 17),    # unknown: out of desk-scale reach either way
]

for lattice_id, k in QUERIES:
    verdict = frame_report(lattice_id, k)
    carried = "" if verdict.frame is None else " (explicit frame attached)"
    print(f"{lattice_id}, k={k}: {verdict.status}{carried}")
    for step in verdict.chain:
        print("   -", step)
