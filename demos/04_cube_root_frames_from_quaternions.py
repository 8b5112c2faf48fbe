"""The (9, 6) cube-root frame from the quaternion group.

Splitting the non-identity quaternions as S = {-1}, T = {i, j, k},
V = {-i, -j, -k} and weighting the group-translation matrices by
1, omega, omega^2 gives an 8 x 8 Hermitian matrix whose bordered version
certifies a (9, 6) equiangular frame with cube-root-of-unity angles.
"""

import numpy as np

from frameforge import (
    border_standard,
    build_cube_matrix,
    certify_two_eigenvalue,
    cube_necessary_conditions,
    frame_from_matrix,
    nmu_excluded,
    quaternion8,
    verify_quasi_signature_pair,
    verify_signature_pair,
)
from frameforge.matrices import matrix_to_csv

g = quaternion8()
s = g.subset(["-1"])
t = g.subset(["i", "j", "k"])

# Unbordered, the 8 x 8 matrix does not have two eigenvalues...
print("as a plain pair:", verify_signature_pair(g, s, t))

# ...but the bordered 9 x 9 one does.
verdict = verify_quasi_signature_pair(g, s, t)
print(f"as a quasi pair: mu={verdict.mu}, frame ({verdict.params.n}, {verdict.params.k})")

core = build_cube_matrix(g, s, t)
bordered = border_standard(core)
print("\nbordered matrix (0/1/w/w2 cells):")
print(matrix_to_csv(bordered))

cert = certify_two_eigenvalue(bordered)
sq_a, sq_b = bordered.square()
print("Q^2 == 8 I - 2 Q:",
      np.array_equal(sq_a, 8 * np.eye(9, dtype=np.int64) - 2 * bordered.a)
      and np.array_equal(sq_b, -2 * bordered.b))

# The (n, mu) screens: (9, -2) is admissible as frame data, yet no
# *unbordered* pair can realise it in an abelian group of order 9.
print("\n(9, -2) passes the necessary conditions:", cube_necessary_conditions(9, -2)[0])
print("but abelian order-9 pairs are excluded:", nmu_excluded(9, -2, abelian=True))

# Finally realise the frame numerically: 9 unit-angle vectors in C^6.
frame, report, params = frame_from_matrix(bordered)
print(f"\nnumeric frame: {params.n} vectors in C^{params.k}")
print(f"max tightness deviation      {report.tightness_dev:.2e}")
print(f"max uniformity deviation     {report.uniformity_dev:.2e}")
print(f"max equiangularity deviation {report.equiangularity_dev:.2e}")
