"""Signature sets in C4 x C4 and C6 x C6.

A subset S of the non-identity elements (with complement T) is a signature
set when the matrix with +1 at group-translates of S and -1 at translates
of T has exactly two eigenvalues.  The axis subset of C4 x C4 produces the
(16, 6) frame; adding the diagonal inside C6 x C6 produces (36, 15).
"""

import numpy as np

from frameforge import (
    complement_set,
    cyclic,
    direct_product,
    is_hadamard,
    signature_matrix,
    verify_signature_set,
)

g16 = direct_product(cyclic(4), cyclic(4))
axis = g16.subset([f"({i},0)" for i in range(1, 4)] + [f"(0,{i})" for i in range(1, 4)])

verdict = verify_signature_set(g16, axis)
print("axis set in C4xC4:", sorted(axis.labels(g16)))
print(f"  -> mu={verdict.mu}, frame ({verdict.params.n}, {verdict.params.k})")
print(f"  eigenvalues {verdict.params.lambda1:+.0f} and {verdict.params.lambda2:+.0f}")

# Complement duality: T is itself a signature set, for the (16, 10) frame.
dual = verify_signature_set(g16, complement_set(g16, axis))
print(f"complement -> mu={dual.mu}, frame ({dual.params.n}, {dual.params.k})")

# I - Q is a Hadamard matrix whenever mu = 2 (the reversible Hadamard
# difference-set family).
q = signature_matrix(g16, axis)
h = np.eye(16, dtype=np.int64) - q.a
print("I - Q is Hadamard:", is_hadamard(h))

# The same recipe with the diagonal added, in C6 x C6.
g36 = direct_product(cyclic(6), cyclic(6))
diag = g36.subset(
    [f"({i},0)" for i in range(1, 6)]
    + [f"(0,{i})" for i in range(1, 6)]
    + [f"({i},{i})" for i in range(1, 6)]
)
verdict36 = verify_signature_set(g36, diag)
print(f"\naxis+diagonal in C6xC6 -> mu={verdict36.mu}, "
      f"frame ({verdict36.params.n}, {verdict36.params.k})")

# A rejected candidate comes back with the failing clause and a witness.
bad = verify_signature_set(g16, g16.subset(["(1,0)", "(2,0)"]))
print("\nrejection example:", bad)
