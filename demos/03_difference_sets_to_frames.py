"""From a difference set to a (64, 28) equiangular tight frame.

A reversible Hadamard difference set (parameters (4m^2, 2m^2 - m, m^2 - m))
avoiding the identity is exactly a signature set for an (n, (n - sqrt n)/2)
frame.  The classical 28-element example in Z8 x Z8 is built from a
14-element half A as D = A u (-A).
"""

import numpy as np

from frameforge import (
    complement_report,
    cyclic,
    diffset_to_signature,
    direct_product,
    is_hadamard,
    signature_matrix,
    verify_difference_set,
)

HALF = [
    (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 2), (2, 3), (2, 6), (2, 7),
    (3, 2), (3, 4), (3, 5), (3, 7),
    (4, 1), (4, 3),
]

group = direct_product(cyclic(8), cyclic(8))
labels = [f"({x},{y})" for x, y in HALF] + [f"({(-x) % 8},{(-y) % 8})" for x, y in HALF]
d = group.subset(labels)

report = verify_difference_set(group, d)
print(f"difference set: (n, k, lambda) = ({report.n}, {report.k}, {report.lam})")
print(f"reversible: {report.reversible}, Hadamard family: {report.hadamard_family}")

comp = complement_report(report)
print(f"complement parameters: ({comp.n}, {comp.k}, {comp.lam})")

# The bridge: reversible + Hadamard parameters + no identity  =>  a
# signature set with mu = 2, certified by the exact 64 x 64 identity.
verdict = diffset_to_signature(group, d)
print(f"\nsignature verdict: mu={verdict.mu}, frame ({verdict.params.n}, {verdict.params.k})")

q = signature_matrix(group, d)
lhs = q.square()
rhs = 63 * np.eye(64, dtype=np.int64) + 2 * q.a
print("Q^2 == 63 I + 2 Q:", np.array_equal(lhs, rhs))

h = np.eye(64, dtype=np.int64) - q.a
print("I - Q is a Hadamard matrix of order 64:", is_hadamard(h))

# A small non-example: the (11,5,2) set in Z11 is a perfectly good
# difference set but 11 is not a square, so no frame comes out of it.
z11 = cyclic(11)
small = z11.subset(["1", "3", "4", "5", "9"])
print("\n(11,5,2) set:", verify_difference_set(z11, small))
print("bridge rejects:", diffset_to_signature(z11, small))
