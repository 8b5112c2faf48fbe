"""Conference matrices and (2k, k) frames from primes.

Two number-theoretic recipes produce quasi-signature sets in (Z_p, +):

* p = 5 (mod 8) with 2 a primitive root: take the even powers of 2
  (the quadratic residues);
* p = 1 (mod 8) with <2> of index 2: take the powers of 2 themselves.

Bordering the resulting +-1 matrix with a row and column of ones yields a
symmetric conference matrix, i.e. the signature matrix of a
((p+1), (p+1)/2) equiangular tight frame.
"""

import numpy as np

from frameforge import (
    Subset,
    certify_two_eigenvalue,
    cyclic,
    generate,
    is_conference,
    quasi_signature_matrix,
)

# Scan small m for both families.  Each hit is re-verified internally by the
# exact counting criterion before it is returned.
print("p = 8m+5 family (m <= 12):")
for hit in generate("thm59", 12):
    print(f"  m={hit.m:<3} p={hit.p:<5} frame ({hit.n}, {hit.k})  set={hit.residues}")

print("\np = 8m+1 family (m <= 12):")
for hit in generate("thm511", 12):
    print(f"  m={hit.m:<3} p={hit.p:<5} frame ({hit.n}, {hit.k})  set={hit.residues}")

# Take the smallest hit, p = 5, and look at the actual matrix.
hit = generate("thm59", 0)[0]
group = cyclic(hit.p)
matrix = quasi_signature_matrix(group, Subset.of(hit.p, hit.residues))
print(f"\nBordered matrix for p={hit.p} (the (6,3) frame):")
print(matrix.a)

# The exact certificate: Q^2 = (n-1) I + mu Q with mu = 0 here, so the
# matrix squares to 5I and is a symmetric conference matrix.
cert = certify_two_eigenvalue(matrix)
print(f"\ncertificate: mu={cert.mu}, (n,k)=({cert.params.n},{cert.params.k})")
print("Q^2 == 5I:", np.array_equal(matrix.square(), 5 * np.eye(6, dtype=np.int64)))
print("conference matrix:", is_conference(matrix.a))
