"""Realising certified matrices as frame vectors, and switching equivalence.

A certified signature matrix Q pins the Gram matrix of a Parseval frame:
P = (k/n) I + c_{n,k} Q, a rank-k projection.  Factoring P = V V* gives
n actual vectors in C^k.  Conjugating Q by any signed permutation
("switching") changes the vectors but never the certificate.
"""

import numpy as np

from frameforge import (
    Subset,
    certify_two_eigenvalue,
    cyclic,
    factor_gram,
    gram_from_certificate,
    quasi_signature_matrix,
    switch,
    to_standard_form,
    verify_frame,
)

# Start from the (18, 9) conference construction over Z17.
group = cyclic(17)
s = Subset.of(17, [1, 2, 4, 8, 9, 13, 15, 16])
q = quasi_signature_matrix(group, s)
cert = certify_two_eigenvalue(q)
params = cert.params
print(f"certified: mu={cert.mu}, (n,k)=({params.n},{params.k})")
print(f"eigenvalues: {params.lambda1:+.6f} (x{params.n - params.k}), "
      f"{params.lambda2:+.6f} (x{params.k})")
print(f"common angle c = {params.c_value:.12f}")

# Gram matrix and its factorisation into an 18 x 9 isometry.
gram = gram_from_certificate(cert)
frame = factor_gram(gram, params.k)
print(f"\nfactored into {frame.n} vectors in C^{frame.k}")

report = verify_frame(frame, params)
print(f"tight:       {report.tight}   (dev {report.tightness_dev:.2e})")
print(f"uniform:     {report.uniform} (dev {report.uniformity_dev:.2e})")
print(f"equiangular: {report.equiangular} (dev {report.equiangularity_dev:.2e})")

# Parseval reconstruction: analysis then synthesis is the identity.
rng = np.random.default_rng(1)
x = rng.normal(size=params.k) + 1j * rng.normal(size=params.k)
coefficients = frame.vectors @ x
reconstructed = frame.vectors.conj().T @ coefficients
print(f"\nreconstruction error on a random vector: {np.abs(reconstructed - x).max():.2e}")

# Switching: scramble with a random signed permutation, then certify again.
d = rng.choice([-1, 1], size=18).tolist()
perm = rng.permutation(18).tolist()
scrambled = switch(q, d, perm)
cert2 = certify_two_eigenvalue(scrambled)
print(f"\nafter a random switch: mu={cert2.mu}, (n,k)=({cert2.params.n},{cert2.params.k})")
print("certificates identical:", cert2.params == params)

# And the standard form restores an all-ones first row and column.
restored = to_standard_form(scrambled)
print("standard form first row all ones:", bool((restored.a[0, 1:] == 1).all()))
