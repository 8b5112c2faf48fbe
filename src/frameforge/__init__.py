"""Group-derived equiangular tight frames: exact construction, certification
and exhaustive search.

The pipeline: build a finite group (`groups`), pick subsets (`subsets`),
verify the counting criteria (`signature_sets`, `cube_root`,
`difference_sets`) or let `search` enumerate, certify the resulting Seidel
matrix exactly (`matrices`, `params`), and realise the frame numerically
(`frames`).  `generators` reproduces the prime-driven (2k, k) families.
"""

from .eisenstein import EisensteinInt, OMEGA, OMEGA2
from .groups import (
    GroupTable,
    cyclic,
    direct_product,
    make_group,
    parse_group,
    quaternion8,
    subgroup_generated,
    units_mod,
)
from .subsets import (
    Subset,
    complement_nonidentity,
    conjugate_subset,
    inverse_set,
    pair_count_table,
)
from .params import (
    FrameParams,
    c_value,
    feasible_mu_values,
    mu_from_k,
    params_from_mu,
)
from .matrices import (
    SeidelMatrixEis,
    SeidelMatrixInt,
    TwoEigenvalueCertificate,
    border_standard,
    certify_two_eigenvalue,
    is_conference,
    is_hadamard,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    regrep_sum,
    switch,
    to_standard_form,
)
from .verdicts import Rejection, SignatureVerdict
from .signature_sets import (
    complement_set,
    index2_subgroup_set,
    quasi_signature_matrix,
    signature_matrix,
    verify_quasi_signature_set,
    verify_signature_set,
)
from .difference_sets import (
    DifferenceSetReport,
    complement_report,
    diffset_to_signature,
    verify_difference_set,
)
from .cube_root import (
    build_cube_matrix,
    cube_necessary_conditions,
    nmu_excluded,
    unique_square_root,
    verify_quasi_signature_pair,
    verify_signature_pair,
)
from .search import SearchHit, SearchSpec, cube_candidates, enumerate_inverse_closed, search
from .generators import GeneratorHit, generate
from .frames import (
    FrameCheckReport,
    FrameVectors,
    factor_gram,
    frame_from_matrix,
    gram_from_certificate,
    verify_frame,
)

__version__ = "0.1.0"
