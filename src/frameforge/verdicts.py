"""Result types shared by the verifiers, the certificate and params_from_mu."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # params builds Rejections, so it cannot be imported here
    from .params import FrameParams
    from .subsets import Subset


@dataclass(frozen=True)
class Rejection:
    """A verification failure, with the failing clause and a witness."""

    reason: str
    detail: str = ""
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return False

    def __str__(self) -> str:
        parts = [self.reason]
        if self.detail:
            parts.append(self.detail)
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        return ": ".join(parts)


@dataclass(frozen=True)
class SignatureVerdict:
    """A successful verification of a set (or pair of sets) in a group.

    kind is one of "signature", "quasi", "cube-pair", "cube-quasi"; the
    certified matrix has params.n rows (the group order, plus one for the
    bordered kinds).
    """

    kind: str
    params: FrameParams
    mu: int
    subset: Subset
    t_subset: Subset | None

    @property
    def ok(self) -> bool:
        return True
