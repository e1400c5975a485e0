"""Reconstruction of a hidden-sum-affine cipher from 7 chosen plaintexts.

When every encryption function of a d-bit cipher is affine for a known
hidden sum, querying the images of 0 and of the d coordinate-basis
plaintexts determines the whole function: in hidden-sum coordinates it
is an affine map v*M + t.  The matrix inverse comes either from Gaussian
elimination (chosen-plaintext only) or from d+1 more decryption queries
(chosen-plaintext/chosen-ciphertext).  Either way the attacker can then
encrypt and decrypt arbitrary blocks with no further oracle access and
no knowledge of the key, whatever the round count or key schedule.

Attack queries and verification queries are metered separately so the
query-count claims stay auditable.  A reconstruction spot-checks its fit
on SPOT_CHECKS seeded blocks; verify_global_deduction compares it with the
oracle on every block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .cipher import CipherSpec, state_lookup
from .gf2 import BinMatrix, SingularMatrixError
from .hidden_sum import CoordinateMap, HiddenSum


# Blocks on which a reconstruction compares its fit with the oracle.
SPOT_CHECKS = 3


class AttackError(RuntimeError):
    pass


class ConsistencyFailureError(AttackError):
    """The oracle's function is not affine for the supplied hidden sum."""


class InverseMismatchError(AttackError):
    """Encryption and decryption oracles are not mutually inverse."""


class Oracle:
    """Counts queries against a block function, attack and verification
    traffic separately.  Counters only ever increase."""

    def __init__(self, func: Callable[[int], int], direction: str):
        if direction not in ("encrypt", "decrypt"):
            raise ValueError("direction must be 'encrypt' or 'decrypt'")
        self.func = func
        self.direction = direction
        self.query_count = 0
        self.verification_count = 0
        self.log: list[tuple[str, int, int]] = []

    def query(self, x: int) -> int:
        self.query_count += 1
        y = self.func(x)
        self.log.append((self.direction, x, y))
        return y

    def query_verification(self, x: int) -> int:
        self.verification_count += 1
        return self.func(x)


def encryption_oracle(spec: CipherSpec, key: int) -> Oracle:
    return Oracle(lambda x: spec.encrypt(key, x), "encrypt")


def decryption_oracle(spec: CipherSpec, key: int) -> Oracle:
    return Oracle(lambda y: spec.decrypt(key, y), "decrypt")


@dataclass(frozen=True)
class AttackTranscript:
    queries: tuple[tuple[str, int, int], ...]
    encryption_count: int
    decryption_count: int


class AffineRepr:
    """The recovered cipher: coords(f(v)) = coords(v)*M + t.

    Both directions are lookup tables over the state space, built from M
    and t (and from matrix_inv) on first use.  Blocks outside 0..2^d - 1
    are refused with ValueError.
    """

    __slots__ = ("matrix", "t_coords", "matrix_inv", "coord_map", "_forward", "_backward")

    def __init__(
        self,
        matrix: BinMatrix,
        t_coords: int,
        matrix_inv: BinMatrix,
        coord_map: CoordinateMap,
    ):
        self.matrix = matrix
        self.t_coords = t_coords
        self.matrix_inv = matrix_inv
        self.coord_map = coord_map
        self._forward: list[int] | None = None
        self._backward: list[int] | None = None

    def apply(self, v: int) -> int:
        table = self._forward
        if table is None:
            table = self._forward = self.coord_map.affine_function(self.matrix, self.t_coords)
        return state_lookup(table, v, self.coord_map.width)

    def apply_inverse(self, w: int) -> int:
        # (coords(w) + t)*M^-1 = coords(w)*M^-1 + t*M^-1
        table = self._backward
        if table is None:
            minv = self.matrix_inv
            table = self._backward = self.coord_map.affine_function(
                minv, minv.apply(self.t_coords)
            )
        return state_lookup(table, w, self.coord_map.width)


def _reconstruct(
    enc_oracle: Oracle,
    dec_oracle: Oracle | None,
    hs: HiddenSum,
    basis: Sequence[int],
    seed: int,
) -> AffineRepr:
    """d+1 encryption queries give M and t; the inverse comes from Gaussian
    elimination or, given a decryption oracle, from d+1 decryption queries.
    The fit is then compared with the oracle on SPOT_CHECKS blocks drawn
    with the seed, as verification queries."""
    cm = CoordinateMap(hs, basis)
    matrix, t = cm.read_affine(enc_oracle.query)
    if dec_oracle is None:
        try:
            matrix_inv = matrix.inverse()
        except SingularMatrixError as exc:
            raise ConsistencyFailureError(
                "recovered matrix is singular; oracle is not an affine bijection "
                "for this hidden sum"
            ) from exc
    else:
        matrix_inv, _ = cm.read_affine(dec_oracle.query)
        if matrix @ matrix_inv != BinMatrix.identity(matrix.size):
            raise InverseMismatchError(
                "matrix from decryptions does not invert the matrix from encryptions"
            )
    n = 1 << hs.width
    points = random.Random(seed).sample(range(n), min(SPOT_CHECKS, n))
    v = cm.mismatch(enc_oracle.query_verification, matrix, t, points)
    if v is not None:
        raise ConsistencyFailureError(f"oracle is not affine for this hidden sum (plaintext {v})")
    return AffineRepr(matrix, t, matrix_inv, cm)


def reconstruct_cp(
    enc_oracle: Oracle,
    hs: HiddenSum,
    basis: Sequence[int],
    seed: int = 0,
) -> tuple[AffineRepr, AttackTranscript]:
    """Chosen-plaintext attack: d+1 encryption queries, inverse by Gaussian
    elimination, no decryption oracle needed."""
    repr_ = _reconstruct(enc_oracle, None, hs, basis, seed)
    return repr_, AttackTranscript(tuple(enc_oracle.log), enc_oracle.query_count, 0)


def reconstruct_cpcc(
    enc_oracle: Oracle,
    dec_oracle: Oracle,
    hs: HiddenSum,
    basis: Sequence[int],
    seed: int = 0,
) -> tuple[AffineRepr, AttackTranscript]:
    """Chosen-plaintext/chosen-ciphertext attack: the inverse matrix is read
    off d+1 decryption queries instead of being computed, then cross-checked
    against the encryption side."""
    repr_ = _reconstruct(enc_oracle, dec_oracle, hs, basis, seed)
    transcript = AttackTranscript(
        tuple(enc_oracle.log) + tuple(dec_oracle.log),
        enc_oracle.query_count,
        dec_oracle.query_count,
    )
    return repr_, transcript


@dataclass(frozen=True)
class DeductionReport:
    verified_blocks: int
    mismatches: int
    enc_queries: int
    dec_queries: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def verify_global_deduction(
    repr_: AffineRepr, enc_oracle: Oracle, transcript: AttackTranscript | None = None
) -> DeductionReport:
    """Compare the reconstruction against the oracle on every block.

    These comparisons use verification queries; the reported query totals
    are the attack-phase ones from the transcript.
    """
    n = 1 << repr_.coord_map.width
    mismatches = sum(
        1 for v in range(n) if repr_.apply(v) != enc_oracle.query_verification(v)
    )
    return DeductionReport(
        verified_blocks=n,
        mismatches=mismatches,
        enc_queries=transcript.encryption_count if transcript else enc_oracle.query_count,
        dec_queries=transcript.decryption_count if transcript else 0,
    )
