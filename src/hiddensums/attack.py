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
oracle on every block.  In the sum's own basis the coordinates are the
sum's own tables; another basis costs one CoordinateMap per recovery.
The spot-check blocks are drawn once per seed.  An oracle output outside
the state space, or one that is not an int (a bool passes), fails the
recovery with ConsistencyFailureError.  An oracle built from a CipherSpec
answers verification with the key's whole codebook
(CipherSpec.encrypt_table) in one call, still counted block by block.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat

from .cipher import CipherSpec, block_outside_state
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
    traffic separately.  Counters only ever increase.

    codebook, when given, returns the function at every block 0, 1, ...
    in one call, which verification reads instead of asking block by
    block."""

    def __init__(
        self,
        func: Callable[[int], int],
        direction: str,
        codebook: Callable[[], Sequence[int]] | None = None,
    ):
        if direction not in ("encrypt", "decrypt"):
            raise ValueError("direction must be 'encrypt' or 'decrypt'")
        self.func = func
        self.direction = direction
        self.codebook = codebook
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

    def verification_outputs(self, n: int) -> Sequence[int]:
        """The function at blocks 0, ..., n - 1, counted as n verification
        queries: the codebook if it has exactly n blocks, else one call
        per block."""
        self.verification_count += n
        if self.codebook is not None:
            outputs = self.codebook()
            if len(outputs) == n:
                return outputs
        return list(map(self.func, range(n)))


def encryption_oracle(spec: CipherSpec, key: int) -> Oracle:
    """E_k, block by block for the attack and as one encrypt_table(k) for
    verification."""
    return Oracle(partial(spec.encrypt, key), "encrypt", partial(spec.encrypt_table, key))


def decryption_oracle(spec: CipherSpec, key: int) -> Oracle:
    return Oracle(partial(spec.decrypt, key), "decrypt")


@dataclass(frozen=True)
class AttackTranscript:
    # A dataclass, not a named tuple: perfbench/selftest.py edits one with dataclasses.replace.
    queries: tuple[tuple[str, int, int], ...]
    encryption_count: int
    decryption_count: int


class AffineRepr:
    """The recovered cipher: coords(f(v)) = coords(v)*M + t.

    Both directions are lookup tables over the state space, built from M
    and t (and from matrix_inv) on first use.  Blocks that are not ints
    (bools pass) or lie outside 0..2^d - 1 are refused with ValueError.
    """

    __slots__ = ("matrix", "t_coords", "matrix_inv", "coord_map", "_forward", "_backward")

    def __init__(
        self,
        matrix: BinMatrix,
        t_coords: int,
        matrix_inv: BinMatrix,
        coord_map: HiddenSum,
    ):
        self.matrix = matrix
        self.t_coords = t_coords
        self.matrix_inv = matrix_inv
        self.coord_map = coord_map
        self._forward: list[int] | None = None
        self._backward: list[int] | None = None

    def forward_table(self) -> list[int]:
        """f(v) for every block v: the table apply reads (not a copy)."""
        if self._forward is None:
            self._forward = self.coord_map.affine_function(self.matrix, self.t_coords)
        return self._forward

    def apply(self, v: int) -> int:
        table = self._forward or self.forward_table()
        try:
            if v >= 0:
                return table[v]
        except (TypeError, IndexError):  # a block that is no int, or too large
            pass
        raise block_outside_state(v, self.coord_map.width)

    def apply_inverse(self, w: int) -> int:
        table = self._backward
        if table is None:
            # (coords(w) + t)*M^-1 = coords(w)*M^-1 + t*M^-1
            minv = self.matrix_inv
            table = self._backward = self.coord_map.affine_function(
                minv, minv.apply(self.t_coords)
            )
        try:
            if w >= 0:
                return table[w]
        except (TypeError, IndexError):  # a block that is no int, or too large
            pass
        raise block_outside_state(w, self.coord_map.width)


@lru_cache(maxsize=256)
def spot_check_blocks(seed: int, n: int) -> tuple[int, ...]:
    """The blocks a recovery with this seed spot-checks in a space of n
    blocks, drawn once per (seed, n)."""
    import random  # here, so that importing the package leaves it out
    return tuple(random.Random(seed).sample(range(n), min(SPOT_CHECKS, n)))


def _in_state(query: Callable[[int], int], n: int) -> Callable[[int], int]:
    """The query, refusing an output that is no int in 0..n - 1 (bools pass),
    which a coordinate table would fail on or, if negative, silently wrap."""

    def checked(x: int) -> int:
        y = query(x)
        if isinstance(y, int) and 0 <= y < n:
            return y
        raise ConsistencyFailureError(
            f"oracle output {y!r} for block {x} is outside the state space 0..{n - 1}"
        )

    return checked


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
    with the seed, as verification queries.  In the sum's own basis the
    coordinates are read off hs itself."""
    cm = hs if tuple(basis) == hs.basis else CoordinateMap(hs, basis)
    n = 1 << cm.width
    matrix, t = cm.read_affine(_in_state(enc_oracle.query, n))
    if dec_oracle is None:
        try:
            matrix_inv = matrix.inverse()
        except SingularMatrixError as exc:
            raise ConsistencyFailureError(
                "recovered matrix is singular; oracle is not an affine bijection "
                "for this hidden sum"
            ) from exc
    else:
        matrix_inv, _ = cm.read_affine(_in_state(dec_oracle.query, n))
        if [matrix_inv.apply(r) for r in matrix.rows] != [1 << i for i in range(cm.width)]:
            raise InverseMismatchError(
                "matrix from decryptions does not invert the matrix from encryptions"
            )
    points = spot_check_blocks(seed, n)
    v = cm.mismatch(_in_state(enc_oracle.query_verification, n), matrix, t, points)
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


class DeductionReport(
    namedtuple("DeductionReport", "verified_blocks mismatches enc_queries dec_queries")
):
    """Blocks compared, how many disagreed, and the attack's query counts."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def verify_global_deduction(
    repr_: AffineRepr, enc_oracle: Oracle, transcript: AttackTranscript
) -> DeductionReport:
    """Compare the reconstruction against the oracle on every block.

    The oracle answers all blocks in one batch, counted as one
    verification query per block: a spec-backed oracle reads the key's
    whole codebook with one encrypt_table call, an oracle over a bare
    function asks block by block.  An answer outside the state space is
    a mismatch, and so is one that is not an int (a bool passes), even if
    it equals the right block, as 3.0 equals 3.  The reported query
    totals are the attack-phase ones from the transcript.
    """
    d = repr_.coord_map.width
    outputs = enc_oracle.verification_outputs(1 << d)
    forward = repr_.forward_table()
    # when they agree, as they do for a sound attack, one list comparison
    # and one check that the outputs are ints, both in C
    if forward == outputs and all(map(isinstance, outputs, repeat(int))):
        mismatches = 0
    else:
        mismatches = sum(not isinstance(z, int) or y != z for y, z in zip(forward, outputs))
    return DeductionReport(
        verified_blocks=len(outputs),
        mismatches=mismatches,
        enc_queries=transcript.encryption_count,
        dec_queries=transcript.decryption_count,
    )
