"""Permanent and multipermanent kernels.

These turn circuit submatrices and internal-state overlap data into
detection probabilities for (partially distinguishable) photons.

`permanent_batch` is the one permanent kernel: Ryser's formula over all
column subsets of a stack of matrices at once. Click-signature
probabilities (`protocol.signature_probability`) need nothing else.
`permanent_naive` is the permutation-sum cross-check.

The probability of one Fock output (`output_probability`) needs the
multipermanent, the double-permutation sum

    Perm(W) = sum_{sigma, rho} prod_j W[sigma_j, rho_j, j],
    W[k, l, j] = A[k, j] * conj(A[l, j]) * S[l, k],

where A is photon-major (row k = input photon k, column j = output slot j)
and S is the Gram matrix of the photons' internal states. Double
inclusion-exclusion turns it into a signed sum of 2 ** n permanents from
the same kernel, O(4 ** n * n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .fock import AssignmentList, FockState, submatrix

REAL_TOL = 1e-10
PSD_TOL = 1e-9
PROB_TOL = 1e-9


def permanent_naive(a: np.ndarray) -> complex:
    """Matrix permanent by direct permutation sum, O(n * n!).

    Reference implementation; use `permanent` beyond n ~ 8.
    """
    a = _square(a)
    n = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for j, p in enumerate(perm):
            term *= a[p, j]
        total += term
    return complex(total)


# Subset tables of at most 2**BLOCK_BITS columns; larger permanents walk
# the remaining columns' subsets one block at a time.
BLOCK_BITS = 10


@lru_cache(maxsize=None)
def _ryser_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2**n) 0/1 matrix whose column X marks the subset X of columns,
    and the Ryser signs (-1)**(n - |X|)."""
    bits = (np.arange(1 << n)[None, :] >> np.arange(n)[:, None]) & 1
    signs = (-1.0) ** (n - bits.sum(axis=0))
    table = bits.astype(complex)
    for cached in (table, signs):
        cached.flags.writeable = False
    return table, signs


def permanent_batch(a) -> np.ndarray:
    """Permanents of a stack of square matrices, shape (..., n, n), by
    Ryser's formula over all column subsets X at once:

        perm(A) = sum_X (-1)**(n - |X|) prod_i sum_{j in X} A[i, j].

    One matmul against the cached subset table gives every row sum, a
    product over rows and a dot with the signs finish it. Beyond
    BLOCK_BITS columns the subsets of the trailing columns are walked in
    blocks, so no (n, 2**n) table is ever built.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"stack of square matrices required, got shape {a.shape}")
    n = a.shape[-1]
    low = min(n, BLOCK_BITS)
    table, signs = _ryser_tables(low)
    sums = a[..., :low] @ table
    if n == low:
        return np.prod(sums, axis=-2) @ signs
    high = a[..., low:]
    total = np.zeros(a.shape[:-2], dtype=complex)
    for block in range(1 << (n - low)):
        bits = (block >> np.arange(n - low)) & 1
        sign = (-1.0) ** (n - low - int(bits.sum()))
        total += sign * (np.prod(sums + (high @ bits)[..., None], axis=-2) @ signs)
    return total


def permanent(a) -> complex:
    """Matrix permanent by Ryser's formula, O(2**n * n)."""
    return complex(permanent_batch(_square(a)))


permanent_ryser = permanent  # the name of the kernel, kept for callers that pick it


def _square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class DistinguishabilityMatrix:
    """Hermitian Gram matrix of pairwise internal-state overlaps.

    Unit diagonal, |entries| <= 1, positive semidefinite up to a numerical
    tolerance on the smallest eigenvalue.
    """

    entries: np.ndarray

    def __init__(self, entries):
        s = np.asarray(entries, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("Gram matrix must be square")
        if not np.allclose(s, s.conj().T, atol=1e-10):
            raise ValueError("Gram matrix must be Hermitian")
        if not np.allclose(np.diag(s), 1.0, atol=1e-10):
            raise ValueError("Gram matrix must have unit diagonal")
        if np.any(np.abs(s) > 1 + 1e-10):
            raise ValueError("overlap magnitudes cannot exceed 1")
        if s.shape[0] > 1:
            min_eig = float(np.linalg.eigvalsh(s)[0])
            if min_eig < -PSD_TOL:
                raise ValueError(f"Gram matrix is not PSD (min eigenvalue {min_eig:.3e})")
        object.__setattr__(self, "entries", s)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def restrict(self, assignment: AssignmentList) -> np.ndarray:
        """Effective per-photon overlap matrix for an assignment list;
        repeated labels mean identical photons."""
        idx = list(assignment.labels)
        if max(idx, default=-1) >= self.n:
            raise ValueError("assignment label outside the defined internal states")
        eff = self.entries[np.ix_(idx, idx)].copy()
        np.fill_diagonal(eff, 1.0)
        return eff

    def __eq__(self, other):
        return isinstance(other, DistinguishabilityMatrix) and np.array_equal(
            self.entries, other.entries
        )


def _as_gram(s) -> np.ndarray:
    if isinstance(s, DistinguishabilityMatrix):
        return s.entries
    return np.asarray(s, dtype=complex)


def _multiperm_ryser_batch(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Double inclusion-exclusion over row-index subsets of the two
    permutations:

        Perm(W) = sum_{A, B} (-1)^(|A| + |B|) prod_j (1_A^T W_j 1_B).

    The sum over B is Ryser's formula for the permanent of
    M_A[j, l] = sum_{k in A} W[k, l, j], so Perm(W) is a signed sum of 2**n
    ordinary permanents; memory grows as 4**n * n per matrix.

    a, s: (batch, n, n) photon-major matrix and effective Gram matrix.
    """
    n = a.shape[1]
    # T[b, k, j, l] = a[b, k, j] * conj(a[b, l, j]) * s[b, l, k]
    t = (
        a[:, :, :, None]
        * a.conj().transpose(0, 2, 1)[:, None, :, :]
        * s.transpose(0, 2, 1)[:, :, None, :]
    )
    table, signs = _ryser_tables(n)
    return permanent_batch(np.einsum("bkjl,kx->bxjl", t, table)) @ signs


def _real_part(vals: np.ndarray, what: str) -> np.ndarray:
    """Real part of values that the overlap invariants make real, after
    checking that the imaginary residue is rounding only."""
    scale = np.maximum(np.abs(vals), 1.0)
    if np.any(np.abs(vals.imag) > REAL_TOL * scale):
        raise ValueError(
            f"{what} has a non-real value; the overlap matrix likely "
            "violates its Hermiticity/PSD invariants"
        )
    return vals.real


def multipermanent_batch(bs: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Multipermanents of a stack of equal-size submatrices.

    `bs` holds submatrices in the fock.submatrix orientation (rows = output
    slots, columns = input photons); `ss` the matching effective Gram
    matrices. Returns real values after checking the imaginary residue.
    """
    bs = np.asarray(bs, dtype=complex)
    ss = np.asarray(ss, dtype=complex)
    if bs.ndim != 3 or bs.shape[1] != bs.shape[2]:
        raise ValueError("expected a stack of square matrices")
    if ss.shape != bs.shape:
        raise ValueError("Gram stack must match matrix stack")
    a = bs.transpose(0, 2, 1)  # photon-major: rows = input photons
    return _real_part(_multiperm_ryser_batch(a, ss), "multipermanent")


def multipermanent(b: np.ndarray, s) -> float:
    """Perm(W) for one submatrix `b` (fock.submatrix orientation) and one
    effective Gram matrix `s` of the participating photons."""
    b = _square(b)
    s_arr = _as_gram(s)
    if s_arr.shape != b.shape:
        raise ValueError(
            f"Gram matrix shape {s_arr.shape} does not match submatrix {b.shape}"
        )
    return float(multipermanent_batch(b[None], s_arr[None])[0])


def _effective_gram(s, n: int, assignment: AssignmentList | None = None) -> np.ndarray:
    """The n x n per-photon overlap matrix: `s` itself when `assignment` is
    None, else `s` indexed by internal-state label with a unit diagonal."""
    if assignment is None:
        s_eff = _as_gram(s)
    elif len(assignment) != n:
        raise ValueError("assignment length must equal the photon number")
    elif isinstance(s, DistinguishabilityMatrix):
        s_eff = s.restrict(assignment)
    else:
        idx = list(assignment.labels)
        s_eff = _as_gram(s)[np.ix_(idx, idx)].copy()
        np.fill_diagonal(s_eff, 1.0)
    if s_eff.shape != (n, n):
        raise ValueError(f"need a {n} x {n} effective Gram matrix, got {s_eff.shape}")
    return s_eff


def _occupation_factorial(state: FockState) -> int:
    out = 1
    for k in state.occupations:
        out *= factorial(k)
    return out


def output_probability(
    matrix,
    input_state: FockState,
    output_state: FockState,
    s,
    assignment: AssignmentList | None = None,
) -> float:
    """Detection probability of `output_state` given `input_state` through a
    linear circuit: Perm(W) / (prod_i n_i! * prod_j m_j!).

    `matrix` is a raw transfer matrix or anything exposing `.matrix`
    (columns index input modes). `s` is the internal-state Gram matrix,
    indexed by photon when `assignment` is None, by internal state otherwise.
    """
    m = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
    s_eff = _effective_gram(s, input_state.n_photons, assignment)
    b = submatrix(m, input_state, output_state)
    norm = _occupation_factorial(input_state) * _occupation_factorial(output_state)
    p = multipermanent(b, s_eff) / norm
    if p < -PROB_TOL or p > 1 + PROB_TOL:
        raise ValueError(f"probability {p} outside [0, 1]; inconsistent inputs")
    return float(min(max(p, 0.0), 1.0))
