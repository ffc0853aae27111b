"""Permanent kernels and the one inclusion-exclusion behind every
detection probability.

`permanent_batch` is the one permanent kernel: Ryser's formula over all
column subsets of a stack of matrices at once. `permanent_doubled_batch`
is the same formula with row and column multiplicities m_g in {1, 2}, for
every doubling of a few photons at once; at m = 1 its tables are
`permanent_batch`'s subset table and signs. Their signed sums are numpy
reductions, never BLAS matvecs (notes/decisions.md, "Doubled emissions as
multiplicities"). `permanent_naive` is the permutation-sum cross-check.

Every detection probability is a signed sum of its permanents. For
photons whose circuit columns form U (rows = output modes, columns =
photons) and whose internal states have the Gram matrix S,

    sum_{T subset C} (-1)**(|C| - |T|) perm((U^dagger diag(1_{F | T}) U) o S)

is the probability, times the input norm perm(delta_in o S), that every
clicked row C receives a photon, no silent row does and the free rows F
take the rest (`_clicked_subset_sums`; Shchesnovich, PRA 91, 013844
(2015)). `protocol.signature_probability` is this sum over the rows of a
detector signature; `_doubled_subset_sums` is it for every doubling of
the photons, from one H_T stack on the undoubled ones. The
multipermanent of one Fock output, the double-permutation sum

    Perm(W) = sum_{sigma, rho} prod_j W[sigma_j, rho_j, j],
    W[k, l, j] = A[k, j] * conj(A[l, j]) * S[l, k],

with A photon-major (row k = input photon k, column j = output slot j),
is the same sum with every output slot a clicked row and no free row:
2 ** n permanents of 2 ** n subsets each, O(4 ** n * n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod

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
def _ryser_tables(n: int, top: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Ryser's tables for multiplicities up to `top`: the (n, (top+1)**n)
    table whose column x holds counts x_g in 0..top (digit g of x in base
    top + 1), and the (top**n, (top+1)**n) coefficients

        (-1)**(|m| - |x|) prod_g C(m_g, x_g),

    row M for the multiplicities m_g = 1 + (digit g of M in base top), so
    0 wherever some x_g > m_g. At top = 1 they are the 0/1 subset table
    and the one row of Ryser signs (-1)**(n - |X|)."""
    xs = [x[::-1] for x in itertools.product(range(top + 1), repeat=n)]
    ms = [tuple(1 + g for g in m[::-1]) for m in itertools.product(range(top), repeat=n)]
    coefs = np.array(
        [[(-1) ** (sum(m) + sum(x)) * prod(map(comb, m, x)) for x in xs] for m in ms], dtype=float
    )
    table = np.array([[x[g] for x in xs] for g in range(n)], dtype=complex).reshape(n, len(xs))
    for cached in (table, coefs):
        cached.flags.writeable = False
    return table, coefs


def permanent_batch(a) -> np.ndarray:
    """Permanents of a stack of square matrices, shape (..., n, n), by
    Ryser's formula over all column subsets X at once:

        perm(A) = sum_X (-1)**(n - |X|) prod_i sum_{j in X} A[i, j].

    One matmul against the cached subset table gives every row sum; a
    product over rows and a signed sum over the subsets finish it. The
    signed sum is a numpy reduction: as a matvec, OpenBLAS hands it to a
    second thread that then spins (notes/decisions.md). Beyond BLOCK_BITS
    columns the subsets of the trailing columns are walked in blocks, so
    no (n, 2**n) table is ever built.
    """
    a = _square_stack(a)
    n = a.shape[-1]
    low = min(n, BLOCK_BITS)
    table, (signs,) = _ryser_tables(low)
    sums = a[..., :low] @ table
    if n == low:
        return (np.prod(sums, axis=-2) * signs).sum(axis=-1)
    high = a[..., low:]
    total = np.zeros(a.shape[:-2], dtype=complex)
    for block in range(1 << (n - low)):
        bits = (block >> np.arange(n - low)) & 1
        sign = (-1.0) ** (n - low - int(bits.sum()))
        total += sign * (np.prod(sums + (high @ bits)[..., None], axis=-2) * signs).sum(axis=-1)
    return total


def permanent_doubled_batch(a) -> np.ndarray:
    """Permanents of every doubling of a stack of square matrices (..., n, n):
    entry M of the result, shape (..., 2**n), is the permanent of the
    matrix in which row and column g appear twice when bit g of M is set,
    so entry 0 is `permanent_batch(a)`. Ryser's formula with
    multiplicities m_g in {1, 2} (Chin & Huh, Sci. Rep. 8, 6101 (2018)),

        perm = sum_{0 <= x_g <= m_g} (-1)**(|m| - |x|) prod_g C(m_g, x_g)
               prod_i (sum_g x_g A[i, g]) ** m_i,

    runs over one cached table of x in {0, 1, 2}**n for every M at once;
    the coefficient is 0 where x_g > m_g. Memory grows as 6**n, so this
    is for the few photons of one emission mixture.
    """
    a = _square_stack(a)
    table, coefs = _ryser_tables(a.shape[-1], 2)
    rows = np.moveaxis(a @ table, -2, 0)  # (n, ..., 3**n)
    # prod_i rows_i ** m_i: the product over all rows times the product over
    # the doubled rows, built one row (one bit of M) at a time
    terms = np.empty((len(coefs), *rows.shape[1:]), dtype=complex)
    terms[0] = np.prod(rows, axis=0)
    for i, row in enumerate(rows):
        np.multiply(terms[: 1 << i], row, out=terms[1 << i : 2 << i])
    # einsum sums without BLAS and without a temporary as large as `terms`
    return np.einsum("m...x,mx->...m", terms, coefs)


def permanent(a) -> complex:
    """Matrix permanent by Ryser's formula, O(2**n * n)."""
    return complex(permanent_batch(_square(a)))


def _square_stack(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"stack of square matrices required, got shape {a.shape}")
    return a


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
        return _effective_gram(self.entries, len(assignment), assignment)

    def __eq__(self, other):
        return isinstance(other, DistinguishabilityMatrix) and np.array_equal(
            self.entries, other.entries
        )


def _as_gram(s) -> np.ndarray:
    if isinstance(s, DistinguishabilityMatrix):
        return s.entries
    return np.asarray(s, dtype=complex)


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


# squared norm below which `_clicked_subset_sums` rescales a filled signature
DARK = 2.0**-8


@lru_cache(maxsize=None)
def _subset_masks(
    n_rows: int, clicked: tuple[int, ...], silent: tuple[int, ...], free: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Indicator rows of K = free rows | T (K = T when `free` is false)
    for every T subset of `clicked`, shape (2**|clicked|, n_rows), and
    the signs (-1)**(|clicked| - |T|). Free rows are all rows neither
    clicked nor silent."""
    masks = np.full((1 << len(clicked), n_rows), float(free))
    masks[:, list(silent)] = 0.0
    bits = (np.arange(len(masks))[:, None] >> np.arange(len(clicked))) & 1
    masks[:, list(clicked)] = bits
    signs = (-1.0) ** (len(clicked) - bits.sum(axis=1))
    for cached in (masks, signs):
        cached.flags.writeable = False
    return masks, signs


def _clicked_subset_sums(
    u: np.ndarray, s: np.ndarray, clicked: tuple[int, ...], silent: tuple[int, ...] = ()
) -> np.ndarray:
    """For each of p photon sets, the inclusion-exclusion sum

        sum_{T subset C} (-1)**(|C| - |T|) perm(H_T o S),
        H_T = U^dagger diag(1_{F | T}) U,

    over the clicked rows C of `u` (p, n_rows, n), with `s` (p, n, n) the
    matching Gram matrices and F every row neither clicked nor silent.
    Needs n >= |C|. With n == |C| no photon is left for F, so F is dropped
    from every term, and nearly dark rows or photons are rescaled
    exactly (notes/decisions.md). Returns real values.
    """
    p, n_rows, n = u.shape
    # with one photon per clicked row none is left for the free rows;
    # dropping them keeps the terms near the result's size (less cancellation)
    filled = n == len(clicked)
    masks, signs = _subset_masks(n_rows, clicked, silent, not filled)
    weights, shift = masks[None], 0
    w = np.abs(u[:, clicked]) ** 2  # (p, c, n)
    if filled and min(w.sum(axis=1).min(), w.sum(axis=2).min()) < DARK:
        # P is linear in |U[m, k]|**2 for each clicked row m and photon k, so
        # scaling columns, then rows, by powers of two to norms in [0.5, 1) is
        # exact and keeps nearly dark ones out of the terms' rounding; the
        # exponent floor keeps every factor finite (notes/decisions.md)
        e_col = np.maximum(np.frexp(np.sqrt(w.sum(axis=1)))[1], -400)
        u = u * np.ldexp(1.0, -e_col)[:, None, :]
        w = np.ldexp(w, -2 * e_col[:, None, :])
        e_row = np.maximum(np.frexp(np.sqrt(w.sum(axis=2)))[1], -400)
        row = np.ones((p, n_rows))
        row[:, list(clicked)] = np.ldexp(1.0, -2 * e_row)
        weights = masks[None] * row[:, None, :]
        shift = 2 * (e_row.sum(axis=1) + e_col.sum(axis=1))
    perms = permanent_batch(_subset_stack(u, weights) * s[:, None])
    return np.ldexp(_real_part((perms * signs).sum(axis=-1), "detection probability"), shift)


def _subset_stack(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """H_T = U^dagger diag(w_T) U for every row-weight vector w_T, from
    `u` (p, n_rows, n) and `weights` (p or 1, k, n_rows): (p, k, n, n)."""
    return (u.conj().transpose(0, 2, 1)[:, None] * weights[:, :, None, :]) @ u[:, None]


def _doubled_subset_sums(
    u: np.ndarray, s: np.ndarray, clicked: tuple[int, ...], silent: tuple[int, ...] = ()
) -> np.ndarray:
    """`_clicked_subset_sums` for every doubling of each of p photon sets:
    entry M of the (p, 2**n) result is the sum for the photons in which
    photon g is doubled (a second photon in the same mode and internal
    state) when bit g of M is set. One H_T stack on the n photons serves
    every M (`permanent_doubled_batch`). Needs n >= |C|; the free rows stay
    in every term, so with n == |C| entry 0 lacks the filled path's
    accuracy and callers take it from `_clicked_subset_sums`.
    """
    masks, signs = _subset_masks(u.shape[1], clicked, silent, True)
    perms = permanent_doubled_batch(_subset_stack(u, masks[None]) * s[:, None])
    return _real_part((perms.swapaxes(-1, -2) * signs).sum(axis=-1), "detection probability")


def _input_norm(in_modes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Squared norms perm(delta_in o S) of p input states, from each
    photon's input mode (p, n) and the Gram matrices (p, n, n);
    delta_in[k, l] = 1 when photons k and l share a mode."""
    same_mode = in_modes[:, :, None] == in_modes[:, None, :]
    return _real_part(permanent_batch(same_mode * s), "input-state norm")


def _doubled_input_norms(in_modes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """`_input_norm` for every doubling of each input state, (p, 2**n),
    indexed as in `_doubled_subset_sums`."""
    same_mode = in_modes[:, :, None] == in_modes[:, None, :]
    return _real_part(permanent_doubled_batch(same_mode * s), "input-state norm")


def multipermanent_batch(bs: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Multipermanents of a stack of equal-size submatrices.

    `bs` holds submatrices in the fock.submatrix orientation (rows = output
    slots, columns = input photons); `ss` the matching effective Gram
    matrices. Each is the all-clicked inclusion-exclusion sum with every
    output slot a clicked row (see the module docstring). Returns real
    values after checking the imaginary residue.
    """
    bs = np.asarray(bs, dtype=complex)
    ss = np.asarray(ss, dtype=complex)
    if bs.ndim != 3 or bs.shape[1] != bs.shape[2]:
        raise ValueError("expected a stack of square matrices")
    if ss.shape != bs.shape:
        raise ValueError("Gram stack must match matrix stack")
    return _clicked_subset_sums(bs, ss, tuple(range(bs.shape[1])))


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
    s_eff = _as_gram(s)
    if assignment is not None:
        if len(assignment) != n:
            raise ValueError("assignment length must equal the photon number")
        idx = list(assignment.labels)
        if max(idx, default=-1) >= s_eff.shape[0]:
            raise ValueError("assignment label outside the defined internal states")
        s_eff = s_eff[np.ix_(idx, idx)]
        np.fill_diagonal(s_eff, 1.0)
    if s_eff.shape != (n, n):
        raise ValueError(f"need a {n} x {n} effective Gram matrix, got {s_eff.shape}")
    return s_eff


def output_probability(
    matrix,
    input_state: FockState,
    output_state: FockState,
    s,
    assignment: AssignmentList | None = None,
) -> float:
    """Detection probability of `output_state` given `input_state` through a
    linear circuit: Perm(W) / (perm(delta_in o S) * prod_j m_j!).

    perm(delta_in o S) is the squared norm of the input state, as in
    `protocol.signature_probability`; it is prod_i n_i! when photons
    sharing an input mode share their internal state. `matrix` is a raw
    transfer matrix or anything exposing `.matrix` (columns index input
    modes). `s` is the internal-state Gram matrix, indexed by photon when
    `assignment` is None, by internal state otherwise.
    """
    m = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
    s_eff = _effective_gram(s, input_state.n_photons, assignment)
    b = submatrix(m, input_state, output_state)
    in_norm = _input_norm(np.array([input_state.mode_list()]), s_eff[None])[0]
    out_norm = prod(factorial(k) for k in output_state.occupations)
    p = multipermanent(b, s_eff) / (in_norm * out_norm)
    if p < -PROB_TOL or p > 1 + PROB_TOL:
        raise ValueError(f"probability {p} outside [0, 1]; inconsistent inputs")
    return float(min(max(p, 0.0), 1.0))
