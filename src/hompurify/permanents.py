"""Permanent kernels and the one inclusion-exclusion behind every
detection probability on a general circuit (the purifier's heralded
signature without a doubled emission has a closed form in `protocol`).

`permanent_batch` is the one permanent kernel: Ryser's formula over all
column subsets of a stack of matrices at once. `permanent_mixture_batch`
is the same formula with row and column multiplicities m_g in {1, 2}: it
sums the permanents of every doubling of a few photons per number of
doubled photons, one factor per photon on a degree axis, unweighted; at
m = 1 its tables are `permanent_batch`'s subset table and signs. Their
signed sums are numpy reductions, never BLAS matvecs (notes/decisions.md,
"Doubled emissions as multiplicities").
`permanent_naive` is the permutation-sum cross-check.

Every detection probability is a signed sum of its permanents. For
photons whose circuit columns form U (rows = output modes, columns =
photons) and whose internal states have the Gram matrix S,

    sum_{T subset C} (-1)**(|C| - |T|) perm((U^dagger diag(1_{F | T}) U) o S)

is the probability, times the input norm perm(delta_in o S), that every
clicked row C receives a photon, no silent row does and the free rows F
take the rest (`_clicked_subset_sums`; Shchesnovich, PRA 91, 013844
(2015)). `protocol.signature_probability` is this sum over the rows of a
detector signature; with `doubled` the same body sums it over the
doublings of the photons per their number, from one H_T stack on the
undoubled ones for all Gram matrices of a table, one kernel call each. The
multipermanent of one Fock output, the double-permutation sum

    Perm(W) = sum_{sigma, rho} prod_j W[sigma_j, rho_j, j],
    W[k, l, j] = A[k, j] * conj(A[l, j]) * S[l, k],

with A photon-major (row k = input photon k, column j = output slot j),
is the same sum with every output slot a clicked row and no free row:
2 ** n permanents of 2 ** n subsets each, O(4 ** n * n). It and every
signature whose photons exactly fill the clicked rows rescale rows and
photons by powers of two inside that one body. Every subset table and
sign comes from `_ryser_tables`.
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
def _ryser_tables(n: int, top: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ryser's tables for multiplicities up to `top`: the (n, (top+1)**n)
    table whose column x holds counts x_g in 0..top (digit g of x in base
    top + 1); the per-photon coefficients (-1)**(m - x_g) C(m, x_g) of each
    multiplicity m = 1..top, shape (top, n, (top+1)**n), 0 wherever
    x_g > m; and their product over the photons at m = 1, Ryser's signs
    (-1)**(n - |x|) (0 off the 0/1 columns). At top = 1 they are the 0/1
    subset table and the signs of `permanent_batch`."""
    xs = [x[::-1] for x in itertools.product(range(top + 1), repeat=n)]
    table = np.array([[x[g] for x in xs] for g in range(n)], dtype=complex).reshape(n, len(xs))
    coefs = np.array(
        [[[(-1) ** (m + x[g]) * comb(m, x[g]) for x in xs] for g in range(n)]
         for m in range(1, top + 1)], dtype=float
    ).reshape(top, n, len(xs))
    signs = coefs[0].prod(axis=0)
    for cached in (table, coefs, signs):
        cached.flags.writeable = False
    return table, coefs, signs


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
    table, _, signs = _ryser_tables(low)
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


def permanent_mixture_batch(a) -> np.ndarray:
    """D_1..D_n on a trailing axis, shape (..., n), for a stack of square
    matrices A (..., n, n): D_k = sum_{|M| = k} perm(A[M]), A[M] holding
    row and column g twice for each g in M. Ryser's formula with
    multiplicities m_g in {1, 2} (Chin & Huh, Sci. Rep. 8, 6101 (2018))
    runs over one cached table of x in {0, 1, 2}**n, with R_g =
    sum_h x_h A[g, h] and c_m(x_g) = (-1)**(m - x_g) C(m, x_g). The sum
    over M factors per photon into a_g = c1 R_g (g single) and
    b_g = c2 R_g**2 (g doubled), and a degree axis counts the doubled
    photons: photon by photon and in place, poly[k] <- poly[k] a_g +
    poly[k - 1] b_g. poly[0], the undoubled permanent's term, is never
    summed into a D_k (notes/decisions.md, "Doubled emissions as
    multiplicities").
    """
    a = _square_stack(a)
    table, (c1, c2), _ = _ryser_tables(a.shape[-1], 2)
    rows = np.moveaxis(a @ table, -2, 0)  # (n, ..., 3**n)
    poly = np.zeros((len(rows) + 1,) + rows.shape[1:], dtype=complex)
    poly[0] = 1.0
    for g, row in enumerate(rows):
        single = row * c1[g]
        double = row * row
        double *= c2[g]
        np.multiply(poly[g], double, out=poly[g + 1])
        for k in range(g, 0, -1):
            poly[k] *= single
            poly[k] += poly[k - 1] * double
        poly[0] *= single
    return np.moveaxis(poly[1:].sum(axis=-1), 0, -1)


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
        if s.ndim != 2:
            raise ValueError("Gram matrix must be square")
        _checked_grams(s[None])
        object.__setattr__(self, "entries", s)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other):
        return isinstance(other, DistinguishabilityMatrix) and np.array_equal(
            self.entries, other.entries
        )


def _checked_grams(s) -> np.ndarray:
    """A stack of Gram matrices (g, n, n) as a complex array, each one
    checked as `DistinguishabilityMatrix` documents: finite, Hermitian,
    unit diagonal, |entries| <= 1 and, by one batched `eigvalsh`, PSD. A
    stack whose k-th matrix is bad raises the message that matrix raises
    alone."""
    s = np.asarray(s, dtype=complex)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError("Gram matrix must be square")
    if not np.isfinite(s).all():
        raise ValueError("Gram matrix entries must be finite")
    # absolute, at the tolerance every detection probability is held
    # real to: a larger asymmetry would pass here and fail in the
    # kernels, and a larger diagonal defect would silently shift them
    if not (np.abs(s - s.conj().transpose(0, 2, 1)) <= REAL_TOL).all():
        raise ValueError("Gram matrix must be Hermitian")
    if not (np.abs(s.diagonal(axis1=1, axis2=2) - 1.0) <= REAL_TOL).all():
        raise ValueError("Gram matrix must have unit diagonal")
    if np.any(np.abs(s) > 1 + 1e-10):
        raise ValueError("overlap magnitudes cannot exceed 1")
    if s.shape[1] > 1:
        min_eigs = np.linalg.eigvalsh(s)[:, 0]
        low = min_eigs < -PSD_TOL
        if low.any():
            min_eig = float(min_eigs[low.argmax()])
            raise ValueError(f"Gram matrix is not PSD (min eigenvalue {min_eig:.3e})")
    return s


def _as_gram(s) -> np.ndarray:
    """Entries of `s` as a checked Gram matrix: anything that is not a
    `DistinguishabilityMatrix` is built into one."""
    if not isinstance(s, DistinguishabilityMatrix):
        s = DistinguishabilityMatrix(s)
    return s.entries


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


def _clicked_subset_sums(
    u: np.ndarray,
    s: np.ndarray,
    clicked: tuple[int, ...],
    silent: tuple[int, ...] = (),
    doubled: bool = False,
) -> np.ndarray:
    """For each of g Gram matrices `s` (g, n, n) and p photon sets `u`
    (p, n_rows, n), shape (g, p), the inclusion-exclusion sum

        sum_{T subset C} (-1)**(|C| - |T|) perm(H_T o S),
        H_T = U^dagger diag(1_{F | T}) U,

    over the clicked rows C, with F every row neither clicked nor silent.
    Needs n >= |C|. The H_T stack is built once and each Gram matrix runs
    one kernel call on it (notes/decisions.md, "One H_T stack per table").
    With `doubled` each perm is `permanent_mixture_batch`'s D_1..D_n over
    the doublings of the photons (a second photon in a photon's mode and
    state), and the result gains a trailing axis, shape (g, p, n).

    Without doublings and with n == |C| no photon is left for F, so only
    the clicked rows enter. The sum is then linear in |U[m, k]|**2 for
    each row m and photon k, so scaling photons, then rows, by powers of
    two to norms in [0.5, 1) is exact and keeps nearly dark ones out of
    the terms' rounding; the exponent floor keeps every factor finite, and
    `np.ldexp` undoes the scale on the result (notes/decisions.md).
    Returns real values.
    """
    shift = 0
    if not doubled and u.shape[-1] == len(clicked):
        u = u[:, list(clicked)]
        e_col = np.maximum(np.frexp(np.hypot.reduce(np.abs(u), axis=1))[1], -1021)
        u = u * np.ldexp(1.0, -e_col)[:, None, :]
        e_row = np.maximum(np.frexp(np.hypot.reduce(np.abs(u), axis=2))[1], -1021)
        u = u * np.ldexp(1.0, -e_row)[:, :, None]
        shift = 2 * (e_row.sum(axis=1) + e_col.sum(axis=1))
        clicked, silent = tuple(range(u.shape[1])), ()
    table, _, signs = _ryser_tables(len(clicked))
    masks = np.ones((len(signs), u.shape[1]))
    masks[:, list(silent)] = 0.0
    masks[:, list(clicked)] = table.T.real
    h = (u.conj().transpose(0, 2, 1)[:, None] * masks[:, None, :]) @ u[:, None]
    kernel = permanent_mixture_batch if doubled else permanent_batch
    sums = np.array([(np.moveaxis(kernel(h * s_g), 1, -1) * signs).sum(axis=-1) for s_g in s])
    return np.ldexp(_real_part(sums, "detection probability"), shift)


def _input_norm(in_modes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Squared norms perm(delta_in o S) of p input states, from each
    photon's input mode (p, n) and the Gram matrices (p, n, n);
    delta_in[k, l] = 1 when photons k and l share a mode."""
    same_mode = in_modes[:, :, None] == in_modes[:, None, :]
    return _real_part(permanent_batch(same_mode * s), "input-state norm")


def multipermanent(b: np.ndarray, s) -> float:
    """Perm(W) for one submatrix `b` (fock.submatrix orientation: rows =
    output slots, columns = input photons) and one effective Gram matrix
    `s` of the participating photons: the inclusion-exclusion sum with
    every output slot a clicked row (see the module docstring)."""
    b = _square(b)
    s_arr = _as_gram(s)
    if s_arr.shape != b.shape:
        raise ValueError(
            f"Gram matrix shape {s_arr.shape} does not match submatrix {b.shape}"
        )
    return float(_clicked_subset_sums(b[None], s_arr[None], tuple(range(b.shape[0])))[0, 0])


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
