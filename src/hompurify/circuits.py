"""Linear-optical transfer matrices: beamsplitters, the two-copy purifier,
its no-interference reference, and loss via unitary dilation.

Convention: matrices act in the applied sense, column q holds the output
amplitudes of a single photon entering mode q, and stages compose right to
left (last optical element = leftmost factor).

Purifier mode layout (0-indexed):

    0, 1   copy-A inputs; mode 0 ends on the silent herald detector
    2, 3   purified outputs, meeting at the final beamsplitter
    4, 5   copy-B inputs; mode 5 ends on the silent herald detector
    1, 4   split heralds (one click each on success)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class TransferMatrix:
    """Complex mode transformation of a passive circuit.

    Ancilla modes introduced by loss dilation sit after the physical modes
    and are listed in `loss_modes`; they start in vacuum and are never
    monitored.
    """

    matrix: np.ndarray
    n_physical: int
    loss_modes: tuple[int, ...] = ()

    def __init__(self, matrix, n_physical=None, loss_modes=()):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("transfer matrix must be square")
        n_physical = m.shape[0] - len(loss_modes) if n_physical is None else int(n_physical)
        loss_modes = tuple(int(i) for i in loss_modes)
        if loss_modes != tuple(range(n_physical, m.shape[0])):
            raise ValueError("loss ancillas must be the trailing modes")
        if not np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=UNITARY_TOL):
            raise ValueError("matrix is not unitary within tolerance")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_physical", n_physical)
        object.__setattr__(self, "loss_modes", loss_modes)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_ancilla(self) -> int:
        return len(self.loss_modes)


def _bs_block(reflectivity: float) -> np.ndarray:
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must be in [0, 1], got {reflectivity}")
    t = np.sqrt(1.0 - reflectivity)
    r = np.sqrt(reflectivity)
    return np.array([[t, 1j * r], [1j * r, t]])


def beamsplitter_matrix(reflectivity: float, modes: tuple[int, int], total_modes: int) -> np.ndarray:
    i, j = modes
    if i == j:
        raise ValueError("beamsplitter needs two distinct modes")
    if not (0 <= i < total_modes and 0 <= j < total_modes):
        raise ValueError(f"modes {modes} outside a {total_modes}-mode circuit")
    u = np.eye(total_modes, dtype=complex)
    block = _bs_block(reflectivity)
    u[i, i] = block[0, 0]
    u[i, j] = block[0, 1]
    u[j, i] = block[1, 0]
    u[j, j] = block[1, 1]
    return u


def beamsplitter(reflectivity: float, modes: tuple[int, int], total_modes: int) -> TransferMatrix:
    """Identity except a [[sqrt(1-R), i sqrt(R)], [i sqrt(R), sqrt(1-R)]]
    block coupling the two given modes."""
    return TransferMatrix(beamsplitter_matrix(reflectivity, modes, total_modes))


def compose(later: TransferMatrix, earlier: TransferMatrix) -> TransferMatrix:
    """Apply `earlier` first, then `later`; the narrower matrix is padded
    with identity on the other's loss ancillas."""
    if later.n_physical != earlier.n_physical:
        raise ValueError("stages act on different physical mode counts")
    if later.loss_modes and earlier.loss_modes:
        raise ValueError("at most one stage per composition may carry loss ancillas")
    total = max(later.n_modes, earlier.n_modes)

    def pad(t: TransferMatrix) -> np.ndarray:
        if t.n_modes == total:
            return t.matrix
        out = np.eye(total, dtype=complex)
        out[: t.n_modes, : t.n_modes] = t.matrix
        return out

    return TransferMatrix(
        pad(later) @ pad(earlier),
        n_physical=later.n_physical,
        loss_modes=tuple(range(later.n_physical, total)),
    )


def purifier_stages(r1: float, r2: float, r_final: float):
    """The three stages of the two-copy purifier as separate 6-mode
    transfer matrices, in propagation order."""
    first = TransferMatrix(
        beamsplitter_matrix(r1, (0, 1), 6) @ beamsplitter_matrix(r1, (4, 5), 6)
    )
    second = TransferMatrix(
        beamsplitter_matrix(r2, (1, 2), 6) @ beamsplitter_matrix(r2, (3, 4), 6)
    )
    final = TransferMatrix(beamsplitter_matrix(r_final, (2, 3), 6))
    return first, second, final


def purifier_pair_circuit(r1: float, r2: float, r_final: float) -> TransferMatrix:
    """Two copies of the bunch-and-split purifier whose outputs meet at a
    final beamsplitter on modes (2, 3)."""
    first, second, final = purifier_stages(r1, r2, r_final)
    return compose(final, compose(second, first))


def reference_circuit(r1: float, r2: float) -> TransferMatrix:
    """Purifier pair with the final coupler replaced by an identity, so the
    purified photons reach their detectors without interfering."""
    first, second, _ = purifier_stages(r1, r2, 0.0)
    return compose(second, first)


def with_loss(t: TransferMatrix, transmissions, where: str = "input") -> TransferMatrix:
    """Dilate `t` with one vacuum ancilla per lossy physical mode, coupled
    through a beamsplitter of reflectivity 1 - transmission.

    `where` places the loss couplers before ("input") or after ("output")
    the circuit. Probabilities of physical outcomes follow by summing over
    all ancilla occupations; `loss_modes` marks the ancillas.
    """
    transmissions = [float(x) for x in transmissions]
    if len(transmissions) != t.n_physical:
        raise ValueError("one transmission per physical mode required")
    if any(not 0.0 <= x <= 1.0 for x in transmissions):
        raise ValueError("transmissions must be in [0, 1]")
    if where not in ("input", "output"):
        raise ValueError("where must be 'input' or 'output'")
    lossy = [i for i, x in enumerate(transmissions) if x < 1.0 - 1e-15]
    if not lossy:
        return t
    n_new = len(lossy)
    total = t.n_modes + n_new
    loss = np.eye(total, dtype=complex)
    for a, i in enumerate(lossy):
        anc = t.n_modes + a
        loss = beamsplitter_matrix(1.0 - transmissions[i], (i, anc), total) @ loss
    padded = np.eye(total, dtype=complex)
    padded[: t.n_modes, : t.n_modes] = t.matrix
    full = padded @ loss if where == "input" else loss @ padded
    return TransferMatrix(
        full,
        n_physical=t.n_physical,
        loss_modes=tuple(range(t.n_physical, total)),
    )
