"""Linear-optical transfer matrices: beamsplitters, the two-copy purifier
and its no-interference reference, with loss via unitary dilation.

Convention: matrices act in the applied sense, column q holds the output
amplitudes of a single photon entering mode q, so `purifier_circuits`
multiplies its stages right to left (last optical element = leftmost
factor).

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
LOSS_STAGES = ("input", "after_first_bs")


@dataclass(frozen=True)
class TransferMatrix:
    """Complex mode transformation of a passive circuit.

    The first `n_physical` modes are the physical ones; the ancilla modes
    introduced by loss dilation follow them, start in vacuum and are never
    monitored.
    """

    matrix: np.ndarray
    n_physical: int

    def __init__(self, matrix, n_physical=None):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("transfer matrix must be square")
        n_physical = m.shape[0] if n_physical is None else int(n_physical)
        if not 0 <= n_physical <= m.shape[0]:
            raise ValueError("n_physical must lie between 0 and the mode count")
        if not np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=UNITARY_TOL):
            raise ValueError("matrix is not unitary within tolerance")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_physical", n_physical)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]


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


def _loss_couplers(transmissions) -> np.ndarray | None:
    """Couplers of reflectivity 1 - transmission from each lossy purifier
    mode to a vacuum ancilla numbered from 6 on; None if no loss."""
    transmissions = [float(x) for x in transmissions]
    if len(transmissions) != 6:
        raise ValueError("one transmission per physical mode required")
    if any(not 0.0 <= x <= 1.0 for x in transmissions):
        raise ValueError("transmissions must be in [0, 1]")
    lossy = [i for i, x in enumerate(transmissions) if x < 1.0 - 1e-15]
    if not lossy:
        return None
    total = 6 + len(lossy)
    loss = np.eye(total, dtype=complex)
    for a, i in enumerate(lossy):
        loss = beamsplitter_matrix(1.0 - transmissions[i], (i, 6 + a), total) @ loss
    return loss


def purifier_circuits(
    r1: float, r2: float, r_final: float, transmissions=None, loss_stage: str = "input"
) -> tuple[TransferMatrix, TransferMatrix]:
    """The two-copy purifier `out` and its reference `ref`, which lacks the
    final coupler on (2, 3): first couplers (0, 1), (4, 5) of reflectivity
    r1, second couplers (1, 2), (3, 4) of reflectivity r2. Per-mode
    `transmissions` add one vacuum ancilla per lossy mode, coupled at the
    inputs or after the first couplers (`loss_stage`)."""
    if loss_stage not in LOSS_STAGES:
        raise ValueError(f"loss_stage must be one of {LOSS_STAGES}")
    loss = None if transmissions is None else _loss_couplers(transmissions)
    n = 6 if loss is None else loss.shape[0]
    first = beamsplitter_matrix(r1, (0, 1), n) @ beamsplitter_matrix(r1, (4, 5), n)
    second = beamsplitter_matrix(r2, (1, 2), n) @ beamsplitter_matrix(r2, (3, 4), n)
    if loss is not None and loss_stage == "after_first_bs":
        first = loss @ first
    ref = second @ first
    out = beamsplitter_matrix(r_final, (2, 3), n) @ ref
    if loss is not None and loss_stage == "input":
        ref, out = ref @ loss, out @ loss
    return TransferMatrix(out, n_physical=6), TransferMatrix(ref, n_physical=6)


def purifier_pair_circuit(r1: float, r2: float, r_final: float) -> TransferMatrix:
    """Two copies of the bunch-and-split purifier whose outputs meet at a
    final beamsplitter on modes (2, 3)."""
    return purifier_circuits(r1, r2, r_final)[0]
