"""Fock-state bookkeeping: occupation vectors, internal-state assignments,
detector click signatures, transfer-matrix submatrices and the enumeration
of output states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import numpy as np


@dataclass(frozen=True)
class FockState:
    """Photon occupation numbers, one entry per optical mode."""

    occupations: tuple[int, ...]

    def __init__(self, occupations):
        object.__setattr__(self, "occupations", tuple(int(k) for k in occupations))
        if any(k < 0 for k in self.occupations):
            raise ValueError(f"occupations must be non-negative, got {self.occupations}")

    @property
    def n_photons(self) -> int:
        return sum(self.occupations)

    @property
    def n_modes(self) -> int:
        return len(self.occupations)

    def mode_list(self) -> list[int]:
        """Expand occupations into a per-photon mode list, modes ascending,
        repetitions contiguous: (0, 2, 1) -> [1, 1, 2]."""
        out: list[int] = []
        for mode, k in enumerate(self.occupations):
            out.extend([mode] * k)
        return out


@dataclass(frozen=True)
class AssignmentList:
    """Internal-state label for each photon of an input state.

    The j-th entry names which internal state the j-th photon carries
    (photons ordered as in FockState.mode_list). Repeated labels mean
    identical internal states, e.g. a re-excitation photon sharing its
    sibling's wavepacket.
    """

    labels: tuple[int, ...]

    def __init__(self, labels):
        object.__setattr__(self, "labels", tuple(int(x) for x in labels))
        if any(x < 0 for x in self.labels):
            raise ValueError("internal-state labels must be non-negative")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ClickPattern:
    """Detector click signature. Detector d watches mode ``modes[d]`` and
    either fired (``clicks[d]`` true) or stayed silent. Modes without a
    detector are unconstrained; a silent detector demands zero photons.
    """

    clicks: tuple[bool, ...]
    modes: tuple[int, ...]

    def __init__(self, clicks, modes):
        object.__setattr__(self, "clicks", tuple(bool(c) for c in clicks))
        object.__setattr__(self, "modes", tuple(int(m) for m in modes))
        if len(self.clicks) != len(self.modes):
            raise ValueError("one mode per detector required")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("each detector maps to exactly one output mode")

    @classmethod
    def from_modes(cls, clicked=(), silent=()) -> "ClickPattern":
        clicked, silent = tuple(clicked), tuple(silent)
        if set(clicked) & set(silent):
            raise ValueError("a mode cannot be both clicked and silent")
        modes = clicked + silent
        return cls((True,) * len(clicked) + (False,) * len(silent), modes)

    @property
    def clicked_modes(self) -> tuple[int, ...]:
        return tuple(m for m, c in zip(self.modes, self.clicks) if c)

    @property
    def silent_modes(self) -> tuple[int, ...]:
        return tuple(m for m, c in zip(self.modes, self.clicks) if not c)

    def merge(self, other: "ClickPattern") -> "ClickPattern":
        """Combine two disjoint detector sets into one signature."""
        if set(self.modes) & set(other.modes):
            raise ValueError("patterns watch overlapping modes")
        return ClickPattern(self.clicks + other.clicks, self.modes + other.modes)


def submatrix(matrix: np.ndarray, input_state: FockState, output_state: FockState) -> np.ndarray:
    """Extract the n x n matrix governing an input -> output transition.

    Column j of `matrix` is repeated once per photon in input mode j, row i
    once per photon in output mode i; modes ascending, repetitions
    contiguous. `matrix` follows the applied convention (columns index
    input modes).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"transfer matrix must be square, got {matrix.shape}")
    if input_state.n_modes != matrix.shape[0] or output_state.n_modes != matrix.shape[0]:
        raise ValueError("mode count of states does not match matrix dimension")
    n = input_state.n_photons
    if n != output_state.n_photons:
        raise ValueError(
            f"photon number mismatch: input {n}, output {output_state.n_photons}"
        )
    if n < 1:
        raise ValueError("at least one photon required")
    rows = output_state.mode_list()
    cols = input_state.mode_list()
    return matrix[np.ix_(rows, cols)]


@lru_cache(maxsize=None)
def _compositions(n: int, parts: int) -> tuple[tuple[int, ...], ...]:
    if parts == 1:
        return ((n,),)
    out = []
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_outputs(n_photons: int, n_modes: int) -> list[FockState]:
    """All Fock states of ``n_photons`` in ``n_modes``, each exactly once,
    in descending lexicographic order: (2, 2) -> (2,0), (1,1), (0,2).
    The list has C(n + m - 1, m - 1) elements.
    """
    if n_photons < 0:
        raise ValueError("n_photons must be >= 0")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return [FockState(c) for c in _compositions(n_photons, n_modes)]
