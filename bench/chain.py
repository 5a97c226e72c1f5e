"""The n-stage Stern-Gerlach chain and its closed-form answers.

The chain extends the package's double Stern-Gerlach reference model to n
magnet stages.  A spin-1/2 particle leaves the source with record R0; at
stage s a magnet whose axis alternates y, x, y, ... either sends the
particle on along the beam and writes the up-record R_s, or stops it in
the barrier and writes the lost-record L_s.  The record register is
system1 (d1 = 2n + 1); system2 is spin (x) {source, beam, barrier}
(d2 = 6), so d = 6 (2n + 1) and the grid has n + 1 indices.

The physical family is the forward closure of the two source spin states,
with each stage's two branch states added as extra generators at that
stage's index, so P(k) has rank 2 at k = 0, 1 and k + 1 after that.

Every product basis ket carries a seeded phase.  Phases change every
matrix entry but no probability, so the seed varies the inputs while the
closed-form answers below stay exact.  Given the up-record R_s at index s:

* forward: R_{s+j} at s+j has probability 2**-j, because each magnet is
  perpendicular to the one before it;
* retrodiction (approx, before and intermediate rules): every earlier
  up-record R_j at j has probability 1.

Depth limit: the weight of R_n at n halves with every stage, and at
n = 32 it is 4.7e-10, below the default ``eps_zero`` of 1e-9; the
before-rule then refuses and the start index shifts from 1 to 4.  Grow d
past n of about 20 by widening the model, not by adding stages.
"""

from __future__ import annotations

import numpy as np

SOURCE, BEAM, BARRIER = 0, 1, 2
N_CELLS = 3
D2 = 2 * N_CELLS

_H = 1 / np.sqrt(2)
# (plus, minus) eigenvectors of each magnet axis, in the z basis.
SPIN = {
    "z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "x": (np.array([_H, _H], dtype=complex), np.array([_H, -_H], dtype=complex)),
    "y": (np.array([_H, 1j * _H], dtype=complex), np.array([_H, -1j * _H], dtype=complex)),
}
_SPIN_SLOT = {(a, sign): i for i, (a, sign) in
              enumerate((a, sign) for a in "zxy" for sign in (0, 1))}


def axis(stage: int) -> str:
    """Magnet axis of stage 1..n: y for odd stages, x for even ones."""
    return "y" if stage % 2 else "x"


def forward_value(s: int, t: int) -> float:
    """P(R_t at t | R_s at s) for t >= s."""
    return 2.0 ** (s - t)


class Chain:
    """Raw matrices of the n-stage chain, built with numpy only."""

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ValueError("a chain needs at least one stage")
        self.n = n
        self.d1 = 2 * n + 1
        self.d2 = D2
        self.dim = self.d1 * D2
        rng = np.random.default_rng(seed)
        self._phase = np.exp(2j * np.pi * rng.random((self.d1, len(_SPIN_SLOT), N_CELLS)))
        self.steps = tuple(self._step(s) for s in range(1, n + 1))
        self.initial = (self.ket(0, "z", 0, SOURCE), self.ket(0, "z", 1, SOURCE))
        self.extras = {s: self.branch_states(s) for s in range(1, n + 1)}

    def lost(self, s: int) -> int:
        """Register label of the lost-record L_s, s >= 1; R_s has label s."""
        return self.n + s

    def ket(self, record: int, spin_axis: str, sign: int, cell: int) -> np.ndarray:
        """Phased product ket |record> (x) |spin_axis, sign> (x) |cell>;
        sign 0 is the plus eigenvector, 1 the minus one."""
        rec = np.zeros(self.d1, dtype=complex)
        rec[record] = self._phase[record, _SPIN_SLOT[spin_axis, sign], cell]
        pos = np.zeros(N_CELLS, dtype=complex)
        pos[cell] = 1.0
        return np.kron(rec, np.kron(SPIN[spin_axis][sign], pos))

    def branch_states(self, s: int) -> tuple:
        """The two Schrodinger-picture states stage s writes at index s."""
        a = axis(s)
        return self.ket(s, a, 0, BEAM), self.ket(self.lost(s), a, 1, BARRIER)

    def _step(self, s: int) -> np.ndarray:
        """Permutation unitary of stage s: swaps each incoming branch with
        the state it writes, identity on the rest."""
        a = axis(s)
        cell = SOURCE if s == 1 else BEAM
        went_on, stopped = self.branch_states(s)
        pairs = ((self.ket(s - 1, a, 0, cell), went_on),
                 (self.ket(s - 1, a, 1, cell), stopped))
        u = np.eye(self.dim, dtype=complex)
        for x, y in pairs:
            u += (np.outer(y, x.conj()) + np.outer(x, y.conj())
                  - np.outer(x, x.conj()) - np.outer(y, y.conj()))
        return u

    def records(self, *labels: int) -> np.ndarray:
        """d1 x d1 projector onto the given register labels."""
        p = np.zeros((self.d1, self.d1), dtype=complex)
        for label in labels:
            p[label, label] = 1.0
        return p

    def predicates(self) -> dict:
        """Named record projectors R0..Rn and L1..Ln."""
        preds = {f"R{s}": self.records(s) for s in range(self.n + 1)}
        preds.update({f"L{s}": self.records(self.lost(s)) for s in range(1, self.n + 1)})
        return preds
