"""Time-gridded closed-system models and the physical-subspace family.

A ``Model`` is a system1 (x) system2 Hilbert factorization with one unitary
per grid step.  A step that writes a record moves only a few indices: U
differs from the identity on the set S of the nonzero rows and columns of
U - I, read from exact zeros.  The model holds each step as its
:class:`StepBlock` (S, U[S, S]), found once by :func:`linalg.support_block`:
from a scan of a dense step's d^2 entries, or from the block of a pair the
caller passes, as a scenario file's loader does, once
:func:`checked_block`, the one checker of a pair, has passed it.  Every
NaN or infinity of a step lies in S x S, so its block is the one place
the step's entries are tested finite.  Outside S x S, U^dagger U - I is
exactly zero, so the model checks unitarity on the block, and it builds
V(k) from V(k-1) by updating only the rows in S; a step whose S is every
index (a Haar step) is held as the given matrix and applied by one
product.  The dense steps are scattered from the pairs only on request
(:func:`linalg.scatter_block`).  All stored projector
families live in the Heisenberg picture with reference at grid index 0;
``heisenberg`` converts a Schrodinger-picture operator at index k into
that frame.

The nested family of subspaces describing which state vectors are
physically admissible at each time is carried by ``PhysicalFamily`` and
validated against the nesting law P(j) P(k) = P(j) for j < k.  Every
P(k) is applied through one frame, an isometry F with P(k) = F F^dagger:
a record (diagonal, each entry exactly 0 or 1) by its labels, applied by
gathering and scattering rows so that the identity costs nothing, and
anything else by an orthonormal d x r range basis.  A family built by
:func:`forward_closure` keeps its range bases; a family of given
projectors that are all records keeps only their labels; any other
given family keeps its matrices as given for :meth:`PhysicalFamily.at`
and validation, and applies each P(k) through the range basis of the
given matrix, found on first use.  The family knows its runs, the
consecutive indices whose P(k) are exactly one matrix, decided with no
tolerance, and frames and checks each run once.  :func:`lift_system1` and
:func:`lift_system2` return a d x m orthonormal basis of the lifted range
at their grid index, so that the rules work on d x r and d x m blocks; a
dense d x d projector is formed only where a public function returns
one.  A record factor projector is lifted by gathering V(k)'s rows (or
columns) at its labels.  ``PhysicalFamily`` is the one owner of its
storage form: no code outside the class, in this module or another, asks
whether P(k) is given as a matrix, held by its labels or as a range basis.
:func:`validate_family` is one loop over the indices and the pairs j < k
for every form, and the class holds each form's tests of an index and of
a pair.
:func:`lift_predicate`, the one lift of a condition or an outcome,
returns a :class:`Lifted`, the one owner of the form a lifted predicate
is held in: its range basis, or, for a system1 predicate of rank above
d/2, the basis of its complement's range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DomainError, ShapeError, ValidationError
from .linalg import DEFAULT_TOL, Tolerance


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time labels; indices drive all computation."""

    times: tuple

    def __post_init__(self):
        try:
            times = tuple(float(t) for t in self.times)
        except OverflowError:   # an integer beyond the float range
            times = (math.inf,)
        if not all(math.isfinite(t) for t in times):
            raise ValidationError("time grid labels must be finite (no NaN or infinity)")
        object.__setattr__(self, "times", times)
        if len(times) < 2:
            raise ValidationError("a time grid needs at least 2 points")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("time grid labels must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def check_index(self, k: int) -> int:
        return linalg._index(k, 0, len(self.times) - 1, "grid index {k} out of range [{lo}, {hi}]")


class StepBlock(NamedTuple):
    """A step given by the indices S it moves, strictly increasing, and its
    block U[S, S]: U is the identity outside S x S.  An empty S takes an
    empty block."""

    indices: object
    block: object


def checked_index(i, d: int, what: str) -> int:
    """i as an int when :func:`linalg._index` takes it as an integer in
    0..d-1; otherwise ValidationError ``what: i is not an integer in
    0..d-1``."""
    try:
        return linalg._index(i, 0, d - 1, "{k}")
    except IndexError as exc:
        raise ValidationError(f"{what}: {exc} is not an integer in 0..{d - 1}") from None


def checked_block(what: str, indices, block, d: int) -> tuple:
    """The pair (S, M[S, S]) of a step or a family projector as an index
    array and a complex array, refused with a ValidationError naming
    ``what`` unless each index passes :func:`checked_index`, S is strictly
    increasing and the block is |S| x |S|.  The one checker of a pair; it
    reads no entry of the block."""
    where = f"{what} indices"
    try:
        s = [checked_index(i, d, where) for i in indices]
    except TypeError:   # not iterable: checked_index itself raises no TypeError
        raise ValidationError(f"{where}: expected a list of integers") from None
    for a, b in zip(s, s[1:]):
        if b <= a:
            raise ValidationError(f"{where}: {b} follows {a}; indices must be strictly increasing")
    n = len(s)
    try:
        block = np.asarray(block, dtype=complex)
    except (TypeError, ValueError):
        block = None
    if block is not None and n == 0 == block.size:
        block = block.reshape(0, 0)
    if block is None or block.shape != (n, n):
        raise ValidationError(f"{what} block: expected a {n}x{n} matrix, "
                              "one row and column per index")
    return np.array(s, dtype=np.intp), block


def _step(k: int, u, d: int) -> StepBlock:
    """Step k's pair on the minimal S, from a d x d matrix or a
    :class:`StepBlock`.  :func:`linalg.support_block` finds a matrix's
    pair, and reduces the block of a pair that :func:`checked_block`
    passed, so that a pair and its dense matrix are held alike; a block
    whose S is every index is held uncopied.  A NaN or infinity differs
    from both 0 and 1, so it lies in S x S, and the block is the one place
    a step's entries are tested finite."""
    if isinstance(u, StepBlock):
        s, block = checked_block(f"step {k}", *u, d)
        moved, block = linalg.support_block(block, 1)
        s = s[moved]
    else:
        u = linalg.as_2d(u)
        if u.shape != (d, d):
            raise ValidationError(f"step {k} has shape {u.shape}, expected {(d, d)}")
        s, block = linalg.support_block(u, 1)
    if not np.isfinite(block).all():
        raise ValidationError(f"step {k}: non-finite entry (NaN or infinity)")
    return StepBlock(s, block)


@dataclass(frozen=True)
class Model:
    """Closed-system model: dimensions, grid, and per-step propagators.

    ``steps[k]`` propagates grid index k -> k+1 in the Schrodinger
    picture and must be unitary on the full d1*d2 space.  A step is given
    as a d x d matrix or as a :class:`StepBlock` (S, U[S, S]).
    ``blocks[k]`` is step k's pair on the minimal set S of indices it
    moves (:func:`_step`), found once, and the model checks unitarity on
    the block U[S, S]: U^dagger U - I is exactly zero outside S x S and
    sums the same terms inside it, so the verdict is the dense one.  V(k)
    is V(k-1) with the rows in S replaced by U[S, S] V(k-1)[S, :], from
    V(0) = I; a step with S empty shares V(k-1), uncopied, and one with S
    every index is the one product U V(k-1).  Every step's shape is
    checked before V(0) is built.

    ``steps`` is the tuple of dense d x d matrices, each pair of
    ``blocks`` scattered onto the identity by :func:`linalg.scatter_block`:
    equal to the steps as given under ``np.array_equal`` (a -0.0 outside S
    reads +0.0), and a step whose S is every index is the given matrix
    itself.  It is built on first request (:meth:`__getattr__`): the model
    itself, and :func:`scenario_io.serialize`, read only ``blocks``, so a
    model loaded from a scenario file makes no d x d step matrix unless a
    caller asks for one.
    """

    d1: int
    d2: int
    grid: TimeGrid
    steps: tuple
    tol: Tolerance = DEFAULT_TOL
    blocks: tuple = field(init=False, repr=False, compare=False)
    _cum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValidationError("subsystem dimensions must be positive")
        linalg.check_eps_eig(self.tol, self.dim)
        d = self.dim
        blocks = tuple(_step(k, u, d) for k, u in enumerate(self.steps))
        if len(blocks) != self.grid.n_steps:
            raise ValidationError(
                f"expected {self.grid.n_steps} step unitaries, got {len(blocks)}"
            )
        object.__setattr__(self, "blocks", blocks)
        object.__delattr__(self, "steps")
        cum = [np.eye(d, dtype=complex)]
        for k, (s, block) in enumerate(blocks):
            if not linalg.is_unitary(block, self.tol):
                raise ValidationError(f"step {k} is not unitary within eps_zero")
            v = cum[-1]
            if len(s) == d:
                v = block @ v
            elif len(s):
                v = v.copy()
                v[s] = block @ v[s]
            cum.append(v)
        object.__setattr__(self, "_cum", tuple(cum))

    def __getattr__(self, name):
        """``steps``, scattered from ``blocks`` and kept; called only for
        an attribute the instance lacks."""
        if name != "steps" or "blocks" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        steps = tuple(linalg.scatter_block(s, block, 1, self.dim) for s, block in self.blocks)
        object.__setattr__(self, "steps", steps)
        return steps

    @property
    def dim(self) -> int:
        return self.d1 * self.d2

    @property
    def n_indices(self) -> int:
        return len(self.grid)


def cumulative_propagator(model: Model, k: int) -> np.ndarray:
    """V(k) = U_k ... U_1, with V(0) the identity."""
    return model._cum[model.grid.check_index(k)]


def heisenberg(model: Model, a_schrodinger, k: int) -> np.ndarray:
    """Express a Schrodinger-picture operator at index k in the reference
    frame of index 0: V(k)^dagger a V(k)."""
    a = linalg.as_matrix(a_schrodinger)
    if a.shape != (model.dim, model.dim):
        raise ShapeError(f"operator shape {a.shape} does not match model dim {model.dim}")
    v = cumulative_propagator(model, k)
    return v.conj().T @ a @ v


def _projector_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a projector, as columns: the
    standard basis vectors on its unit diagonal when it is diagonal, its
    eigenvectors with eigenvalue above 1/2 otherwise."""
    diag = np.diagonal(p)
    if not np.count_nonzero(p - np.diag(diag)):
        return np.eye(len(p), dtype=complex)[:, diag.real > 0.5]
    w, v = np.linalg.eigh(linalg.hermitian_part(p))
    return v[:, w > 0.5]


def _factor_basis(model: Model, p, which: str, n: int):
    """The range of a checked projector on the n-dimensional ``which``: a
    record's labels (:func:`linalg.record_labels`), unchecked since a
    record is a projector exactly, or the range basis
    :func:`_projector_basis` gives any other matrix that passes
    :func:`linalg.is_projector`."""
    p = linalg.as_matrix(p)
    if p.shape != (n, n):
        raise ShapeError(f"{which} operator shape {p.shape}, expected {(n, n)}")
    labels = linalg.record_labels(p)
    if labels is not None:
        return labels
    if not linalg.is_projector(p, model.tol):
        raise DomainError(f"lift_{which} requires a projector")
    return _projector_basis(p)


def lift_system1(model: Model, p1, k: int) -> np.ndarray:
    """Heisenberg lift of a system1 projector at grid index k, as the d x m
    orthonormal basis W = V(k)^dagger (B (x) identity) of its range, with
    B a range basis of p1 (:func:`_factor_basis`); no d x d product is
    made.  For a record, W^dagger is V(k)'s rows at its labels, gathered
    rather than multiplied."""
    b = _factor_basis(model, p1, "system1", model.d1)
    # (B^dagger (x) I) V(k), row (b, j) = sum_a conj(B[a, b]) V[(a, j), :]
    v = cumulative_propagator(model, k).reshape(model.d1, model.d2 * model.dim)
    rows = v[list(b)] if isinstance(b, tuple) else b.conj().T @ v
    return rows.reshape(-1, model.dim).conj().T


def lift_system2(model: Model, p2, k: int) -> np.ndarray:
    """Heisenberg lift of a system2 projector at grid index k, as the d x m
    orthonormal basis V(k)^dagger (identity (x) B) of its range, with B a
    range basis of p2; for a record p2, V(k)^dagger's columns at its
    labels within each system1 block."""
    b = _factor_basis(model, p2, "system2", model.d2)
    # column (a, c) = sum_j V^dagger[:, (a, j)] B[j, c]
    vh = cumulative_propagator(model, k).conj().T.reshape(model.dim, model.d1, model.d2)
    cols = vh[:, :, list(b)] if isinstance(b, tuple) else vh @ b
    return cols.reshape(model.dim, -1)


def lift_predicate(model: Model, p, k: int) -> Lifted:
    """Heisenberg lift of a predicate at index k, held as :class:`Lifted`:
    a system1 projector by the range basis :func:`lift_system1` gives it
    or, when its rank m, d2 times its trace, is above d/2 (2 tr p > d1 +
    1/2 for a trace within 1/4 of an integer), by that of I - p; a
    full-space projector, taken as already lifted, by the range basis
    :func:`_full_space_basis` gives it."""
    p = linalg.as_matrix(p)
    if p.shape == (model.d1, model.d1):
        # a sum of Python floats overflows to inf unwarned, and the lift refuses it
        if 2 * sum(np.diagonal(p).real.tolist()) <= model.d1 + 0.5:
            return Lifted(model, lift_system1(model, p, k))
        rest = lift_system1(model, np.eye(model.d1, dtype=complex) - p, k)
        return Lifted(model, rest, complement=True)
    if p.shape != (model.dim, model.dim):
        raise ShapeError(f"predicate shape {p.shape} matches neither system1 nor the full space")
    if not linalg.is_projector(p, model.tol):
        raise DomainError("a full-space predicate must be a projector")
    return Lifted(model, _full_space_basis(model, p, k))


def _full_space_basis(model: Model, p: np.ndarray, k: int) -> np.ndarray:
    """Range basis of a full-space projector at index k.

    When p keeps or removes, within eps_zero, each record label's whole
    block V(k)^dagger (e_a (x) I), it is the lift of that diagonal system1
    projector and gets the basis :func:`lift_system1` gives it, so a
    predicate passed lifted or unlifted yields the same numbers; any
    other projector gets its eigenvectors with eigenvalue above 1/2.
    """
    d, d1, d2 = model.dim, model.d1, model.d2
    vh = cumulative_propagator(model, k).conj().T
    moved = (p @ vh).reshape(d, d1, d2)
    blocks = vh.reshape(d, d1, d2)
    eps = model.tol.eps_zero
    kept = [linalg.max_abs(moved[:, a] - blocks[:, a]) <= eps for a in range(d1)]
    if all(kept[a] or linalg.max_abs(moved[:, a]) <= eps for a in range(d1)):
        return lift_system1(model, linalg.diagonal_projector(np.flatnonzero(kept), d1), k)
    return _projector_basis(p)


class PhysicalFamily:
    """Time-indexed physical subspaces P(k), one per grid index,
    Heisenberg frame at index 0.  Nesting (earlier ranges contained in
    later ones) is checked by :func:`validate_family`, not at
    construction.

    Every P(k) is applied through one frame, an isometry F with P(k) = F
    F^dagger, so that P(k) B = F (F^dagger B) and applying P(k) to a d x
    m block costs O(d r m) for a rank r.  A record
    (:func:`linalg.record_labels`: diagonal, each entry exactly 0 or 1) is
    framed by its size n and labels, standing for the selection E =
    I[:, labels]: E^dagger B is B's rows at the labels, and a record whose
    labels cover every index is the identity, whose restriction hands B
    back uncopied.  Anything else is framed by an orthonormal d x r range
    basis U.  ``PhysicalFamily(projectors)`` frames a family whose every
    given projector is a record by its labels and keeps no dense copy.
    Any other given family keeps its matrices as given, which :meth:`at`
    and :attr:`projectors` return and the dense checks of
    :func:`validate_family` read, and frames P(k) by the range basis
    :func:`_projector_basis` finds the first time a restriction needs it;
    a loader validates the family before any rule applies it, so a given
    matrix that fails validation is never decomposed.
    :meth:`from_bases` (what :func:`forward_closure` builds) frames each
    index by the given basis.  For labels and bases :meth:`at` rebuilds
    the dense projector on each call.

    The family is built knowing its runs: for each index, the first index
    of the stretch of consecutive indices that hold one P
    (:meth:`run_start`).  Equal P(k) in a nested family are consecutive,
    so each index is compared with the one before, exactly and with no
    tolerance: records by their sizes and label sets, range bases by
    object (:func:`forward_closure` shares the basis of an index without
    extras), and given matrices by object or entry for entry
    (``np.array_equal``).  The indices of a record run share one frame
    object, and a given projector is framed once per run, at the run's
    first restriction.  :func:`validate_family` checks each run once and
    :meth:`_nests` passes a pair inside a run with no product; the
    start-index scan of :mod:`condition` builds one trimmed factor per
    run, asking only for :meth:`run_start`.

    Callers use P(k) B (:meth:`apply`) and B^dagger P(k) B
    (:meth:`sandwich`), whatever the frame.  Only this class reads the
    storage: :meth:`_restrict` is the one place that reads it to apply
    P(k), and the pair (frame, coef) it returns, frame None standing for
    the identity, is all that :meth:`_restrict_complement`,
    :meth:`_join` and :meth:`_commutator_frobenius` read.
    :func:`validate_family` asks the class to check each index
    (:meth:`_index_checks`) and each pair (:meth:`_nests`).
    """

    # _projectors: the given matrices of a family with a non-record P(k),
    # else None.  _frames: one frame per index, a record's (n, labels) or
    # a range basis, one object for a whole run; for given matrices, None
    # until the run's first restriction frames its first index.  _runs:
    # the first index of each index's run.
    __slots__ = ("_projectors", "_frames", "_runs")

    def __init__(self, projectors):
        projectors = tuple(linalg.as_matrix(p) for p in projectors)
        labels = tuple(linalg.record_labels(p) for p in projectors)
        if None in labels:
            self._projectors, self._frames = projectors, [None] * len(projectors)
            self._runs = _run_starts(projectors, lambda p, q: p is q or np.array_equal(p, q))
            return
        keys = tuple(zip(map(len, projectors), labels))
        self._projectors, self._runs = None, _run_starts(keys, tuple.__eq__)
        frames = []
        for k, (n, l) in enumerate(keys):
            frames.append(frames[-1] if self._runs[k] < k else (n, np.array(l, dtype=np.intp)))
        self._frames = tuple(frames)

    @classmethod
    def from_bases(cls, bases) -> "PhysicalFamily":
        """Family with P(k) = U_k U_k^dagger for the given orthonormal
        column bases U_k; consecutive indices given one basis object form
        a run."""
        fam = cls.__new__(cls)
        fam._projectors, fam._frames = None, tuple(bases)
        fam._runs = _run_starts(fam._frames, lambda u, v: u is v)
        return fam

    def __len__(self) -> int:
        return len(self._frames)

    def _index(self, k: int) -> int:
        return linalg._index(k, 0, len(self) - 1, "family index {k} out of range [{lo}, {hi}]")

    def run_start(self, k: int) -> int:
        """The first index j of the run that holds k: P(j), ..., P(k) are
        one P, so every quantity built from P(k) alone is the same, bit for
        bit, at each of them."""
        return self._runs[self._index(k)]

    def at(self, k: int) -> np.ndarray:
        """The dense d x d projector P(k)."""
        k = self._index(k)
        if self._projectors is not None:
            return self._projectors[k]
        frame = self._frames[k]
        if isinstance(frame, tuple):
            n, labels = frame
            return linalg.diagonal_projector(labels, n)
        return frame @ frame.conj().T

    @property
    def projectors(self) -> tuple:
        """Every P(k) as a dense projector."""
        return tuple(self.at(k) for k in range(len(self)))

    def _restrict(self, k: int, block: np.ndarray) -> tuple:
        """P(k) block as a pair (frame, coef) with P(k) block = frame @ coef:
        the index's range basis U (for a given non-record projector, the
        one :func:`_projector_basis` finds at the first call in its run,
        then kept for the run)
        with coef = U^dagger block; a record's pair (n, labels), standing
        for the selection E, with coef = E^dagger block, the block's rows
        at the labels; or None, the identity, with coef the block itself,
        uncopied, for a record whose labels cover every index."""
        k = self._index(k)
        r = self._runs[k]
        frame = self._frames[r]
        if frame is None:
            frame = self._frames[r] = _projector_basis(self._projectors[r])
        if not isinstance(frame, tuple):
            return frame, frame.conj().T @ block
        n, labels = frame
        if n != len(block):
            raise ShapeError(f"family index {k} is {n} x {n}, block has {len(block)} rows")
        return (None, block) if len(labels) == n else (frame, block[labels])

    def _restrict_complement(self, k: int, w: np.ndarray, restricted: tuple) -> tuple:
        """P(k) (I - w w^dagger) as a pair (frame, coef) with P(k) (I - w
        w^dagger) = frame @ coef, for a d x m orthonormal block w and
        ``restricted`` = ``self._restrict(k, w)`` = (frame, C): coef =
        F^dagger - C w^dagger for the frame F.  For a record's selection E
        or the identity that is one product, -C w^dagger, plus 1 at (i,
        labels[i]) (at (i, i) for the identity).  For a range basis U coef
        is the adjoint view of the tall block U - w C^dagger, which is what
        is computed."""
        frame, coef = restricted
        if frame is not None and not isinstance(frame, tuple):
            return frame, (frame - w @ coef.conj().T).conj().T
        wide = coef @ -w.conj().T
        rows = np.arange(len(wide))
        wide[rows, rows if frame is None else frame[1]] += 1
        return frame, wide

    @staticmethod
    def _join(frame, coef: np.ndarray) -> np.ndarray:
        """frame @ coef for a restriction's pair, frame None standing for
        the identity and a record's pair (n, labels) for its selection E,
        applied by scattering coef's rows to the labels."""
        if frame is None:
            return coef
        if isinstance(frame, tuple):
            n, labels = frame
            out = np.zeros((n, coef.shape[1]), dtype=complex)
            out[labels] = coef
            return out
        return frame @ coef

    def _commutator_frobenius(self, k: int, w: np.ndarray,
                              restricted: tuple | None = None) -> float:
        """||[W W^dagger, P(k)]||_F for a d x m orthonormal block W;
        ``restricted`` is ``self._restrict(k, w)`` = (frame, C), computed
        when not given.

        P(k) = F F^dagger for the frame F, a range basis U or a record's
        selection E, and C = F^dagger W.  With X = W W^dagger the
        commutator is X P (I - X) - (I - X) P X, two parts with orthogonal
        ranges that are each other's adjoints (F F^dagger is Hermitian by
        construction), and (I - X) P X = (F - W C^dagger) C W^dagger.  So
        the norm is sqrt(2) ||F C - W (C^dagger C)||_F, in O(d r m), with
        F C the joined restriction.  The identity commutes with every W:
        the norm is 0.
        """
        frame, coef = self._restrict(k, w) if restricted is None else restricted
        if frame is None:
            return 0.0
        return math.sqrt(2) * np.linalg.norm(self._join(frame, coef) - w @ (coef.conj().T @ coef))

    def _index_checks(self, k: int, dim: int, tol: Tolerance) -> tuple:
        """(projector_ok, nonzero, e) of :func:`validate_family` for P(k),
        which the pair tests of :meth:`_nests` read for j = k.

        A given matrix is checked densely, as given, and a product that
        overflows is non-finite and fails its check; e is None.  A record
        framed by its labels is a projector exactly, so it passes when its
        size is dim, and it is nonzero when it has a label; e is None.
        For P = U U^dagger, e = ||E||_F with E = U^dagger U - I: P^2 - P =
        U E U^dagger, whose Frobenius norm is at most (1 + ||E||_F) ||E||_F
        and whose diagonal bounds its largest entry from below; U U^dagger
        is Hermitian up to rounding.  ||P||_F is ||U^dagger U||_F and the
        largest squared row norm of U is a diagonal entry of P.  The
        diagonal of P^2 - P is taken only when the Frobenius bound does not
        settle the test, and the dense test runs only between the bounds
        (:func:`linalg.within_zero`).
        """
        if self._projectors is not None:
            p = self._projectors[k]
            with np.errstate(over="ignore", invalid="ignore"):
                return (p.shape == (dim, dim) and linalg.is_projector(p, tol),
                        linalg.max_abs(p) > tol.eps_zero, None)
        u = self._frames[k]
        if isinstance(u, tuple):
            n, labels = u
            return n == dim, len(labels) > 0, None
        gram = u.conj().T @ u
        e = gram - np.eye(len(gram))
        e_norm = float(np.linalg.norm(e))
        projector_ok = u.shape[0] == dim and linalg.within_zero(
            (1 + e_norm) * e_norm,
            lambda: np.max(np.abs(np.einsum("ij,jk,ik->i", u, e, u.conj())), initial=0.0),
            lambda: linalg.projector_defect(self.at(k)), tol)
        nonzero = not linalg.within_zero(
            np.linalg.norm(gram), lambda: np.max(_row_norms2(u), initial=0.0),
            lambda: linalg.max_abs(self.at(k)), tol)
        return projector_ok, nonzero, e_norm

    def _nests(self, j: int, k: int, check_j: tuple, tol: Tolerance) -> bool:
        """Whether P(j) P(k) = P(j) within eps_zero, for j < k and check_j
        = (projector_ok, nonzero, e_j) of :meth:`_index_checks` at j; true
        for two P of different sizes, which the projector checks refuse.

        Two indices of one run hold one P, and P P - P has no entry above
        eps_zero when P passed its projector check, so such a pair nests
        with no product; a P that failed it is tested as any other pair,
        so the verdict stays the dense one.  A pair of given matrices is
        checked densely, as in :meth:`_index_checks`.  Two records of one size nest when the
        labels of P(j) are among those of P(k), since P(j) P(k) - P(j) is
        -1 at each label of P(j) that P(k) lacks and 0 elsewhere.  For
        bases, P(j) P(k) - P(j) = -U_j R^dagger with R = (I - P(k)) U_j, so
        its Frobenius norm is at most ||U_j||_2 ||R||_F <= sqrt(1 + e_j)
        ||R||_F, and its diagonal, taken only when that bound does not
        settle the test, is the row-wise product of U_j and R.  One pair
        costs O(d r_j r_k).
        """
        projector_ok, _, e_j = check_j
        if projector_ok and self._runs[j] == self._runs[k]:
            return True
        if self._projectors is not None:
            pj, pk = self._projectors[j], self._projectors[k]
            with np.errstate(over="ignore", invalid="ignore"):
                return pj.shape != pk.shape or linalg.max_abs(pj @ pk - pj) <= tol.eps_zero
        uj, uk = self._frames[j], self._frames[k]
        if isinstance(uj, tuple):
            (nj, lj), (nk, lk) = uj, uk
            return nj != nk or bool(np.isin(lj, lk).all())
        if uj.shape[0] != uk.shape[0]:
            return True
        r = uj - uk @ (uk.conj().T @ uj)
        return linalg.within_zero(
            math.sqrt(1 + e_j) * float(np.linalg.norm(r)),
            lambda: np.max(np.abs(np.einsum("ij,ij->i", uj, r.conj()))),
            lambda: linalg.max_abs(self.at(j) @ self.at(k) - self.at(j)), tol)

    def apply(self, k: int, block: np.ndarray) -> np.ndarray:
        """P(k) block."""
        return self._join(*self._restrict(k, block))

    def sandwich(self, k: int, block: np.ndarray) -> np.ndarray:
        """block^dagger P(k) block."""
        frame, coef = self._restrict(k, block)
        return (block if frame is None else coef).conj().T @ coef

    def commutator_norm(self, k: int, w: np.ndarray) -> float:
        """Max entry magnitude of [W W^dagger, P(k)] for a d x m block W:
        C - C^dagger for C = W G^dagger = W W^dagger P(k), G = P(k) W."""
        c = w @ self.apply(k, w).conj().T
        return linalg.max_abs(c - c.conj().T)

    def sandwich_commutator_norm(self, s: int, a: np.ndarray, b: np.ndarray) -> float:
        """Max entry magnitude of P(s) [A, B] P(s) for A = a a^dagger and
        B = b b^dagger: F - F^dagger for F = P(s) A B P(s) = G_a (a^dagger
        b) G_b^dagger, G_a = P(s) a and G_b = P(s) b."""
        f = self.apply(s, a) @ (a.conj().T @ b) @ self.apply(s, b).conj().T
        return linalg.max_abs(f - f.conj().T)

    def overlap_norm(self, k: int, w: np.ndarray) -> float:
        """Max entry magnitude of P(k) W W^dagger."""
        return linalg.max_abs(self.apply(k, w) @ w.conj().T)


@dataclass(frozen=True)
class FamilyValidation:
    """Diagnostic output of :func:`validate_family`."""

    projector_ok: tuple          # per index: passes is_projector
    nonzero: tuple               # per index: projector is not ~0
    nesting_violations: tuple    # index pairs (j, k) with P(j) P(k) != P(j)
    passed: bool


def validate_family(model: Model, fam: PhysicalFamily) -> FamilyValidation:
    """Check projector validity, nonzeroness, and the nesting law
    P(j) P(k) = P(j) for every index pair j < k, each within eps_zero.

    One loop for every storage form: each run of equal P(k)
    (``PhysicalFamily.run_start``) is checked once at its first index
    (``PhysicalFamily._index_checks``), then each pair j < k
    (``PhysicalFamily._nests``).  A family of records is checked exactly
    from its sizes and labels, and any other family of given matrices with
    dense d x d products, as given.  A family of range bases is checked
    from its blocks, one pair at a time, and the dense max-entry test runs only
    for a quantity that falls between the bounds of
    :func:`linalg.within_zero`; the verdicts are the same.
    """
    checks, violations = [], []
    for k in range(len(fam)):
        first = fam.run_start(k)
        checks.append(checks[first] if first < k else fam._index_checks(k, model.dim, model.tol))
        violations += [(j, k) for j in range(k)
                       if not fam._nests(j, k, checks[j], model.tol)]
    proj_ok = tuple(c[0] for c in checks)
    nonzero = tuple(c[1] for c in checks)
    passed = len(fam) == model.n_indices and all(proj_ok) and all(nonzero) and not violations
    return FamilyValidation(proj_ok, nonzero, tuple(sorted(violations)), passed)


def _run_starts(items, same) -> tuple:
    """For each index, the first index of its run: the longest stretch of
    consecutive items, ending there, that ``same`` finds equal pair by
    pair."""
    starts = []
    for k, item in enumerate(items):
        starts.append(starts[-1] if k and same(items[k - 1], item) else k)
    return tuple(starts)


def _row_norms2(g: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of g."""
    return np.einsum("ij,ij->i", g, g.conj()).real


def forward_closure(model: Model, initial_states, extras=None) -> PhysicalFamily:
    """Build a nested family from generator states.

    The index-0 subspace is the span of ``initial_states``.  At each
    later index k the previous range is kept and any ``extras[k]`` vectors
    (Schrodinger picture at index k) are pulled to the reference frame and
    appended; an extras key that is not an integer in 1..n-1 is refused.
    The family keeps the orthonormal basis of each span, the
    :func:`linalg.range_basis` of the generators as columns; an index
    without extras shares the basis of the one before.  The span of the
    generators only grows, so the family is nested by construction above
    the rounding floor of eps_eig that the model enforces
    (:func:`linalg.check_eps_eig`), where the cut keeps no rounding
    direction.
    """
    tol = model.tol
    initial_states = [np.asarray(v, dtype=complex).reshape(-1) for v in initial_states]
    if not initial_states:
        raise DomainError("forward_closure needs at least one initial state")
    for v in initial_states:
        if v.shape != (model.dim,):
            raise ShapeError(f"initial state has dimension {v.shape[0]}, expected {model.dim}")
    try:
        extras = {linalg._index(k, 1, model.n_indices - 1, "extras index {k} lies outside "
                                "{lo}..{hi}"): list(vs) for k, vs in (extras or {}).items()}
    except IndexError as exc:
        raise DomainError(*exc.args) from None

    generators = list(initial_states)
    bases = [linalg.range_basis(np.column_stack(generators), tol)]
    for k in range(1, model.n_indices):
        added = extras.get(k, [])
        if added:
            vk = cumulative_propagator(model, k)
        for extra in added:
            extra = np.asarray(extra, dtype=complex).reshape(-1)
            if extra.shape != (model.dim,):
                raise ShapeError(f"extra state at index {k} has wrong dimension")
            generators.append(vk.conj().T @ extra)
        bases.append(linalg.range_basis(np.column_stack(generators), tol) if added else bases[-1])
    return PhysicalFamily.from_bases(bases)


def _commutes(model: Model, fam: PhysicalFamily, k: int, w: np.ndarray,
              restricted: tuple | None = None) -> bool:
    """Whether [W W^dagger, P(k)] has no entry above eps_zero, for a d x m
    orthonormal block W; ``restricted`` is ``fam._restrict(k, w)``,
    computed when not given.  The Frobenius norm comes from the
    restriction at the family's rank
    (``PhysicalFamily._commutator_frobenius``); that norm over d bounds
    the largest entry from below.
    """
    frob = fam._commutator_frobenius(k, w, restricted)
    return linalg.within_zero(frob, lambda: frob / len(w),
                              lambda: fam.commutator_norm(k, w), model.tol)


def _sandwich_commutes(model: Model, fam: PhysicalFamily, s: int, a: np.ndarray,
                       b: np.ndarray) -> bool:
    """Whether P(s) [A, B] P(s) has no entry above eps_zero, for A = a
    a^dagger and B = b b^dagger with d x m_a and d x m_b orthonormal
    blocks a and b.

    That matrix is F - F^dagger with F = G_a (a^dagger b) G_b^dagger, and
    ``fam._restrict`` gives G_a = frame C_a and G_b = frame C_b, with
    frame the range basis U or a record's selection I[:, labels] (C r x
    m), or the identity (C d x m, the blocks themselves).  The QR
    factorization [C_a, C_b] = Q [R_a, R_b]
    leaves F = frame Q E Q^dagger frame^dagger with E = R_a (a^dagger b)
    R_b^dagger, and frame and Q have orthonormal columns, so ||F -
    F^dagger||_F = ||E - E^dagger||_F on at most m_a + m_b rows: one
    formula for every storage form.  That norm over d bounds the largest
    entry from below.
    """
    (_, ca), (_, cb) = fam._restrict(s, a), fam._restrict(s, b)
    r = np.linalg.qr(np.hstack((ca, cb)), mode="r")
    e = r[:, :ca.shape[1]] @ (a.conj().T @ b) @ r[:, ca.shape[1]:].conj().T
    frob = np.linalg.norm(e - e.conj().T)
    return linalg.within_zero(frob, lambda: frob / len(a),
                              lambda: fam.sandwich_commutator_norm(s, a, b), model.tol)


class Lifted:
    """A lifted predicate X, a projector on the full space, held in the
    smaller of two forms: by the d x m orthonormal basis W of its range,
    X = W W^dagger, or, when m > d/2, by the d x (d - m) basis Wbar of its
    complement's range, X = I - Wbar Wbar^dagger.  :func:`lift_predicate`
    picks the form by that one rule, and only this class asks which form
    it holds.

    ``block`` is the held basis, W or Wbar.  Commutator tests read it as
    it is, since [I - Wbar Wbar^dagger, A] = -[Wbar Wbar^dagger, A].
    Everything trimmed to the family comes from the trimming pair
    (:meth:`_trimming`): for the family's frame F at k, P(k) = F F^dagger
    of rank r (a range basis U or a record's selection E), that is the r x
    m block C = F^dagger W, or the r x d block B = F^dagger X = F^dagger -
    Cbar Wbar^dagger with Cbar = F^dagger Wbar, built in O(d r (d - m)).
    So a complement is handled at the family's rank too: P(k) X P(k) = F
    B B^dagger F^dagger, the weight of P(k) X is ||B||_F, the support of
    P(k) X P(k) is F times the range of B, and X P(k) X = B^dagger B.  No
    quantity is taken as a difference of norms such as r - ||Cbar||_F^2.
    A trace against X reads :meth:`factor`.
    """

    __slots__ = ("model", "block", "_complement")

    def __init__(self, model: Model, block: np.ndarray, complement: bool = False):
        """``block`` is W, or Wbar with ``complement``."""
        self.model = model
        self.block = block
        self._complement = complement

    def _trimming(self, fam: PhysicalFamily, k: int, restricted: tuple | None = None) -> tuple:
        """(frame, coef) with T = frame @ coef (frame None for the
        identity) and T T^dagger = P(k) X P(k): the family's restriction
        of W, T = P(k) W, or for a complement T = P(k) X itself.  In both
        forms ||coef||_F = ||P(k) X||_F.  ``restricted`` is
        ``fam._restrict(k, block)``, computed when not given."""
        if restricted is None:
            restricted = fam._restrict(k, self.block)
        if not self._complement:
            return restricted
        return fam._restrict_complement(k, self.block, restricted)

    def trimmed(self, fam: PhysicalFamily, k: int) -> np.ndarray:
        """The trimmed factor T = P(k) L of :meth:`_trimming`, L = W, or X
        for a complement: P(k) times one block at every k."""
        return fam._join(*self._trimming(fam, k))

    def state(self, fam: PhysicalFamily, k0: int) -> tuple:
        """X P(k0) X as a state (phi, core): (W, W^dagger P(k0) W), or for a
        complement (coef^dagger, None) of :meth:`_trimming`, X P X = B^dagger B."""
        if not self._complement:
            return self.block, fam.sandwich(k0, self.block)
        return self._trimming(fam, k0)[1].conj().T, None

    def trimmed_range(self, fam: PhysicalFamily, k: int, r: np.ndarray) -> np.ndarray:
        """Range basis of T r^dagger for the trimmed factor T at k, at the
        eps_eig cut, from the SVD of coef r^dagger (r rows for a frame of rank r)."""
        frame, coef = self._trimming(fam, k)
        return fam._join(frame, linalg.range_basis(coef @ r.conj().T, self.model.tol))

    def is_possible(self, fam: PhysicalFamily, k: int) -> bool:
        """Whether X is physically possible at k: it commutes with P(k)
        (:func:`_commutes` on ``block``) and P(k) X is not zero.  P(k)
        ``block`` is restricted once, and both tests read it."""
        restricted = fam._restrict(k, self.block)
        return (_commutes(self.model, fam, k, self.block, restricted)
                and self.has_weight(fam, k, restricted))

    def has_weight(self, fam: PhysicalFamily, k: int, restricted: tuple | None = None) -> bool:
        """Whether P(k) X has an entry above eps_zero.  Its Frobenius norm
        is ||coef||_F of :meth:`_trimming`, whatever the family's frame:
        the r x m C or the r x d B, or W or I - Wbar Wbar^dagger itself for
        the identity.  That norm over d bounds its largest entry from
        below."""
        frame, coef = self._trimming(fam, k, restricted)
        frob = np.linalg.norm(coef)

        def measure():
            if not self._complement:
                return fam.overlap_norm(k, self.block)
            return linalg.max_abs(fam._join(frame, coef))

        return not linalg.within_zero(frob, lambda: frob / self.model.dim, measure,
                                      self.model.tol)

    def support(self, fam: PhysicalFamily, k: int) -> tuple:
        """(T, Q): a factor T with T T^dagger = P(k) X P(k), and the
        orthonormal basis Q of its range at the cut of
        :func:`linalg.rank_cut`, None when no entry of T T^dagger, whose
        largest is T's largest squared row norm, is above eps_zero.  The
        SVD u s v^dagger of the trimming coef (:meth:`_trimming`) gives T =
        frame u s and Q = frame u on the kept singular values, in either
        held form: against a family of range bases, at most r columns from
        the SVD of the r x m block C or the r x d block B.  The SVD is
        taken of coef^dagger, so that B is read as the tall d x r block:
        LAPACK's SVD of the wide r x d form takes about 1.5 times as long
        (r = 17, d = 198)."""
        frame, coef = self._trimming(fam, k)
        _, s, vh = np.linalg.svd(coef.conj().T, full_matrices=False)
        u = vh.conj().T
        t = fam._join(frame, u * s)
        if t.size == 0 or np.max(_row_norms2(t)) <= self.model.tol.eps_zero:
            return t, None
        return t, fam._join(frame, u[:, linalg.rank_cut(s * s, self.model.tol)])

    def factor(self, q: np.ndarray) -> np.ndarray:
        """A block F with F^dagger F = q^dagger X q, what a trace against X
        reads: W^dagger q, or X q for a complement."""
        return self.inside(q) if self._complement else self.block.conj().T @ q

    def inside(self, q: np.ndarray) -> np.ndarray:
        """X q: W (W^dagger q), or q - Wbar (Wbar^dagger q) for a
        complement."""
        c = self.block @ (self.block.conj().T @ q)
        return q - c if self._complement else c

    def outside(self, q: np.ndarray) -> np.ndarray:
        """(I - X) q."""
        c = self.block @ (self.block.conj().T @ q)
        return c if self._complement else q - c


def is_physically_possible(model: Model, fam: PhysicalFamily, pX, k: int) -> bool:
    """A predicate is physically possible at k iff it commutes with the
    family there and has nonzero overlap with it."""
    pX = linalg.as_matrix(pX)
    p = fam.at(k)
    return (
        linalg.commutes(pX, p, model.tol)
        and linalg.max_abs(p @ pX) > model.tol.eps_zero
    )

