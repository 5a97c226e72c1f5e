"""Scenario files.

A scenario is a JSON document carrying the model dimensions, grid, step
unitaries, physical family, and named system1 predicates.  Complex
numbers are stored as [re, im] pairs so the format stays diffable and
binary-free.  Loading validates every declared object and fails naming
the first offender.

Format 2 writes a step, or a given family projector, by the indices S
it does not leave alone: ``{"indices": S, "block": M[S, S]}``, where a
step equals the identity and a projector equals zero outside S x S
(:func:`linalg.support_indices`).  A matrix whose S is every index is
written as a dense matrix, the only form of format 1; both forms load
in either format.  The loader checks only the JSON of a block entry: S
is a list, the block a list of |S| rows of |S| [re, im] pairs of finite
numbers.  The pair itself is checked by :func:`model.checked_block`, in
:class:`model.Model` for a step, which ``loads`` passes on as a
:class:`model.StepBlock`, unscattered, and in ``loads`` for a family
projector, which is then scattered onto zero
(:func:`linalg.scatter_block`).  ``serialize`` writes each step from the
pair the model holds (``Model.blocks``), with no scan of a d x d matrix,
and each projector from the pair :func:`linalg.support_block` finds.
A loaded and a built-in scenario pass the same family checks.

A dump is the text of ``json.dumps(doc, indent=2, sort_keys=True)``, but
``json`` lays out only the skeleton: the floats of each step, family
projector and predicate matrix, and of each list of [re, im] pairs in a
forward-closure ``family_spec``, are held and written by one ``%``
template each (:func:`_render`).  A pair list is held only when every
entry is an exact, finite ``float``; ints, bools, float subclasses, NaN,
infinities, tuples, other lengths and empty lists are ``json``'s.
``loads`` refuses a document whose declared dimensions need more than
``DENSE_BUDGET`` bytes of dense matrices before it builds any of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .linalg import DEFAULT_TOL, Tolerance
from .model import (Model, PhysicalFamily, StepBlock, TimeGrid, checked_block, checked_index,
                    forward_closure, validate_family)

FORMAT_VERSION = 2

# The most bytes of dense complex matrices a loaded scenario may need:
# 16 d^2 per step, per explicit family projector and per grid index (the
# propagators V(k), or a closure's projectors), and 16 d1^2 per
# predicate.  loads refuses a document that declares dimensions beyond it
# before building any such matrix, since a file of a few KB can declare
# a d it does not write.  An n = 40 chain (d = 486) needs about 0.46 GB.
DENSE_BUDGET = 2 ** 30


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: model, family, and named system1 predicates."""

    name: str
    model: Model
    fam: PhysicalFamily
    predicates: dict
    grid_names: tuple

    def predicate(self, name: str) -> np.ndarray:
        if name not in self.predicates:
            raise KeyError(
                f"unknown predicate {name!r}; available: {', '.join(sorted(self.predicates))}"
            )
        return self.predicates[name]

    def grid_index(self, token: str) -> int:
        """Resolve a grid label name or a bare integer to an index."""
        if token in self.grid_names:
            return self.grid_names.index(token)
        try:
            return self.model.grid.check_index(_integer(token))
        except (ValueError, IndexError):
            raise KeyError(
                f"unknown grid label {token!r}; available: {', '.join(self.grid_names)}"
            ) from None


def _integer(token: str) -> int:
    """The integer a text index writes: ASCII digits after an optional
    minus sign.  ValueError for any other text, such as '+2', ' 2', '0_2'
    or non-ASCII digits, all of which int() would read."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object")
    return value


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _BooleanEntry(Exception):
    """A JSON true or false in an [re, im] pair."""


def _boolean_entry():
    """Raise :class:`_BooleanEntry`.  The pair readers call it in place of
    complex(re, im) when ``re.__class__ is not bool is not im.__class__``
    fails, that is when re or im is a bool; the test is inline, since a
    function call per pair slows :func:`loads` by several per cent."""
    raise _BooleanEntry


def _complex_array(entries, what: str) -> np.ndarray:
    """The complex array ``entries()`` builds of [re, im] pairs, refused
    unless every entry is a finite number.  ``complex()`` reads true and
    false as 1 and 0, so ``entries()`` calls :func:`_boolean_entry` on a
    pair holding one; an integer beyond the float range counts as
    infinite, as in :class:`model.TimeGrid`."""
    try:
        a = np.array(entries(), dtype=complex)
    except _BooleanEntry:
        raise ValidationError(f"{what}: entries must be numbers") from None
    except OverflowError:
        a = np.array([np.inf])
    except (TypeError, IndexError, KeyError, ValueError):
        raise ValidationError(f"{what}: entries must be [re, im] pairs") from None
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what}: non-finite entry (NaN or infinity)")
    return a


def _pairs_to_array(rows, what: str) -> np.ndarray:
    return _complex_array(lambda: [[complex(re, im) if re.__class__ is not bool is not im.__class__
                                    else _boolean_entry() for re, im in row] for row in rows], what)


def _pairs_to_matrix(rows, what: str) -> np.ndarray:
    m = _pairs_to_array(rows, what)
    if m.ndim != 2 or m.size == 0:
        raise ValidationError(f"{what}: expected a non-empty matrix of [re, im] pairs")
    return m


def _square_entry(entry, what: str):
    """A step or a family projector as its file entry writes it: the
    dense matrix of [re, im] pairs, or for ``{"indices": S, "block": B}``
    the :class:`model.StepBlock` (S, B) of a list and an |S| x |S| array,
    unscattered.  Only the JSON is checked here: S is a list and B a list
    of |S| rows of |S| [re, im] pairs of finite numbers, refused naming the
    field; an empty S takes the empty block ``[]``.  The pair itself is
    checked by :func:`model.checked_block`, in :class:`model.Model` for a
    step and in :func:`_projector_entry` for a projector."""
    if not isinstance(entry, dict):
        return _pairs_to_matrix(entry, what)
    indices = _list(entry.get("indices"), f"{what} indices")
    rows = _list(entry.get("block"), f"{what} block")
    n = len(indices)
    if len(rows) != n or not all(isinstance(row, list) and len(row) == n for row in rows):
        raise ValidationError(f"{what} block: expected a {n}x{n} matrix of [re, im] pairs, "
                              f"one row and column per index")
    # an entry is refused as in a dense matrix
    return StepBlock(indices, _pairs_to_array(rows, what).reshape(n, n))


def _projector_entry(entry, d: int, what: str) -> np.ndarray:
    """A family projector as a d x d matrix: a block entry checked by
    :func:`model.checked_block` and scattered onto zero."""
    m = _square_entry(entry, what)
    if not isinstance(m, StepBlock):
        return m
    return linalg.scatter_block(*checked_block(what, *m, d), 0, d)


def _label_projector(labels, d1: int, what: str) -> np.ndarray:
    where = f"{what} labels"
    return linalg.diagonal_projector(
        [checked_index(label, d1, where) for label in _list(labels, where)], d1)


class _Held:
    """Floats that ``json`` leaves to :func:`_render` as a placeholder:
    ``values`` flat in row-major order, laid out as nested lists of
    ``shape``.  A complex matrix is held with shape (rows, columns, 2),
    a list of [re, im] pairs with shape (pairs, 2)."""

    __slots__ = ("values", "shape")

    def __init__(self, values: list, shape: tuple):
        self.values, self.shape = values, shape


def _held_matrix(m: np.ndarray) -> _Held:
    return _Held(m.ravel().view(np.float64).tolist(), m.shape + (2,))


def _held_pairs(obj, path: set):
    """``obj`` with each list of [re, im] pairs in it held.  A held list
    is a non-empty ``list`` of ``list`` pairs whose entries are each an
    exact, finite ``float``, whose ``repr`` is the text ``json`` writes;
    everything else (ints, bools, float subclasses, NaN and infinities,
    tuples, other lengths, empty lists) is left to ``json``.  A ``dict``
    or ``list`` is copied, so the caller's object is not changed; one
    already on ``path``, the ids of the containers being copied, is
    returned as it is, so that ``json`` meets the cycle and refuses it."""
    cls = obj.__class__
    if cls is not list and cls is not dict or id(obj) in path:
        return obj
    if cls is list and obj and all(p.__class__ is list and len(p) == 2 for p in obj):
        values = [x for p in obj for x in p]
        # 0 * sum is 0 only when no entry, nor the sum, is NaN or infinite
        if all(x.__class__ is float for x in values) and 0.0 * sum(values) == 0.0:
            return _Held(values, (len(obj), 2))
    path.add(id(obj))
    # plain loops, one frame per level as json's encoder takes: a
    # comprehension's own frame would halve the depth this walk reaches
    if cls is dict:
        copy = {}
        for key, value in obj.items():
            copy[key] = _held_pairs(value, path)
    else:
        copy = []
        for value in obj:
            copy.append(_held_pairs(value, path))
    path.remove(id(obj))
    return copy


def _layout(items: list, pad: str) -> str:
    """Rendered list items laid out as ``json.dumps(indent=2)`` lays out a
    list whose opening line starts with ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _template(shape: tuple, pad: str) -> str:
    """The ``%`` template of nested lists of ``shape``, laid out as
    :func:`_layout` lays out a list whose opening line starts with
    ``pad``, with ``%s`` for each number."""
    if not shape:
        return "%s"
    return _layout([_template(shape[1:], pad + "  ")] * shape[0], pad)


def _render(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` where each
    :class:`_Held` is written as the nested lists of its shape.

    ``json`` renders everything else, with each held object as a
    placeholder string: a run of NUL characters, lengthened until its
    rendered text occurs exactly once per held object, so that a caller's
    string (a name or a ``family_spec`` entry) is never taken for one.
    Each held object is then one ``%`` format of a template built from its
    shape and from the indent of the line its placeholder is on; ``%s``
    of a Python float is the ``repr`` that ``json`` writes.  The held
    objects are the steps, family projectors and predicate matrices
    :func:`serialize` makes, and the lists of [re, im] pairs of a
    ``family_spec`` that :func:`_held_pairs` holds.
    """
    mark = "\x00"
    while True:
        held = []

        def placeholder(obj):
            if not isinstance(obj, _Held):
                return json.JSONEncoder().default(obj)   # raises json's TypeError
            held.append(obj)
            return mark

        pieces = json.dumps(doc, indent=2, sort_keys=True, default=placeholder).split(
            json.dumps(mark))
        if len(pieces) == len(held) + 1:
            break
        mark += "\x00"
    parts = [pieces[0]]
    for h, before, after in zip(held, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        pad = "\n" + line[:len(line) - len(line.lstrip(" "))]
        parts += [_template(h.shape, pad) % tuple(h.values), after]
    return "".join(parts)


def _entry(s: np.ndarray, block: np.ndarray, d: int):
    """A step or a family projector as the file holds it, from the indices
    S it does not leave alone and its block on S x S: the block form, or
    the dense matrix, ``block`` itself, when S is every index."""
    if len(s) == d:
        return _held_matrix(block)
    return {"indices": s.tolist(), "block": _held_matrix(block)}


def serialize(name: str, model: Model, fam: PhysicalFamily, predicates: dict,
              grid_names=None, family_spec: dict | None = None) -> str:
    """Render a scenario as a deterministic JSON string.

    Each step and family projector is written as :func:`_entry` holds
    it: a step from its pair in ``model.blocks``, with no scan of its
    matrix, a projector from the pair :func:`linalg.support_block` finds.
    The family is stored as explicit projectors unless ``family_spec``
    supplies a forward-closure description to embed instead.  A predicate
    is stored as ``labels`` when it is within the model's ``eps_zero`` of
    a record (:func:`linalg.near_record_labels`), and as a ``matrix``
    otherwise.
    """
    doc = {
        "format": FORMAT_VERSION,
        "name": name,
        "dimensions": {"d1": model.d1, "d2": model.d2},
        "grid": list(model.grid.times),
        "grid_names": list(grid_names) if grid_names else
                      [str(k) for k in range(model.n_indices)],
        "steps": [_entry(s, block, model.dim) for s, block in model.blocks],
        "family": _held_pairs(family_spec, set()) if family_spec is not None else {
            "type": "explicit",
            "projectors": [_entry(*linalg.support_block(p, 0), model.dim)
                           for p in fam.projectors],
        },
        "predicates": {},
    }
    for pname in sorted(predicates):
        p = linalg.as_matrix(predicates[pname])
        labels = linalg.near_record_labels(p, model.tol)
        if labels is not None:
            doc["predicates"][pname] = {"labels": list(labels)}
        else:
            doc["predicates"][pname] = {"matrix": _held_matrix(p)}
    return _render(doc)


def _check_family(model: Model, fam: PhysicalFamily) -> None:
    """Refuse a family that :func:`model.validate_family` finds at fault,
    naming the first projector or index pair, or that has not one
    projector per grid index.  A loaded and a built-in scenario both pass
    it."""
    report = validate_family(model, fam)
    if False in report.projector_ok:
        raise ValidationError(f"family projector {report.projector_ok.index(False)} is not "
                              f"a {model.dim}x{model.dim} projector")
    if False in report.nonzero:
        raise ValidationError(f"family projector {report.nonzero.index(False)} is zero")
    if report.nesting_violations:
        j, k = report.nesting_violations[0]
        raise ValidationError(f"family violates nesting at index pair ({j}, {k})")
    if len(fam) != model.n_indices:
        raise ValidationError(f"family has {len(fam)} projectors, expected one per "
                              f"grid index ({model.n_indices})")


def loads(text: str, name: str = "<string>",
          tol: Tolerance = DEFAULT_TOL) -> Scenario:
    """Parse and validate a scenario document of format 1 or 2; a
    document without ``format`` is format 1."""

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            key = next(key for k, key in enumerate(keys) if key in keys[:k])
            raise ValidationError(f"{name}: repeated key {key!r} in one object")
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{name}: not valid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{name}: top level must be an object")
    version = doc.get("format", 1)
    if not (_is_integer(version) and version in (1, 2)):
        raise ValidationError(f"{name}: format must be 1 or 2, got {version!r}")

    def need(key):
        if key not in doc:
            raise ValidationError(f"{name}: missing required field {key!r}")
        return doc[key]

    dims = need("dimensions")
    d1, d2 = (dims.get("d1"), dims.get("d2")) if isinstance(dims, dict) else (None, None)
    if not (_is_integer(d1) and _is_integer(d2)):
        raise ValidationError(f"{name}: dimensions must carry integer d1 and d2")
    if d1 < 1 or d2 < 1:
        raise ValidationError(f"{name}: subsystem dimensions must be positive")

    times = _list(need("grid"), "grid")
    if not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in times):
        raise ValidationError("grid: entries must be numbers")
    grid = TimeGrid(tuple(times))
    entries = _list(need("steps"), "steps")
    family, preds = doc.get("family"), doc.get("predicates")
    projectors = family.get("projectors") if isinstance(family, dict) and \
        family.get("type") == "explicit" else None
    d_matrices = len(entries) + len(times) + (
        len(projectors) if isinstance(projectors, list) else 0)
    d1_matrices = len(preds) if isinstance(preds, dict) else 0
    if 16 * ((d1 * d2) ** 2 * d_matrices + d1 * d1 * d1_matrices) > DENSE_BUDGET:
        raise ValidationError(f"{name}: dimensions d1 = {d1}, d2 = {d2} need more than the "
                              f"{DENSE_BUDGET} bytes of dense complex matrices a scenario "
                              f"may use")
    steps = tuple(_square_entry(entry, f"step {k}") for k, entry in enumerate(entries))
    try:
        model = Model(d1, d2, grid, steps, tol)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None

    famspec = _object(need("family"), "family")
    kind = famspec.get("type")
    if kind == "explicit":
        fam = PhysicalFamily(tuple(
            _projector_entry(entry, model.dim, f"family projector {k}")
            for k, entry in enumerate(_list(famspec.get("projectors", []), "family projectors"))
        ))
    elif kind == "forward-closure":
        initial = [
            _pairs_to_array([v], f"family initial state {i}")[0]
            for i, v in enumerate(_list(famspec.get("initial", []), "family initial"))
        ]
        extras = {}
        for k, vs in _object(famspec.get("extras", {}), "family extras").items():
            try:
                index = _integer(k)
            except ValueError:
                raise ValidationError(f"family extras: index {k!r} is not an integer") from None
            if index in extras:
                raise ValidationError(f"family extras: repeated index {index}")
            extras[index] = [
                _pairs_to_array([v], f"family extra at index {k}")[0]
                for v in _list(vs, f"family extras at index {k}")
            ]
        fam = forward_closure(model, initial, extras)
    else:
        raise ValidationError(f"family type must be 'explicit' or 'forward-closure', got {kind!r}")

    _check_family(model, fam)

    predicates = {}
    for pname, spec in _object(need("predicates"), "predicates").items():
        spec = _object(spec, f"predicate {pname!r}")
        if "labels" in spec:
            p = _label_projector(spec["labels"], d1, f"predicate {pname!r}")
        elif "matrix" in spec:
            p = _pairs_to_matrix(spec["matrix"], f"predicate {pname!r}")
        else:
            raise ValidationError(f"predicate {pname!r} needs 'labels' or 'matrix'")
        if p.shape != (d1, d1):
            raise ValidationError(f"predicate {pname!r} has shape {p.shape}, expected {(d1, d1)}")
        if not linalg.is_projector(p, tol):
            raise ValidationError(f"predicate {pname!r} is not a projector")
        predicates[pname] = p

    grid_names = tuple(_list(doc.get(
        "grid_names", [str(k) for k in range(model.n_indices)]
    ), "grid_names"))
    if not all(isinstance(label, str) for label in grid_names):
        raise ValidationError("grid_names: entries must be strings")
    if len(grid_names) != model.n_indices:
        raise ValidationError(f"{name}: grid_names length does not match the grid")
    for k, label in enumerate(grid_names):
        if label in grid_names[:k]:
            raise ValidationError(f"grid_names: repeated label {label!r}")
    return Scenario(str(doc.get("name", name)), model, fam, predicates, grid_names)


def load_scenario(path, tol: Tolerance = DEFAULT_TOL) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads(text, name=str(path), tol=tol)


def _build_reference(tol: Tolerance) -> tuple:
    from .scenarios import build_reference_experiment

    ref = build_reference_experiment(tol)
    return "reference", ref.model, ref.fam, dict(ref.predicates), ("ts", "t0", "t1")


def _build_sg_observers(tol: Tolerance) -> tuple:
    from .scenarios import build_sg_observer_space

    space = build_sg_observer_space(
        [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)], tol
    )
    names = ("O+z", "O-z", "O+x", "O-x")
    predicates = {n: p for n, p in zip(names, space.observer_projectors)}
    return "sg-observers", space.model, space.fam, predicates, ("t0", "t1")


BUILTIN_SCENARIOS = ("reference", "sg-observers")


def builtin_scenario(name: str, tol: Tolerance = DEFAULT_TOL) -> Scenario:
    if name == "reference":
        sname, model, fam, preds, gnames = _build_reference(tol)
    elif name == "sg-observers":
        sname, model, fam, preds, gnames = _build_sg_observers(tol)
    else:
        raise KeyError(
            f"unknown scenario {name!r}; built in: {', '.join(BUILTIN_SCENARIOS)}"
        )
    _check_family(model, fam)
    return Scenario(sname, model, fam, preds, gnames)


def dump_builtin(name: str, tol: Tolerance = DEFAULT_TOL) -> str:
    sc = builtin_scenario(name, tol)
    return serialize(sc.name, sc.model, sc.fam, sc.predicates, sc.grid_names)
