"""Scenario files.

A scenario is a JSON document carrying the model dimensions, grid, step
unitaries, physical family, and named system1 predicates.  Complex
numbers are stored as [re, im] pairs so the format stays diffable and
binary-free.  Loading validates every declared object and fails naming
the first offender.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .linalg import DEFAULT_TOL, Tolerance
from .model import Model, PhysicalFamily, TimeGrid, forward_closure, validate_family

FORMAT_VERSION = 1


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
            return self.model.grid.check_index(int(token))
        except (ValueError, IndexError):
            raise KeyError(
                f"unknown grid label {token!r}; available: {', '.join(self.grid_names)}"
            ) from None


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


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what}: non-finite entry (NaN or infinity)")
    return a


def _pairs_to_matrix(rows, what: str) -> np.ndarray:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, IndexError, KeyError, ValueError):
        raise ValidationError(f"{what}: entries must be [re, im] pairs") from None
    if m.ndim != 2 or m.size == 0:
        raise ValidationError(f"{what}: expected a non-empty matrix of [re, im] pairs")
    return _finite(m, what)


def _pairs_to_vector(entries, what: str) -> np.ndarray:
    try:
        v = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, IndexError, KeyError, ValueError):
        raise ValidationError(f"{what}: entries must be [re, im] pairs") from None
    return _finite(v, what)


def _label_projector(labels, d1: int, what: str) -> np.ndarray:
    p = np.zeros((d1, d1), dtype=complex)
    for l in _list(labels, f"{what} labels"):
        if not _is_integer(l) or not 0 <= l < d1:
            raise ValidationError(f"{what} labels: {l!r} is not an integer in 0..{d1 - 1}")
        p[l, l] = 1.0
    return p


class _Held:
    """A matrix that ``json`` leaves to :func:`_render` as a placeholder."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix


def _layout(items: list, pad: str) -> str:
    """Rendered list items laid out as ``json.dumps(indent=2)`` lays out a
    list whose opening line starts with ``pad``."""
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _render(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` where each held matrix
    is written as nested [re, im] lists.

    ``json`` renders everything else, with each held matrix as a
    placeholder string: a run of NUL characters, lengthened until its
    rendered text occurs exactly once per matrix, so that a caller's
    string (a name or a ``family_spec`` entry) is never taken for one.
    Each matrix is then one ``%`` format of a template built from its
    shape and from the indent of the line its placeholder is on; ``%s``
    of a Python float is the ``repr`` that ``json`` writes.
    """
    mark = "\x00"
    while True:
        held = []

        def placeholder(obj):
            if not isinstance(obj, _Held):
                return json.JSONEncoder().default(obj)   # raises json's TypeError
            held.append(obj.matrix)
            return mark

        pieces = json.dumps(doc, indent=2, sort_keys=True, default=placeholder).split(
            json.dumps(mark))
        if len(pieces) == len(held) + 1:
            break
        mark += "\x00"
    parts = [pieces[0]]
    for m, before, after in zip(held, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        pad = "\n" + line[:len(line) - len(line.lstrip(" "))]
        pair = _layout(["%s", "%s"], pad + "    ")
        template = _layout([_layout([pair] * m.shape[1], pad + "  ")] * m.shape[0], pad)
        parts += [template % tuple(m.ravel().view(np.float64).tolist()), after]
    return "".join(parts)


def serialize(name: str, model: Model, fam: PhysicalFamily, predicates: dict,
              grid_names=None, family_spec: dict | None = None) -> str:
    """Render a scenario as a deterministic JSON string.

    The family is stored as explicit projectors unless ``family_spec``
    supplies a forward-closure description to embed instead.  A predicate
    is stored as ``labels`` when it is diagonal with 0/1 entries within
    the model's ``eps_zero``, and as a ``matrix`` otherwise.
    """
    doc = {
        "format": FORMAT_VERSION,
        "name": name,
        "dimensions": {"d1": model.d1, "d2": model.d2},
        "grid": list(model.grid.times),
        "grid_names": list(grid_names) if grid_names else
                      [str(k) for k in range(model.n_indices)],
        "steps": [_Held(u) for u in model.steps],
        "family": family_spec if family_spec is not None else {
            "type": "explicit",
            "projectors": [_Held(p) for p in fam.projectors],
        },
        "predicates": {},
    }
    for pname in sorted(predicates):
        p = linalg.as_matrix(predicates[pname])
        labels = np.diag(p).real > 0.5
        if linalg.max_abs(p - np.diag(labels)) <= model.tol.eps_zero:
            doc["predicates"][pname] = {"labels": np.flatnonzero(labels).tolist()}
        else:
            doc["predicates"][pname] = {"matrix": _Held(p)}
    return _render(doc)


def loads(text: str, name: str = "<string>",
          tol: Tolerance = DEFAULT_TOL) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{name}: not valid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{name}: top level must be an object")

    def need(key):
        if key not in doc:
            raise ValidationError(f"{name}: missing required field {key!r}")
        return doc[key]

    dims = need("dimensions")
    d1, d2 = (dims.get("d1"), dims.get("d2")) if isinstance(dims, dict) else (None, None)
    if not (_is_integer(d1) and _is_integer(d2)):
        raise ValidationError(f"{name}: dimensions must carry integer d1 and d2")

    times = _list(need("grid"), "grid")
    if not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in times):
        raise ValidationError("grid: entries must be numbers")
    grid = TimeGrid(tuple(times))
    steps = tuple(_pairs_to_matrix(rows, f"step {k}")
                  for k, rows in enumerate(_list(need("steps"), "steps")))
    try:
        model = Model(d1, d2, grid, steps, tol)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None

    famspec = _object(need("family"), "family")
    kind = famspec.get("type")
    if kind == "explicit":
        fam = PhysicalFamily(tuple(
            _pairs_to_matrix(rows, f"family projector {k}")
            for k, rows in enumerate(_list(famspec.get("projectors", []), "family projectors"))
        ))
    elif kind == "forward-closure":
        initial = [
            _pairs_to_vector(v, f"family initial state {i}")
            for i, v in enumerate(_list(famspec.get("initial", []), "family initial"))
        ]
        extras = {}
        for k, vs in _object(famspec.get("extras", {}), "family extras").items():
            try:
                index = int(k)
            except ValueError:
                raise ValidationError(f"family extras: index {k!r} is not an integer") from None
            extras[index] = [
                _pairs_to_vector(v, f"family extra at index {k}")
                for v in _list(vs, f"family extras at index {k}")
            ]
        fam = forward_closure(model, initial, extras)
    else:
        raise ValidationError(f"family type must be 'explicit' or 'forward-closure', got {kind!r}")

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

    grid_names = tuple(str(g) for g in _list(doc.get(
        "grid_names", [str(k) for k in range(model.n_indices)]
    ), "grid_names"))
    if len(grid_names) != model.n_indices:
        raise ValidationError(f"{name}: grid_names length does not match the grid")
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
    return Scenario(sname, model, fam, preds, gnames)


def dump_builtin(name: str, tol: Tolerance = DEFAULT_TOL) -> str:
    sc = builtin_scenario(name, tol)
    return serialize(sc.name, sc.model, sc.fam, sc.predicates, sc.grid_names)
