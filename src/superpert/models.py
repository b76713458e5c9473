"""Model construction: the builtin quartic anharmonic oscillator and JSON
ingestion of user-supplied finite-dimensional models.

The oscillator convention is H_0 = -d^2/dx^2 + x^2 (eigenvalues 1, 3, 5, ...)
with x = (a + a^dagger)/sqrt(2), a_{n-1,n} = sqrt(n), and the quartic term
x^4 as the order-1 perturbation.

The terms are the operator in energy units, with hbar = 1: the generator
of every transform is G = iW, and no model carries an hbar.  Since hbar
enters the method only through W/hbar, it cancels out of every eigenvalue
and eigenvector, so a model file's legacy 'hbar' key is ignored like any
other key the loader does not read.

A model's terms share one dtype, decided here at ingestion: float64 when
every term's imaginary part is exactly zero, complex128 otherwise.  The
engine follows that dtype, so a real model such as the oscillator runs in
real arithmetic.  The terms are read-only: the engine memoizes on the model
what it derives from them alone (see `kolmogorov.run`).
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import as_array, hermitian_part, read_only, require_hermitian, require_integer
from .series import OperatorSeries, zero_padded


class ModelFormatError(ValueError):
    """A model file failed to parse or validate."""


@dataclass(frozen=True)
class ModelSpec:
    dim: int
    h_coeffs: tuple  # ((order, matrix), ...), order 0 first, orders distinct, one dtype
    name: str = "custom"
    provenance: str = "memory"
    # the engine's one memo entry for this model (see kolmogorov.run); a new
    # model, e.g. from dataclasses.replace, starts with an empty one
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the memo stays valid only while the terms do
        for _, mat in self.h_coeffs:
            read_only(mat)

    @property
    def max_order(self) -> int:
        return max(p for p, _ in self.h_coeffs)

    @property
    def is_linear(self) -> bool:
        return all(p <= 1 for p, _ in self.h_coeffs)

    def coefficient(self, order: int) -> np.ndarray:
        for p, mat in self.h_coeffs:
            if p == order:
                return mat
        return np.zeros((self.dim, self.dim), dtype=self.h_coeffs[0][1].dtype)

    def series(self, order: int) -> OperatorSeries:
        return zero_padded(dict(self.h_coeffs), self.dim, order)


@contextmanager
def _model_error(context):
    """Re-raise a validator's ValueError as ModelFormatError under `context`."""
    try:
        yield
    except ValueError as exc:
        raise ModelFormatError(f"{context}: {exc}") from exc


def _pairs(terms) -> list:
    """terms as a list; ValueError naming `terms` unless it is iterable, or
    `terms[i]` unless that is an (order, matrix) tuple or list."""
    try:
        terms = list(terms)
    except TypeError:
        raise ValueError(f"terms must be iterable, got {type(terms).__name__}") from None
    for i, term in enumerate(terms):
        if not (isinstance(term, (tuple, list)) and len(term) == 2):
            raise ValueError(f"terms[{i}] must be an (order, matrix) pair")
    return terms


def _validate_terms(dim, terms, name, provenance, context):
    """ModelSpec from (order, matrix) pairs; a bad matrix is named by its
    index in `terms` and its order.  The matrices are stored as float64 when
    every imaginary part is exactly zero, else as complex128."""
    with _model_error(context):
        dim = require_integer(dim, "dimension")
        terms = _pairs(terms)
        orders = [require_integer(p, f"terms[{i}]: order") for i, (p, _) in enumerate(terms)]
    if dim < 1:
        raise ModelFormatError(f"{context}: dimension must be positive, got {dim}")
    if len(set(orders)) != len(orders):
        raise ModelFormatError(f"{context}: duplicate term orders {sorted(orders)}")
    if 0 not in orders:
        raise ModelFormatError(f"{context}: the order-0 (unperturbed) term is required")
    clean = []
    for i, (p, (_, mat)) in enumerate(zip(orders, terms)):
        if p < 0:
            raise ModelFormatError(f"{context}: negative term order {p}")
        mat = as_array(mat)
        if mat.shape != (dim, dim):
            raise ModelFormatError(
                f"{context}: term of order {p} has shape {mat.shape}, "
                f"expected ({dim}, {dim})"
            )
        with _model_error(context):
            mat = require_hermitian(mat, what=f"terms[{i}]: term of order {p}")
        clean.append((p, hermitian_part(mat)))
    if any(np.iscomplexobj(m) and m.imag.any() for _, m in clean):
        clean = [(p, m.astype(np.complex128, copy=False)) for p, m in clean]
    else:
        clean = [(p, np.ascontiguousarray(m.real)) for p, m in clean]
    return ModelSpec(
        dim=dim,
        h_coeffs=tuple(sorted(clean, key=lambda t: t[0])),
        name=name,
        provenance=provenance,
    )


def _check_name(name, context):
    """ModelFormatError under `context` unless name is a string that no
    builtin model reserves."""
    if not isinstance(name, str):
        raise ModelFormatError(f"{context}: 'name' must be a string, got {name!r}")
    if name in BUILTIN_MODELS:
        raise ModelFormatError(
            f"{context}: 'name' {name!r} is reserved for the builtin model; "
            f"select it with 'builtin'"
        )


def make_model(dim, terms, name="custom", provenance="memory") -> ModelSpec:
    """Validated ModelSpec from (order, matrix) pairs; matrices are
    Hermiticity-checked and symmetrized.  The name is checked as in
    `model_from_dict`, and a bad one is reported under `provenance`."""
    _check_name(name, provenance)
    return _validate_terms(dim, terms, name, provenance, name)


def build_quartic_oscillator(dim: int) -> ModelSpec:
    """Quartic anharmonic oscillator truncated to the lowest dim levels.

    x^4 = (a + a^dagger)^4 / 4 is built from its ladder matrix elements;
    each depends only on its own indices, so the retained entries are the
    exact infinite-basis ones for any truncation.
    """
    dim = require_integer(dim, "dim")
    if dim < 8:
        raise ValueError(f"quartic oscillator needs dim >= 8, got {dim}")
    n = np.arange(dim, dtype=float)
    m2, m4 = n[:-2], n[:-4]
    off2 = (2.0 * m2 + 3.0) / 2.0 * np.sqrt((m2 + 1.0) * (m2 + 2.0))
    off4 = np.sqrt((m4 + 1.0) * (m4 + 2.0) * (m4 + 3.0) * (m4 + 4.0)) / 4.0
    upper = np.diag(off2, 2) + np.diag(off4, 4)
    x4 = np.diag((6.0 * n**2 + 6.0 * n + 3.0) / 4.0) + upper + upper.T
    return _validate_terms(
        dim,
        [(0, np.diag(2.0 * n + 1.0)), (1, x4)],
        name="quartic_oscillator",
        provenance="builtin",
        context="quartic_oscillator",
    )


BUILTIN_MODELS = {"quartic_oscillator": build_quartic_oscillator}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_entry(x) -> bool:
    if _is_number(x):
        return True
    return (
        isinstance(x, list)
        and len(x) == 2
        and _is_number(x[0])
        and _is_number(x[1])
    )


def _parse_entry(x) -> complex:
    if _is_number(x):
        return complex(x, 0.0)
    return complex(x[0], x[1])


def _parse_matrix(data, dim, context):
    if not isinstance(data, list):
        raise ModelFormatError(f"{context}: matrix must be a list")
    rows_ok = len(data) == dim and all(
        isinstance(r, list) and len(r) == dim and all(_is_entry(e) for e in r)
        for r in data
    )
    if rows_ok:
        return np.array(
            [[_parse_entry(e) for e in row] for row in data], dtype=np.complex128
        )
    if len(data) == dim * dim and all(_is_entry(e) for e in data):
        flat = np.array([_parse_entry(e) for e in data], dtype=np.complex128)
        return flat.reshape(dim, dim)
    raise ModelFormatError(
        f"{context}: matrix must be {dim} rows of {dim} entries or a flat "
        f"row-major list of {dim * dim} entries (each a real or an [re, im] pair)"
    )


def _dimension(data, provenance):
    """The document's integer 'dimension'."""
    dim = data["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ModelFormatError(f"{provenance}: 'dimension' must be an integer")
    if dim < 1:
        raise ModelFormatError(f"{provenance}: 'dimension' must be at least 1, got {dim}")
    return dim


def model_from_dict(data, provenance="memory") -> ModelSpec:
    """Build a ModelSpec from the JSON model schema (see README)."""
    if not isinstance(data, dict):
        raise ModelFormatError(f"{provenance}: model document must be an object")
    if "builtin" in data:
        tag = data["builtin"]
        builder = BUILTIN_MODELS.get(tag)
        if builder is None:
            raise ModelFormatError(
                f"{provenance}: unknown builtin {tag!r}; "
                f"available: {sorted(BUILTIN_MODELS)}"
            )
        if "dimension" not in data:
            raise ModelFormatError(f"{provenance}: builtin selector needs 'dimension'")
        dim = _dimension(data, provenance)
        with _model_error(provenance):
            model = builder(dim)
        return replace(model, provenance=provenance)
    for field in ("dimension", "terms"):
        if field not in data:
            raise ModelFormatError(f"{provenance}: missing required field {field!r}")
    dim = _dimension(data, provenance)
    name = data.get("name", "custom")
    _check_name(name, provenance)
    if not isinstance(data["terms"], list) or not data["terms"]:
        raise ModelFormatError(f"{provenance}: 'terms' must be a nonempty list")
    terms = []
    for i, term in enumerate(data["terms"]):
        context = f"{provenance}: terms[{i}]"
        if not isinstance(term, dict):
            raise ModelFormatError(f"{context}: each term must be an object")
        if "order" not in term or "matrix" not in term:
            raise ModelFormatError(f"{context}: needs 'order' and 'matrix'")
        order = term["order"]
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ModelFormatError(f"{context}: 'order' must be an integer >= 0")
        terms.append((order, _parse_matrix(term["matrix"], dim, context)))
    return _validate_terms(dim, terms, name, provenance, provenance)


def load_model(path) -> ModelSpec:
    """Load and validate a model file (JSON, UTF-8)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return model_from_dict(data, provenance=str(path))
