"""Polynomial arithmetic with affine decision coefficients, on arrays.

Everything downstream (SOS compilation, synthesis in both domains) works on
polynomials whose coefficients are *affine* expressions in a set of named
decision scalars (learning gains, the contraction rate, ...).  The affine
structure is what keeps the synthesis programs convex, so a product of two
decision-carrying polynomials raises :class:`AffinityError` instead of
silently producing a bilinear term.

An :class:`AffinePoly` is two arrays: an integer exponent array (terms x
variables) and a float coefficient array (terms x (1 + m)) whose column 0 is
the constant and whose column 1 + j is the weight of ``decisions[j]``, a
sorted tuple.  A sum or product concatenates (or outer-sums) the exponent
rows, sorts them once and adds up the coefficients of equal rows.  After
every sum and product, a coefficient whose magnitude is at most
``PRUNE_REL`` times its column's largest magnitude in the operands is
dropped, so exact cancellations do not leave 1e-17 dust behind.  Each
column has its own scale: a decision weight of 1e13 does not erase the
constant 1 of ``1 - 1e13 l0``, nor another decision's weight.  A
:class:`PolyMatrix` is a grid of them that can also be read as one term
table; the whole-matrix operations work on that table.

Expressions on the unit circle ``z = e^{j omega}`` are Laurent polynomials:
an :class:`AffinePoly` over ``("z", *lam)`` with signed z exponents.
:func:`circle_image` maps one to real polynomial data in a single
substitution, ``z = (1 + jx) / (1 - jx)``, which covers the circle minus
``z = -1`` as ``x`` ranges over the reals, and clears the denominator
``(1 + x^2)^deg``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

PRUNE_REL = 1e-12


class AffinityError(Exception):
    """Product would be bilinear in the decision variables."""


class DegenerateDenominator(Exception):
    """Plant denominator vanishes (or nearly vanishes) on the unit circle."""


def _collect(exps: np.ndarray, coeffs: np.ndarray) -> tuple:
    """Sort exponent rows lexicographically and add up the coefficient rows
    of equal exponents (in input order)."""
    if len(exps) < 2:
        return exps, coeffs
    if exps.shape[1] == 0:
        return exps[:1], coeffs.sum(axis=0, keepdims=True)
    order = np.lexsort(exps.T[::-1])
    exps, coeffs = exps[order], coeffs[order]
    new = np.empty(len(exps), dtype=bool)
    new[0] = True
    np.any(exps[1:] != exps[:-1], axis=1, out=new[1:])
    if new.all():
        return exps, coeffs
    starts = np.flatnonzero(new)
    return exps[starts], np.add.reduceat(coeffs, starts, axis=0)


def _widened(coeffs: np.ndarray, have: tuple, names: tuple) -> np.ndarray:
    """Coefficient columns over decisions ``have`` spread over ``names``."""
    if have == names:
        return coeffs
    out = np.zeros((len(coeffs), 1 + len(names)))
    out[:, [0] + [1 + names.index(d) for d in have]] = coeffs
    return out


def _kept(keys: np.ndarray, coeffs: np.ndarray, names: tuple, scale) -> tuple:
    """The prune rule: drop each coefficient at most ``PRUNE_REL`` times its
    ``scale`` (broadcast over rows and columns), then the rows and decision
    columns left all zero.  Returns (keys, coeffs, names)."""
    keep = np.abs(coeffs) > PRUNE_REL * scale
    rows = keep.any(axis=1)
    cols = np.flatnonzero(keep[:, 1:].any(axis=0))
    if rows.all() and len(cols) == len(names):
        return keys, coeffs * keep, names
    return keys[rows], (coeffs * keep)[rows][:, [0, *(cols + 1)]], tuple(names[j] for j in cols)


def _resolved(coeffs: np.ndarray, decisions: tuple, assignment: Mapping[str, float] | None) -> np.ndarray:
    """Each coefficient row's value with the decisions set by ``assignment``."""
    if not decisions:
        return coeffs[:, 0]
    if assignment is None:
        raise KeyError(f"no assignment for decisions {decisions}")
    return coeffs @ np.array([1.0] + [float(assignment[d]) for d in decisions])


def _monomials(points: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """(K, terms): every exponent row's monomial at every point (K x nvars)."""
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


class AffinePoly:
    """Multivariate polynomial whose coefficients are affine in decisions.

    ``exps`` (terms x variables, int) and ``coeffs`` (terms x (1 + m)) hold
    the terms; no exponent row repeats, and arithmetic drops all-zero rows
    and decision columns.  ``variables`` fixes the meaning of the exponent
    columns.  Binary operations require both operands to share the same
    variable tuple (use :meth:`lift` to embed into a larger variable set).
    """

    __slots__ = ("variables", "exps", "coeffs", "decisions")

    def __init__(self, variables: Sequence[str], exps=None, coeffs=None,
                 decisions: Sequence[str] = ()):
        self.variables = tuple(variables)
        self.decisions = tuple(decisions)
        if exps is None:
            exps = np.zeros((0, len(self.variables)), dtype=np.int64)
            coeffs = np.zeros((0, 1 + len(self.decisions)))
        self.exps = np.asarray(exps, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=float)

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, variables: Sequence[str]) -> "AffinePoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value: float) -> "AffinePoly":
        return cls.monomial(variables, (0,) * len(tuple(variables)), value)

    @classmethod
    def decision(cls, variables: Sequence[str], name: str, weight: float = 1.0) -> "AffinePoly":
        """The constant ``weight * name``: the way a decision enters."""
        variables = tuple(variables)
        return cls(variables, [[0] * len(variables)], [[0.0, float(weight)]], (name,))

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "AffinePoly":
        variables = tuple(variables)
        return cls.monomial(variables, np.eye(len(variables), dtype=int)[variables.index(name)], 1.0)

    @classmethod
    def monomial(cls, variables: Sequence[str], exponents: Sequence[int], coeff: float) -> "AffinePoly":
        if coeff == 0:
            return cls(variables)
        return cls(variables, [list(exponents)], [[float(coeff)]])

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return len(self.exps) == 0

    def degree(self) -> int:
        return int(self.exps.sum(axis=1).max(initial=0))

    def degree_in(self, names: Iterable[str]) -> int:
        idx = [self.variables.index(n) for n in names]
        return int(self.exps[:, idx].sum(axis=1).max(initial=0))

    def max_magnitude(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0))

    def has_decisions(self) -> bool:
        return bool(self.decisions)

    # -- structural ops ----------------------------------------------------
    def lift(self, variables: Sequence[str]) -> "AffinePoly":
        """Embed into a superset/reordering of the current variables."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        exps = np.zeros((len(self.exps), len(variables)), dtype=np.int64)
        exps[:, [variables.index(v) for v in self.variables]] = self.exps
        return AffinePoly(variables, exps, self.coeffs, self.decisions)

    def pruned(self, scale=0.0) -> "AffinePoly":
        """Apply the prune rule with each column's scale the larger of
        ``scale`` (a number or one per column) and the column's largest
        magnitude."""
        scale = np.maximum(scale, np.abs(self.coeffs).max(axis=0, initial=0.0))
        return AffinePoly(self.variables, *_kept(self.exps, self.coeffs, self.decisions, scale))

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "AffinePoly"):
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other) -> "AffinePoly":
        if not isinstance(other, AffinePoly):
            other = AffinePoly.constant(self.variables, other)
        self._check(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        names = self.decisions
        if other.decisions != names:
            names = tuple(sorted(set(names) | set(other.decisions)))
        coeffs = np.concatenate([_widened(self.coeffs, self.decisions, names),
                                 _widened(other.coeffs, other.decisions, names)])
        scale = np.abs(coeffs).max(axis=0)  # the operands' scale, per column
        exps, coeffs = _collect(np.concatenate([self.exps, other.exps]), coeffs)
        return AffinePoly(self.variables, exps, coeffs, names).pruned(scale=scale)

    __radd__ = __add__

    def __neg__(self) -> "AffinePoly":
        return AffinePoly(self.variables, self.exps, -self.coeffs, self.decisions)

    def __sub__(self, other) -> "AffinePoly":
        if not isinstance(other, AffinePoly):
            other = AffinePoly.constant(self.variables, other)
        return self + (-other)

    def scaled(self, factor: float) -> "AffinePoly":
        if factor == 0:
            return AffinePoly(self.variables)
        return AffinePoly(self.variables, self.exps, self.coeffs * factor, self.decisions)

    def __mul__(self, other) -> "AffinePoly":
        if not isinstance(other, AffinePoly):
            return self.scaled(other)
        self._check(other)
        if self.decisions and other.decisions:
            raise AffinityError(f"product of two decision-carrying polynomials: "
                                f"{list(self.decisions)} x {list(other.decisions)}")
        n, k = len(self.exps) * len(other.exps), max(self.coeffs.shape[1], other.coeffs.shape[1])
        exps = (self.exps[:, None, :] + other.exps[None, :, :]).reshape(n, len(self.variables))
        coeffs = (self.coeffs[:, None, :] * other.coeffs[None, :, :]).reshape(n, k)
        # the largest product per column is the product of the operands' column scales
        scale = np.abs(coeffs).max(axis=0, initial=0.0)
        if len(self.exps) > 1 and len(other.exps) > 1:  # a monomial factor keeps rows distinct
            exps, coeffs = _collect(exps, coeffs)
        return AffinePoly(self.variables, exps, coeffs,
                          self.decisions or other.decisions).pruned(scale=scale)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "AffinePoly":
        if n < 0:
            raise ValueError("negative power")
        result = AffinePoly.constant(self.variables, 1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def substitute(self, images: Mapping[str, "AffinePoly"], variables: Sequence[str]) -> "AffinePoly":
        """Replace variables by (decision-free) polynomials over ``variables``.

        Variables without an image must be members of ``variables`` and map
        to themselves.
        """
        variables = tuple(variables)
        if any(img.has_decisions() for img in images.values()):
            raise AffinityError("substitution images must be decision-free")
        base = [images[v].lift(variables) if v in images else AffinePoly.variable(variables, v)
                for v in self.variables]
        out = AffinePoly.zero(variables)
        for e, c in zip(self.exps.tolist(), self.coeffs):
            term = AffinePoly.constant(variables, 1.0)
            for b, k in zip(base, e):
                if k:
                    term = term * b ** k
            out = out + term * AffinePoly(variables, [[0] * len(variables)], [c], self.decisions)
        return out

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, point: Mapping[str, float], assignment: Mapping[str, float] | None = None):
        """Value at ``point`` (complex values allowed), decisions resolved
        by ``assignment``."""
        return self.evaluate_batch(np.array([[point[v] for v in self.variables]]),
                                   assignment)[0].item()

    def evaluate_batch(self, points: np.ndarray, assignment: Mapping[str, float] | None = None) -> np.ndarray:
        """Evaluate at ``points`` (K x nvars), decisions resolved by ``assignment``."""
        points = np.asarray(points) * 1.0
        if points.ndim == 1:
            points = points[:, None]
        return _monomials(points, self.exps) @ _resolved(self.coeffs, self.decisions, assignment)

    def allclose(self, other: "AffinePoly", tol: float = 1e-9) -> bool:
        self._check(other)
        diff = self - other
        scale = max(self.max_magnitude(), other.max_magnitude(), 1.0)
        return diff.max_magnitude() <= tol * scale


# ---------------------------------------------------------------------------
# polynomial matrices
#
# A matrix's terms also form one table (entry, exps, coeffs, decisions): the
# rows of entry i * cols + j in ascending entry order, the coefficients over
# the sorted union of the entries' decisions.  The whole-matrix operations
# work on that table; each entry is pruned relative to its own scale.


def _entry_max(count: int, entry: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(count, columns): the largest magnitude per entry and coefficient column."""
    out = np.zeros((count, coeffs.shape[1]))
    np.maximum.at(out, entry, np.abs(coeffs))
    return out


def _summed_table(count: int, entry, exps, coeffs, names, own_scale: bool = False) -> tuple:
    """The table of the terms summed per (entry, exponents), pruned with
    each entry's column scale the larger of the column's largest magnitude
    over the entry's summands (unless ``own_scale``) and over its sums."""
    scale = 0.0 if own_scale else _entry_max(count, entry, coeffs)
    keys, coeffs = _collect(np.column_stack([entry, exps]), coeffs)
    scale = np.maximum(scale, _entry_max(count, keys[:, 0], coeffs))[keys[:, 0]]
    keys, coeffs, names = _kept(keys, coeffs, names, scale)
    return keys[:, 0], keys[:, 1:], coeffs, names


def _joined(parts: Sequence[tuple]) -> tuple:
    """One table from (entry, exps, coeffs, decisions) parts, over the union
    of their decisions, rows stably sorted by entry."""
    names = tuple(sorted({d for *_, have in parts for d in have}))
    entry = np.concatenate([e for e, *_ in parts])
    order = np.argsort(entry, kind="stable")
    return (entry[order], np.concatenate([x for _, x, _, _ in parts])[order],
            np.concatenate([_widened(c, have, names) for _, _, c, have in parts])[order], names)


def _products(count: int, a: tuple, b: tuple, ai, bi, entry) -> tuple:
    """Sum per ``entry`` of the products of table a's rows ``ai`` with table
    b's rows ``bi`` (affine: no pair may carry decisions on both sides)."""
    names = tuple(sorted(set(a[3]) | set(b[3])))
    ca, cb = _widened(a[2], a[3], names)[ai], _widened(b[2], b[3], names)[bi]
    if ((ca[:, 1:] != 0).any(axis=1) & (cb[:, 1:] != 0).any(axis=1)).any():
        raise AffinityError(f"product of two decision-carrying polynomials: "
                            f"{list(a[3])} x {list(b[3])}")
    coeffs = ca[:, :1] * cb + cb[:, :1] * ca
    coeffs[:, 0] *= 0.5
    return _summed_table(count, entry, a[1][ai] + b[1][bi], coeffs, names)


class PolyMatrix:
    """Dense matrix of :class:`AffinePoly`, all sharing one variable tuple.

    It holds its entries, its term table (:meth:`table`) or both, and forms
    the other on first use."""

    __slots__ = ("rows", "cols", "variables", "_entries", "_table")

    def __init__(self, rows: int, cols: int, variables: Sequence[str], entries: list | None = None,
                 table: tuple | None = None):
        self.rows = rows
        self.cols = cols
        self.variables = tuple(variables)
        if entries is None and table is None:
            table = (np.zeros(0, np.int64), np.zeros((0, len(self.variables)), np.int64),
                     np.zeros((0, 1)), ())
        if entries is not None and len(entries) != rows * cols:
            raise ValueError("entry count mismatch")
        self._entries = entries
        self._table = table

    @property
    def entries(self) -> list:
        if self._entries is None:
            entry, exps, coeffs, names = self._table
            bounds = np.searchsorted(entry, np.arange(self.rows * self.cols + 1)).tolist()
            used = coeffs[:, 1:] != 0
            self._entries = []
            for lo, hi in zip(bounds, bounds[1:]):
                cols = np.flatnonzero(used[lo:hi].any(axis=0))
                self._entries.append(AffinePoly(self.variables, exps[lo:hi],
                                                coeffs[lo:hi, [0, *(cols + 1)]],
                                                [names[c] for c in cols]))
        return self._entries

    def table(self) -> tuple:
        """(entry, exps, coeffs, decisions): every entry's terms in one table."""
        if self._table is None:
            self._table = _joined([(np.full(len(p.exps), k), p.exps, p.coeffs, p.decisions)
                                   for k, p in enumerate(self._entries)])
        return self._table

    def with_table(self, table: tuple) -> "PolyMatrix":
        """A matrix of this shape and variables holding ``table``."""
        return PolyMatrix(self.rows, self.cols, self.variables, table=table)

    @classmethod
    def identity(cls, n: int, variables: Sequence[str]) -> "PolyMatrix":
        variables = tuple(variables)
        return cls(n, n, variables, table=(np.arange(n) * (n + 1),
                                           np.zeros((n, len(variables)), np.int64),
                                           np.ones((n, 1)), ()))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[AffinePoly]]) -> "PolyMatrix":
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        variables = rows[0][0].variables
        return cls(len(rows), c, variables, [p.lift(variables) for row in rows for p in row])

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["PolyMatrix"]]) -> "PolyMatrix":
        cols = sum(m.cols for m in blocks[0])
        parts = []
        r0 = 0
        for brow in blocks:
            c0 = 0
            for blk in brow:
                if blk.rows != brow[0].rows:
                    raise ValueError("block height mismatch")
                entry, exps, coeffs, names = blk.table()
                i, j = np.divmod(entry, blk.cols)
                parts.append(((r0 + i) * cols + c0 + j, exps, coeffs, names))
                c0 += blk.cols
            r0 += brow[0].rows
        return cls(r0, cols, blocks[0][0].variables, table=_joined(parts))

    def __getitem__(self, key) -> AffinePoly:
        i, j = key
        return self.entries[i * self.cols + j]

    def __setitem__(self, key, value: AffinePoly):
        i, j = key
        self.entries[i * self.cols + j] = value.lift(self.variables)
        self._table = None

    def transpose(self) -> "PolyMatrix":
        entry, exps, coeffs, names = self.table()
        i, j = np.divmod(entry, self.cols)
        moved = j * self.rows + i
        order = np.argsort(moved, kind="stable")
        return PolyMatrix(self.cols, self.rows, self.variables,
                          table=(moved[order], exps[order], coeffs[order], names))

    @property
    def T(self) -> "PolyMatrix":
        return self.transpose()

    def _summed(self, other: "PolyMatrix", sign: float) -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        eb, xb, cb, db = other.table()
        return self.with_table(_summed_table(self.rows * self.cols,
                                             *_joined([self.table(), (eb, xb, sign * cb, db)])))

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._summed(other, 1.0)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._summed(other, -1.0)

    def scaled(self, factor: AffinePoly) -> "PolyMatrix":
        """Every entry times the polynomial ``factor``."""
        a = self.table()
        b = (np.zeros(len(factor.exps), np.int64), factor.exps, factor.coeffs, factor.decisions)
        ai = np.repeat(np.arange(len(a[0])), len(b[0]))
        bi = np.tile(np.arange(len(b[0])), len(a[0]))
        return self.with_table(_products(self.rows * self.cols, a, b, ai, bi, a[0][ai]))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        a, b = self.table(), other.table()
        # every (A[i, k] term, B[k, j] term) pair; B's rows are sorted by k
        i, ka = np.divmod(a[0], self.cols)
        kb, j = np.divmod(b[0], other.cols)
        first = np.searchsorted(kb, np.arange(other.rows + 1))
        count = first[ka + 1] - first[ka]
        ai = np.repeat(np.arange(len(ka)), count)
        bi = np.arange(count.sum()) + np.repeat(first[ka] - np.cumsum(count) + count, count)
        return PolyMatrix(self.rows, other.cols, self.variables, table=_products(
            self.rows * other.cols, a, b, ai, bi, i[ai] * other.cols + j[bi]))

    def degree(self) -> int:
        return int(self.table()[1].sum(axis=1).max(initial=0))

    def degree_in(self, names: Iterable[str]) -> int:
        idx = [self.variables.index(n) for n in names]
        return int(self.table()[1][:, idx].sum(axis=1).max(initial=0))

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        """Each entry (i, j) differs from (j, i) by at most ``tol`` times
        the larger of 1 and the two entries' largest coefficient."""
        if self.rows != self.cols:
            return False
        n = self.rows
        entry, exps, coeffs, _ = self.table()
        i, j = np.divmod(entry, n)
        off = i != j
        keys, diff = _collect(np.column_stack([np.minimum(i, j) * n + np.maximum(i, j), exps])[off],
                              (coeffs * np.where(i < j, 1.0, -1.0)[:, None])[off])
        scale = _entry_max(n * n, entry, coeffs).max(axis=1).reshape(n, n)
        scale = np.maximum(np.maximum(scale, scale.T), 1.0).ravel()[keys[:, 0]]
        return bool((np.abs(diff).max(axis=1) <= tol * scale).all())

    def evaluate(self, point: Mapping[str, float], assignment: Mapping[str, float] | None = None) -> np.ndarray:
        entry, exps, coeffs, names = self.table()
        vals = _monomials(np.array([[point[v] for v in self.variables]]) * 1.0, exps)[0]
        vals = vals * _resolved(coeffs, names, assignment)
        return np.bincount(entry, weights=vals, minlength=self.rows * self.cols).reshape(
            self.rows, self.cols)


def compositions(total: int, parts: int) -> np.ndarray:
    """(rows, parts) int array: every row of ``parts`` nonnegative ints that
    sums to ``total``, in lexicographic order."""
    if parts == 0:
        return np.zeros((int(total == 0), 0), dtype=np.int64)
    rows, left = np.zeros((1, 0), dtype=np.int64), np.array([total])
    for _ in range(parts - 1):  # each row branches into values 0..left
        count = left + 1
        at = np.repeat(np.arange(len(rows)), count)
        v = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        rows, left = np.column_stack([rows[at], v]), left[at] - v
    return np.column_stack([rows, left])


def simplex_mesh(d: int, resolution: int = 50) -> np.ndarray:
    """All barycentric grid points of the unit simplex in d coordinates with
    denominators ``resolution``, in lexicographic order."""
    if resolution < 1:
        raise ValueError(f"mesh resolution must be at least 1, got {resolution}")
    if d == 0:
        return np.zeros((1, 0))
    return compositions(resolution, d) / float(resolution)


# ---------------------------------------------------------------------------
# structural operations


def homogenize(obj, simplex_vars: Sequence[str]):
    """Multiply each term by powers of ``sum(simplex_vars)`` so all terms
    reach the maximum degree in those variables.  Values on the simplex
    (where the variables sum to one) are unchanged.

    Accepts an :class:`AffinePoly` or a :class:`PolyMatrix`; for a matrix the
    target degree is the maximum over all entries.  With no simplex
    variables there is nothing to multiply, and ``obj`` itself is returned.
    """
    if not simplex_vars:
        return obj
    if isinstance(obj, AffinePoly):
        return homogenize(PolyMatrix(1, 1, obj.variables, [obj]), simplex_vars)[0, 0]
    variables = obj.variables
    entry, exps, coeffs, names = obj.table()
    if not len(entry):
        return obj
    idx = [variables.index(v) for v in simplex_vars]
    short = obj.degree_in(simplex_vars) - exps[:, idx].sum(axis=1)
    lin = AffinePoly(variables, np.eye(len(variables), dtype=np.int64)[idx], np.ones((len(idx), 1)))
    power = AffinePoly.constant(variables, 1.0)
    # c * monomial(e) * lin^(target - d) for every term, summed and pruned once
    parts = []
    for k in range(short.max(initial=-1) + 1):
        rows = np.flatnonzero(short == k)
        ai, bi = np.repeat(rows, len(power.exps)), np.tile(np.arange(len(power.exps)), len(rows))
        parts.append((entry[ai], exps[ai] + power.exps[bi], coeffs[ai] * power.coeffs[bi]))
        power = power * lin
    return obj.with_table(_summed_table(obj.rows * obj.cols, *(np.concatenate(x) for x in zip(*parts)),
                                        names, own_scale=True))


def substitute_squares(obj, var_names: Sequence[str]):
    """Replace each listed variable v by v^2 (exponent doubling)."""
    if isinstance(obj, AffinePoly):
        return substitute_squares(PolyMatrix(1, 1, obj.variables, [obj]), var_names)[0, 0]
    entry, exps, coeffs, names = obj.table()
    factor = np.array([2 if v in var_names else 1 for v in obj.variables], dtype=np.int64)
    return obj.with_table((entry, exps * factor, coeffs, names))


# ---------------------------------------------------------------------------
# circle rationalization
#
# A Laurent polynomial is an AffinePoly over ("z", *lam) whose z exponents
# may be negative; its coefficients in z are real, so on |z| = 1 the
# conjugate of c(z) is c(1/z).


def circle_degree(c: AffinePoly, imag: bool = False) -> int:
    """Highest harmonic of Re (``imag``: Im) of a Laurent polynomial c on
    |z| = 1: the largest k whose cosine coefficient c_k + c_-k (sine
    coefficient c_k - c_-k) is nonzero, else 0.  cos(k omega) and
    sin(k omega) have degree k in (Re z, Im z)."""
    z = c.exps[:, :1]
    sign = np.where(z < 0, -1.0, 1.0) if imag else 1.0
    exps, coeffs = _collect(np.hstack([np.abs(z), c.exps[:, 1:]]), c.coeffs * sign)
    folded = AffinePoly(c.variables, exps, coeffs, c.decisions).pruned(
        scale=np.abs(c.coeffs).max(axis=0, initial=0.0))
    return int(folded.exps[:, 0].max(initial=0))


def circle_image(c: AffinePoly, deg: int) -> tuple[AffinePoly, AffinePoly]:
    """(1 + x^2)^deg times (Re, Im) of a Laurent polynomial c at
    z = (1 + jx)/(1 - jx), both over ``("x", *lam)``.

    As x runs over the reals, z runs over the unit circle minus z = -1.
    z^i (1 + x^2)^deg = (1 + jx)^(2i) (1 + x^2)^(deg - i) for i >= 0 and the
    conjugate of the |i| term for i < 0, so ``deg`` must reach every |i|.
    """
    z = c.exps[:, 0].tolist()
    if any(abs(i) > deg for i in z):
        raise ValueError(f"z^{max(z, key=abs)} exceeds the cleared degree {deg}")
    image = {}
    for i in set(z):  # ascending coefficients in x, all exact
        a, b = abs(i), deg - abs(i)
        w = np.convolve([math.comb(2 * a, k) * 1j ** k for k in range(2 * a + 1)],
                        [0 if k % 2 else math.comb(b, k // 2) for k in range(2 * b + 1)])
        image[i] = w if i >= 0 else w.conj()
    W = np.array([image[i] for i in z]).reshape(len(z), 2 * deg + 1)  # (terms, x powers)
    T, K, n = W.shape[0], W.shape[1], c.exps.shape[1]
    exps = np.empty((T, K, n), dtype=np.int64)
    exps[:, :, 0] = np.arange(K)
    exps[:, :, 1:] = c.exps[:, None, 1:]
    exps = exps.reshape(T * K, n)
    variables = ("x",) + c.variables[1:]

    def part(w):
        coeffs = (w[:, :, None] * c.coeffs[:, None, :]).reshape(T * K, -1)
        return AffinePoly(variables, *_collect(exps, coeffs), c.decisions).pruned()

    return part(W.real), part(W.imag)


def _check_den_on_circle(den: AffinePoly, lambda_points: Iterable[Mapping[str, float]],
                         n_omega: int = 721, tol: float = 1e-9):
    """Raise DegenerateDenominator at the first (point, omega) of the grid
    where the Laurent polynomial |den| falls below ``tol`` times its largest
    coefficient."""
    scale = max(den.max_magnitude(), 1.0)
    omegas = np.linspace(0.0, 2.0 * np.pi, n_omega)
    zpow = np.exp(1j * np.outer(den.exps[:, 0], omegas))  # (terms, omegas)
    lam = den.variables[1:]
    for pt in lambda_points:
        lam_pt = np.array([float(pt[v]) for v in lam])
        mags = np.abs((den.coeffs[:, 0] * np.prod(lam_pt ** den.exps[:, 1:], axis=1)) @ zpow)
        bad = np.flatnonzero(mags < tol * scale)
        if bad.size:
            raise DegenerateDenominator(
                f"denominator has magnitude {mags[bad[0]]:.2e} at omega={omegas[bad[0]]:.4f}, "
                f"point={dict(pt)}")
