"""Exact polynomial arithmetic with affine decision coefficients.

Everything downstream (SOS compilation, synthesis in both domains) works on
polynomials whose coefficients are *affine* expressions in a set of named
decision scalars (learning gains, the squared contraction rate, ...).  The
affine structure is what keeps the synthesis programs convex, so products of
two decision-carrying objects raise :class:`AffinityError` instead of
silently producing a bilinear term.

Numbers are floats throughout; after every arithmetic operation, terms whose
magnitude is below ``PRUNE_REL`` times the largest coefficient of the result
are dropped, so exact cancellations do not leave 1e-17 dust behind.

The circle-rationalization helper :func:`circle_rationalize_xy` maps
expressions on the unit circle ``z = e^{j omega}`` into real polynomial
data: it keeps ``z = x1 + j x2`` with the constraint ``x1^2 + x2^2 = 1`` and
reduces monomials modulo that relation.  :func:`x_parameterize` then
substitutes the rational parameterization
``z = (1 - x^2 + 2jx) / (1 + x^2)``, which covers the circle minus
``z = -1`` as ``x`` ranges over the reals.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

PRUNE_REL = 1e-12


class AffinityError(Exception):
    """Product would be bilinear in the decision variables."""


class NotTriangular(Exception):
    """Matrix expected to be lower triangular is not."""


class NotToeplitz(Exception):
    """Matrix expected to be (lower-triangular) Toeplitz is not."""


class DegenerateDenominator(Exception):
    """Plant denominator vanishes (or nearly vanishes) on the unit circle."""


# ---------------------------------------------------------------------------
# affine coefficients


class AffineCoeff:
    """constant + sum of weight * decision_id, e.g. ``0.5 - 2.0*l0``."""

    __slots__ = ("const", "terms")

    def __init__(self, const: float = 0.0, terms: Mapping[str, float] | None = None):
        self.const = float(const)
        self.terms = dict(terms) if terms else {}

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "AffineCoeff":
        return cls(value)

    @classmethod
    def decision(cls, name: str, weight: float = 1.0) -> "AffineCoeff":
        return cls(0.0, {name: float(weight)})

    @staticmethod
    def wrap(value) -> "AffineCoeff":
        if isinstance(value, AffineCoeff):
            return value
        return AffineCoeff(float(value))

    # -- queries -------------------------------------------------------
    def magnitude(self) -> float:
        m = abs(self.const)
        for w in self.terms.values():
            m = max(m, abs(w))
        return m

    def is_constant(self) -> bool:
        return not self.terms

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.magnitude() <= tol

    def decision_ids(self):
        return set(self.terms)

    def evaluate(self, assignment: Mapping[str, float] | None = None) -> float:
        val = self.const
        for name, w in self.terms.items():
            if assignment is None:
                raise KeyError(f"no assignment for decision '{name}'")
            val += w * assignment[name]
        return val

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "AffineCoeff":
        other = AffineCoeff.wrap(other)
        terms = dict(self.terms)
        for k, w in other.terms.items():
            terms[k] = terms.get(k, 0.0) + w
        return AffineCoeff(self.const + other.const, terms)

    __radd__ = __add__

    def __neg__(self) -> "AffineCoeff":
        return AffineCoeff(-self.const, {k: -w for k, w in self.terms.items()})

    def __sub__(self, other) -> "AffineCoeff":
        return self + (-AffineCoeff.wrap(other))

    def __rsub__(self, other) -> "AffineCoeff":
        return AffineCoeff.wrap(other) + (-self)

    def __mul__(self, other) -> "AffineCoeff":
        other = AffineCoeff.wrap(other)
        if self.terms and other.terms:
            raise AffinityError(
                f"product of two decision-carrying coefficients: "
                f"{sorted(self.terms)} x {sorted(other.terms)}"
            )
        if other.terms:
            self, other = other, self
        c = other.const  # other is constant here
        return AffineCoeff(self.const * c, {k: w * c for k, w in self.terms.items()})

    __rmul__ = __mul__

    def scaled(self, factor: float) -> "AffineCoeff":
        return AffineCoeff(self.const * factor, {k: w * factor for k, w in self.terms.items()})

    def pruned(self, tol: float) -> "AffineCoeff":
        return AffineCoeff(
            self.const if abs(self.const) > tol else 0.0,
            {k: w for k, w in self.terms.items() if abs(w) > tol},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineCoeff):
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self):
        return hash((self.const, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        parts = []
        if self.const or not self.terms:
            parts.append(f"{self.const:g}")
        for k in sorted(self.terms):
            parts.append(f"{self.terms[k]:+g}*{k}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# polynomials


class AffinePoly:
    """Multivariate polynomial; coefficients are :class:`AffineCoeff`.

    ``variables`` fixes the meaning and order of exponent tuples.  Binary
    operations require both operands to share the same variable tuple (use
    :meth:`lift` to embed into a larger variable set).
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, AffineCoeff] | None = None):
        self.variables = tuple(variables)
        self.terms = dict(terms) if terms else {}

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, variables: Sequence[str]) -> "AffinePoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "AffinePoly":
        c = AffineCoeff.wrap(value)
        n = len(tuple(variables))
        if c.is_zero():
            return cls(variables)
        return cls(variables, {(0,) * n: c})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "AffinePoly":
        variables = tuple(variables)
        idx = variables.index(name)
        exp = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exp: AffineCoeff(1.0)})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponents: Sequence[int], coeff) -> "AffinePoly":
        c = AffineCoeff.wrap(coeff)
        if c.is_zero():
            return cls(variables)
        return cls(variables, {tuple(int(e) for e in exponents): c})

    @classmethod
    def linear_form(cls, variables: Sequence[str], weights: Mapping[str, float], const: float = 0.0) -> "AffinePoly":
        variables = tuple(variables)
        p = cls.constant(variables, const)
        for name, w in weights.items():
            p = p + cls.variable(variables, name).scaled(w)
        return p

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, names: Iterable[str]) -> int:
        idx = [self.variables.index(n) for n in names]
        if not self.terms:
            return 0
        return max(sum(e[i] for i in idx) for e in self.terms)

    def max_magnitude(self) -> float:
        if not self.terms:
            return 0.0
        return max(c.magnitude() for c in self.terms.values())

    def decision_ids(self) -> set:
        ids: set = set()
        for c in self.terms.values():
            ids |= c.decision_ids()
        return ids

    def has_decisions(self) -> bool:
        return any(c.terms for c in self.terms.values())

    def coeff(self, exponents: Sequence[int]) -> AffineCoeff:
        return self.terms.get(tuple(exponents), AffineCoeff(0.0))

    # -- structural ops ----------------------------------------------------
    def lift(self, variables: Sequence[str]) -> "AffinePoly":
        """Embed into a superset/reordering of the current variables."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        pos = [variables.index(v) for v in self.variables]
        n = len(variables)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for p, ei in zip(pos, e):
                ne[p] = ei
            terms[tuple(ne)] = c
        return AffinePoly(variables, terms)

    def pruned(self, rel: float = PRUNE_REL, scale: float | None = None) -> "AffinePoly":
        if scale is None:
            scale = self.max_magnitude()
        else:
            scale = max(scale, self.max_magnitude())
        if scale == 0.0:
            return AffinePoly(self.variables)
        tol = rel * scale
        terms = {}
        for e, c in self.terms.items():
            c = c.pruned(tol)
            if not c.is_zero():
                terms[e] = c
        return AffinePoly(self.variables, terms)

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "AffinePoly"):
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other) -> "AffinePoly":
        if not isinstance(other, AffinePoly):
            other = AffinePoly.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            terms[e] = c if acc is None else acc + c
        scale = max(self.max_magnitude(), other.max_magnitude())
        return AffinePoly(self.variables, terms).pruned(scale=scale)

    __radd__ = __add__

    def __neg__(self) -> "AffinePoly":
        return AffinePoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "AffinePoly":
        if not isinstance(other, AffinePoly):
            other = AffinePoly.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other) -> "AffinePoly":
        return AffinePoly.constant(self.variables, other) - self

    def scaled(self, factor) -> "AffinePoly":
        c = AffineCoeff.wrap(factor)
        if c.is_constant():
            f = c.const
            return AffinePoly(self.variables, {e: t.scaled(f) for e, t in self.terms.items()})
        # affine factor: delegate to coefficient multiply (guards affinity)
        return AffinePoly(self.variables, {e: t * c for e, t in self.terms.items()}).pruned()

    def __mul__(self, other) -> "AffinePoly":
        if not isinstance(other, AffinePoly):
            return self.scaled(other)
        self._check(other)
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = acc.get(e)
                acc[e] = prod if cur is None else cur + prod
        scale = self.max_magnitude() * other.max_magnitude()
        return AffinePoly(self.variables, acc).pruned(scale=scale)

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
        for img in images.values():
            if img.has_decisions():
                raise AffinityError("substitution images must be decision-free")
        base: dict[str, AffinePoly] = {}
        for v in self.variables:
            if v in images:
                base[v] = images[v].lift(variables)
            else:
                base[v] = AffinePoly.variable(variables, v)
        out = AffinePoly.zero(variables)
        for e, c in self.terms.items():
            term = AffinePoly.constant(variables, 1.0)
            for v, ei in zip(self.variables, e):
                if ei:
                    term = term * base[v] ** ei
            out = out + term.scaled(c)
        return out

    # -- evaluation ----------------------------------------------------------
    def evaluate_coeff(self, point: Mapping[str, float]) -> AffineCoeff:
        """Evaluate the variables at ``point``; decisions stay symbolic."""
        vals = [float(point[v]) for v in self.variables]
        out = AffineCoeff(0.0)
        for e, c in self.terms.items():
            m = 1.0
            for vi, ei in zip(vals, e):
                if ei:
                    m *= vi ** ei
            out = out + c.scaled(m)
        return out

    def evaluate(self, point: Mapping[str, float], assignment: Mapping[str, float] | None = None) -> float:
        return self.evaluate_coeff(point).evaluate(assignment)

    def evaluate_batch(self, points: np.ndarray, assignment: Mapping[str, float] | None = None) -> np.ndarray:
        """Evaluate at ``points`` (K x nvars), decisions resolved by ``assignment``."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if not self.terms:
            return np.zeros(points.shape[0])
        exps = np.array(list(self.terms.keys()), dtype=int)          # (T, n)
        coeffs = np.array([c.evaluate(assignment) for c in self.terms.values()])
        # (K, T): product over variables of point^exp
        mono = np.prod(points[:, None, :] ** exps[None, :, :], axis=2)
        return mono @ coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffinePoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def allclose(self, other: "AffinePoly", tol: float = 1e-9) -> bool:
        self._check(other)
        diff = self - other
        scale = max(self.max_magnitude(), other.max_magnitude(), 1.0)
        return diff.max_magnitude() <= tol * scale

    def __repr__(self) -> str:
        if not self.terms:
            return "AffinePoly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.variables, e) if k
            )
            c = self.terms[e]
            cs = f"({c!r})" if c.terms else f"{c.const:g}"
            bits.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# polynomial matrices


class PolyMatrix:
    """Dense matrix of :class:`AffinePoly`, all sharing one variable tuple."""

    __slots__ = ("rows", "cols", "variables", "entries")

    def __init__(self, rows: int, cols: int, variables: Sequence[str], entries: list | None = None):
        self.rows = rows
        self.cols = cols
        self.variables = tuple(variables)
        if entries is None:
            entries = [AffinePoly.zero(self.variables) for _ in range(rows * cols)]
        if len(entries) != rows * cols:
            raise ValueError("entry count mismatch")
        self.entries = entries

    @classmethod
    def zeros(cls, rows: int, cols: int, variables: Sequence[str]) -> "PolyMatrix":
        return cls(rows, cols, variables)

    @classmethod
    def identity(cls, n: int, variables: Sequence[str]) -> "PolyMatrix":
        m = cls(n, n, variables)
        for i in range(n):
            m[i, i] = AffinePoly.constant(variables, 1.0)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[AffinePoly]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0])
        variables = rows[0][0].variables
        entries = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            for p in row:
                entries.append(p.lift(variables))
        return cls(r, c, variables, entries)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["PolyMatrix"]]) -> "PolyMatrix":
        variables = blocks[0][0].variables
        rows = sum(b[0].rows for b in blocks)
        cols = sum(m.cols for m in blocks[0])
        out = cls.zeros(rows, cols, variables)
        r0 = 0
        for brow in blocks:
            c0 = 0
            h = brow[0].rows
            for blk in brow:
                if blk.rows != h:
                    raise ValueError("block height mismatch")
                for i in range(blk.rows):
                    for j in range(blk.cols):
                        out[r0 + i, c0 + j] = blk[i, j].lift(variables)
                c0 += blk.cols
            r0 += h
        return out

    def __getitem__(self, key) -> AffinePoly:
        i, j = key
        return self.entries[i * self.cols + j]

    def __setitem__(self, key, value: AffinePoly):
        i, j = key
        self.entries[i * self.cols + j] = value.lift(self.variables)

    def map_entries(self, fn) -> "PolyMatrix":
        ent = [fn(p) for p in self.entries]
        return PolyMatrix(self.rows, self.cols, ent[0].variables, ent)

    def transpose(self) -> "PolyMatrix":
        out = PolyMatrix.zeros(self.cols, self.rows, self.variables)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j, i] = self[i, j]
        return out

    @property
    def T(self) -> "PolyMatrix":
        return self.transpose()

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(self.rows, self.cols, self.variables,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(self.rows, self.cols, self.variables,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "PolyMatrix":
        return self.map_entries(lambda p: -p)

    def scaled(self, factor) -> "PolyMatrix":
        if isinstance(factor, AffinePoly):
            return self.map_entries(lambda p: p * factor)
        return self.map_entries(lambda p: p.scaled(factor))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = PolyMatrix.zeros(self.rows, other.cols, self.variables)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self[i, k]
                if a.is_zero():
                    continue
                for j in range(other.cols):
                    b = other[k, j]
                    if b.is_zero():
                        continue
                    out[i, j] = out[i, j] + a * b
        return out

    def degree(self) -> int:
        return max((p.degree() for p in self.entries), default=0)

    def degree_in(self, names: Iterable[str]) -> int:
        names = list(names)
        return max((p.degree_in(names) for p in self.entries), default=0)

    def decision_ids(self) -> set:
        ids: set = set()
        for p in self.entries:
            ids |= p.decision_ids()
        return ids

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(i + 1, self.cols):
                if not self[i, j].allclose(self[j, i], tol):
                    return False
        return True

    def evaluate(self, point: Mapping[str, float], assignment: Mapping[str, float] | None = None) -> np.ndarray:
        out = np.empty((self.rows, self.cols))
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self[i, j].evaluate(point, assignment)
        return out

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, vars={self.variables})"


# ---------------------------------------------------------------------------
# complex polynomials as (re, im) pairs


class ComplexPolyPair:
    """Complex polynomial with real variables, stored as (re, im)."""

    __slots__ = ("re", "im")

    def __init__(self, re: AffinePoly, im: AffinePoly | None = None):
        self.re = re
        self.im = im if im is not None else AffinePoly.zero(re.variables)
        if self.re.variables != self.im.variables:
            raise ValueError("re/im variable mismatch")

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "ComplexPolyPair":
        return cls(AffinePoly.zero(variables))

    def __add__(self, other: "ComplexPolyPair") -> "ComplexPolyPair":
        return ComplexPolyPair(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "ComplexPolyPair") -> "ComplexPolyPair":
        return ComplexPolyPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "ComplexPolyPair":
        return ComplexPolyPair(self.re, -self.im)

    def map(self, fn) -> "ComplexPolyPair":
        return ComplexPolyPair(fn(self.re), fn(self.im))

    def evaluate(self, point: Mapping[str, float], assignment: Mapping[str, float] | None = None) -> complex:
        return complex(self.re.evaluate(point, assignment), self.im.evaluate(point, assignment))

    def __repr__(self) -> str:
        return f"ComplexPolyPair(re={self.re!r}, im={self.im!r})"


def simplex_mesh(d: int, resolution: int = 50) -> np.ndarray:
    """All barycentric grid points of the unit simplex in d coordinates with
    denominators ``resolution``, in lexicographic order."""
    if d == 0:
        return np.zeros((1, 0))
    if d == 1:
        return np.ones((1, 1))
    out = []

    def rec(prefix, left):
        if len(prefix) == d - 1:
            out.append(prefix + [left])
            return
        for v in range(left + 1):
            rec(prefix + [v], left - v)

    rec([], resolution)
    return np.array(out, dtype=float) / float(resolution)


# ---------------------------------------------------------------------------
# structural operations


def _shift_scaled(poly: AffinePoly, exps: tuple, coeff: AffineCoeff) -> AffinePoly:
    """coeff * monomial(exps) * poly  (poly decision-free fast path)."""
    terms = {}
    for e, c in poly.terms.items():
        terms[tuple(a + b for a, b in zip(e, exps))] = c * coeff
    return AffinePoly(poly.variables, terms)


def homogenize(obj, simplex_vars: Sequence[str]):
    """Multiply each term by powers of ``sum(simplex_vars)`` so all terms
    reach the maximum degree in those variables.  Values on the simplex
    (where the variables sum to one) are unchanged.

    Accepts an :class:`AffinePoly` or a :class:`PolyMatrix`; for a matrix the
    target degree is the maximum over all entries.
    """
    simplex_vars = list(simplex_vars)
    if isinstance(obj, PolyMatrix):
        target = obj.degree_in(simplex_vars)
        return obj.map_entries(lambda p: _homogenize_poly(p, simplex_vars, target))
    return _homogenize_poly(obj, simplex_vars, obj.degree_in(simplex_vars))


def _homogenize_poly(poly: AffinePoly, simplex_vars: Sequence[str], target: int) -> AffinePoly:
    if not poly.terms:
        return poly
    variables = poly.variables
    idx = [variables.index(v) for v in simplex_vars]
    lin = AffinePoly.linear_form(variables, {v: 1.0 for v in simplex_vars})
    powers: dict[int, AffinePoly] = {0: AffinePoly.constant(variables, 1.0)}

    def lin_pow(k: int) -> AffinePoly:
        if k not in powers:
            powers[k] = lin_pow(k - 1) * lin
        return powers[k]

    out = AffinePoly.zero(variables)
    for e, c in poly.terms.items():
        d = sum(e[i] for i in idx)
        if d > target:
            raise ValueError("term exceeds target degree")
        out = out + _shift_scaled(lin_pow(target - d), e, c)
    return out.pruned()


def substitute_squares(obj, var_names: Sequence[str]):
    """Replace each listed variable v by v^2 (exponent doubling)."""
    names = set(var_names)
    if isinstance(obj, PolyMatrix):
        return obj.map_entries(lambda p: substitute_squares(p, var_names))
    idx = [i for i, v in enumerate(obj.variables) if v in names]
    terms = {}
    for e, c in obj.terms.items():
        ne = list(e)
        for i in idx:
            ne[i] = 2 * e[i]
        terms[tuple(ne)] = c
    return AffinePoly(obj.variables, terms)


def x_parameterize(obj, x1: str = "x1", x2: str = "x2", x_name: str = "x"):
    """Substitute ``x1 = (1-x^2)/(1+x^2)``, ``x2 = 2x/(1+x^2)`` and clear the
    denominator ``(1+x^2)^D`` where ``D`` is the degree in (x1, x2).

    A term ``x1^a x2^b`` maps to ``(1-x^2)^a (2x)^b (1+x^2)^(D-a-b)``.  For a
    :class:`PolyMatrix`, ``D`` is shared across all entries so the matrix is
    scaled by a single positive factor.
    """
    if isinstance(obj, PolyMatrix):
        target = obj.degree_in([x1, x2])
        ent = [_x_param_poly(p, x1, x2, x_name, target) for p in obj.entries]
        return PolyMatrix(obj.rows, obj.cols, ent[0].variables, ent)
    return _x_param_poly(obj, x1, x2, x_name, obj.degree_in([x1, x2]))


def _x_param_poly(poly: AffinePoly, x1: str, x2: str, x_name: str, target: int) -> AffinePoly:
    old = poly.variables
    i1, i2 = old.index(x1), old.index(x2)
    rest = [i for i in range(len(old)) if i not in (i1, i2)]
    new_vars = (x_name,) + tuple(old[i] for i in rest)

    # coefficient arrays in x for (1-x^2)^a, (2x)^b, (1+x^2)^c
    def poly_pow(base: np.ndarray, k: int) -> np.ndarray:
        out = np.array([1.0])
        for _ in range(k):
            out = np.convolve(out, base)
        return out

    cache: dict[tuple, np.ndarray] = {}

    def table(a: int, b: int) -> np.ndarray:
        key = (a, b)
        if key not in cache:
            arr = poly_pow(np.array([1.0, 0.0, -1.0]), a)
            arr = np.convolve(arr, poly_pow(np.array([0.0, 2.0]), b))
            arr = np.convolve(arr, poly_pow(np.array([1.0, 0.0, 1.0]), target - a - b))
            cache[key] = arr
        return cache[key]

    acc: dict = {}
    for e, c in poly.terms.items():
        a, b = e[i1], e[i2]
        if a + b > target:
            raise ValueError("term degree exceeds matrix degree in (x1, x2)")
        rest_exps = tuple(e[i] for i in rest)
        for k, w in enumerate(table(a, b)):
            if w == 0.0:
                continue
            ne = (k,) + rest_exps
            add = c.scaled(float(w))
            cur = acc.get(ne)
            acc[ne] = add if cur is None else cur + add
    return AffinePoly(new_vars, acc).pruned()


def reduce_circle(poly: AffinePoly, x1: str = "x1", x2: str = "x2") -> AffinePoly:
    """Reduce exponents modulo ``x1^2 + x2^2 = 1`` (x1 power to 0 or 1)."""
    i1, i2 = poly.variables.index(x1), poly.variables.index(x2)
    acc: dict = {}
    for e, c in poly.terms.items():
        q, r = divmod(e[i1], 2)
        if q == 0:
            cur = acc.get(e)
            acc[e] = c if cur is None else cur + c
            continue
        # x1^(2q) = (1 - x2^2)^q
        for t in range(q + 1):
            w = math.comb(q, t) * (-1.0) ** t
            ne = list(e)
            ne[i1] = r
            ne[i2] = e[i2] + 2 * t
            ne = tuple(ne)
            add = c.scaled(w)
            cur = acc.get(ne)
            acc[ne] = add if cur is None else cur + add
    return AffinePoly(poly.variables, acc).pruned()


# ---------------------------------------------------------------------------
# circle rationalization

# Laurent expressions are dicts {power: AffinePoly coefficient}; coefficients
# share one variable tuple (empty for the nominal case).  The rationalized
# expression is F = a(z) + b(z) * num(z)/den(z) evaluated on |z| = 1.


def laurent_mul(a: Mapping[int, AffinePoly], b: Mapping[int, AffinePoly]) -> dict:
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            prod = ca * cb
            cur = out.get(i + j)
            out[i + j] = prod if cur is None else cur + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def laurent_eval(c: Mapping[int, AffinePoly], z: complex,
                 point: Mapping[str, float] | None = None,
                 assignment: Mapping[str, float] | None = None) -> complex:
    total = 0.0 + 0.0j
    for i, p in c.items():
        total += p.evaluate(point or {}, assignment) * z ** i
    return total


def _laurent_scale(c: Mapping[int, AffinePoly]) -> float:
    return max((p.max_magnitude() for p in c.values()), default=0.0)


def _check_den_on_circle(den: Mapping[int, AffinePoly], lambda_points: Iterable[Mapping[str, float]],
                         n_omega: int = 721, tol: float = 1e-9):
    """Raise DegenerateDenominator at the first (point, omega) of the grid
    where |den| falls below ``tol`` times its largest coefficient."""
    scale = max(_laurent_scale(den), 1.0)
    omegas = np.linspace(0.0, 2.0 * np.pi, n_omega)
    zpow = np.exp(1j * np.outer(np.array(list(den), dtype=float), omegas))  # (powers, omegas)
    for pt in lambda_points:
        mags = np.abs(np.array([p.evaluate(pt) for p in den.values()]) @ zpow)
        bad = np.flatnonzero(mags < tol * scale)
        if bad.size:
            raise DegenerateDenominator(
                f"denominator has magnitude {mags[bad[0]]:.2e} at omega={omegas[bad[0]]:.4f}, "
                f"point={dict(pt)}")


def circle_rationalize_xy(a: Mapping[int, AffinePoly], b: Mapping[int, AffinePoly],
                          num: Mapping[int, AffinePoly], den: Mapping[int, AffinePoly],
                          lambda_points: Sequence[Mapping[str, float]] | None = None,
                          x1: str = "x1", x2: str = "x2") -> tuple[AffinePoly, AffinePoly, AffinePoly]:
    """Write F(z) = a(z) + b(z) num(z)/den(z) on z = x1 + j x2 (|z| = 1) as
    (nu1 + j nu2)/nu3 with real polynomials in (x1, x2, lambda...).

    Laurent coefficients are polynomials in the uncertainty variables.  All
    outputs are reduced modulo x1^2 + x2^2 = 1.  ``lambda_points`` (defaults
    to the simplex vertices of the coefficient variables) are used for the
    unit-circle denominator check.
    """
    for which, c in (("num", num), ("den", den)):
        for p in c.values():
            if p.has_decisions():
                raise AffinityError(f"{which} must be decision-free")

    lam_vars: tuple = ()
    for c in (den, num, a, b):
        for p in c.values():
            if len(p.variables) > len(lam_vars):
                lam_vars = p.variables
    variables = (x1, x2) + tuple(lam_vars)

    if lambda_points is None:
        if lam_vars:
            lambda_points = [
                {v: 1.0 if v == w else 0.0 for v in lam_vars} for w in lam_vars
            ]
            bary = {v: 1.0 / len(lam_vars) for v in lam_vars}
            lambda_points = list(lambda_points) + [bary]
        else:
            lambda_points = [{}]
    _check_den_on_circle(den, lambda_points)

    z = ComplexPolyPair(
        AffinePoly.variable(variables, x1),
        AffinePoly.variable(variables, x2),
    )

    red = lambda p: reduce_circle(p, x1, x2)
    zpow_cache: dict[int, ComplexPolyPair] = {0: ComplexPolyPair(AffinePoly.constant(variables, 1.0))}

    def zpow(i: int) -> ComplexPolyPair:
        if i not in zpow_cache:
            if i > 0:
                zpow_cache[i] = (zpow(i - 1) * z).map(red)
            else:
                zpow_cache[i] = (zpow(i + 1) * z.conj()).map(red)
        return zpow_cache[i]

    def image(c: Mapping[int, AffinePoly]) -> ComplexPolyPair:
        out = ComplexPolyPair.zero(variables)
        for i, coeff in c.items():
            cl = coeff.lift(variables)
            out = out + zpow(i).map(lambda p: p * cl)
        return out.map(red)

    A, B, N, D = image(a), image(b), image(num), image(den)
    numer = ((A * D + B * N) * D.conj()).map(red)
    den_img = (D * D.conj()).map(red)
    if den_img.im.max_magnitude() > 1e-9 * max(den_img.re.max_magnitude(), 1.0):
        raise AssertionError("denominator image not real after conjugation")
    nu3 = den_img.re.pruned()
    if nu3.has_decisions():
        raise AffinityError("nu3 carries decision terms")
    return numer.re.pruned(), numer.im.pruned(), nu3


# ---------------------------------------------------------------------------
# lower-triangular Toeplitz determinant / adjugate


def triangular_toeplitz_det_adj(P: PolyMatrix) -> tuple[AffinePoly, PolyMatrix]:
    """Determinant and adjugate of a lower-triangular Toeplitz matrix.

    Division-free: with first column p1..pN, det = p1^N and the adjugate is
    again lower-triangular Toeplitz with first column

        g_k = p1^(N-1-k) * e_k,   e_0 = 1,
        e_k = -sum_{j=1..k} p_{j+1} p1^(j-1) e_{k-j}.

    P @ adj == det * I holds exactly (no truncation involved).
    """
    if P.rows != P.cols:
        raise ValueError("matrix must be square")
    N = P.rows
    variables = P.variables
    scale = max(p.max_magnitude() for p in P.entries) if P.entries else 0.0
    tol = 1e-12 * max(scale, 1.0)
    for i in range(N):
        for j in range(i + 1, N):
            if P[i, j].max_magnitude() > tol:
                raise NotTriangular(f"entry ({i},{j}) above the diagonal is nonzero")
    for i in range(N):
        for j in range(i + 1):
            if not P[i, j].allclose(P[i - j, 0], 1e-9):
                raise NotToeplitz(f"entry ({i},{j}) differs from first-column entry {i - j}")
    for p in P.entries:
        if p.has_decisions():
            raise ValueError("det/adj requires decision-free entries")

    p = [P[i, 0] for i in range(N)]  # p[0] = p1
    det = p[0] ** N

    e = [AffinePoly.constant(variables, 1.0)]
    p1_pow = [AffinePoly.constant(variables, 1.0)]  # p1^0, p1^1, ...
    for k in range(1, N):
        p1_pow.append(p1_pow[-1] * p[0])
        acc = AffinePoly.zero(variables)
        for j in range(1, k + 1):
            acc = acc + p[j] * p1_pow[j - 1] * e[k - j]
        e.append(-acc)
    while len(p1_pow) < N:
        p1_pow.append(p1_pow[-1] * p[0])

    g = [p1_pow[N - 1 - k] * e[k] for k in range(N)]
    adj = PolyMatrix.zeros(N, N, variables)
    for i in range(N):
        for j in range(i + 1):
            adj[i, j] = g[i - j]
    return det, adj
