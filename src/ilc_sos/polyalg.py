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

Expressions on the unit circle ``z = e^{j omega}`` are Laurent polynomials
in z.  :func:`circle_image` maps one to real polynomial data in a single
substitution, ``z = (1 + jx) / (1 - jx)``, which covers the circle minus
``z = -1`` as ``x`` ranges over the reals, and clears the denominator
``(1 + x^2)^deg``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

PRUNE_REL = 1e-12


class AffinityError(Exception):
    """Product would be bilinear in the decision variables."""


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


def simplex_mesh(d: int, resolution: int = 50) -> np.ndarray:
    """All barycentric grid points of the unit simplex in d coordinates with
    denominators ``resolution``, in lexicographic order."""
    if resolution < 1:
        raise ValueError(f"mesh resolution must be at least 1, got {resolution}")
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


def homogenize(obj, simplex_vars: Sequence[str]):
    """Multiply each term by powers of ``sum(simplex_vars)`` so all terms
    reach the maximum degree in those variables.  Values on the simplex
    (where the variables sum to one) are unchanged.

    Accepts an :class:`AffinePoly` or a :class:`PolyMatrix`; for a matrix the
    target degree is the maximum over all entries.  With no simplex
    variables there is nothing to multiply, and ``obj`` itself is returned.
    """
    simplex_vars = list(simplex_vars)
    if not simplex_vars:
        return obj
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

    # c * monomial(e) * lin^(target - d) for every term, accumulated in one
    # dict and pruned once (a running AffinePoly sum re-prunes at every step)
    acc: dict = {}
    for e, c in poly.terms.items():
        d = sum(e[i] for i in idx)
        if d > target:
            raise ValueError("term exceeds target degree")
        for el, t in lin_pow(target - d).terms.items():
            es = tuple(a + b for a, b in zip(el, e))
            add = t * c
            cur = acc.get(es)
            acc[es] = add if cur is None else cur + add
    return AffinePoly(variables, acc).pruned()


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


# ---------------------------------------------------------------------------
# circle rationalization

# Laurent expressions are dicts {power: AffinePoly coefficient}; coefficients
# share one variable tuple (empty for the nominal case) and are real, so on
# |z| = 1 the conjugate of c(z) is c(1/z).


def laurent_mul(a: Mapping[int, AffinePoly], b: Mapping[int, AffinePoly]) -> dict:
    out: dict = {}
    for i, ca in a.items():
        for j, cb in b.items():
            prod = ca * cb
            cur = out.get(i + j)
            out[i + j] = prod if cur is None else cur + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def laurent_add(a: Mapping[int, AffinePoly], b: Mapping[int, AffinePoly]) -> dict:
    out = dict(a)
    for i, cb in b.items():
        out[i] = out[i] + cb if i in out else cb
    return {k: v for k, v in out.items() if not v.is_zero()}


def circle_degree(c: Mapping[int, AffinePoly], imag: bool = False) -> int:
    """Highest harmonic of Re (``imag``: Im) of sum_i c_i z^i on |z| = 1: the
    largest k whose cosine coefficient c_k + c_-k (sine coefficient
    c_k - c_-k) is nonzero, else 0.  cos(k omega) and sin(k omega) have
    degree k in (Re z, Im z)."""
    scale = _laurent_scale(c)
    sign = -1.0 if imag else 1.0
    for k in sorted({abs(i) for i in c if i}, reverse=True):
        part = sum(c[i].scaled(sign) if i < 0 else c[i] for i in (k, -k) if i in c)
        if not part.pruned(scale=scale).is_zero():
            return k
    return 0


def circle_image(c: Mapping[int, AffinePoly], deg: int,
                 variables: Sequence[str]) -> tuple[AffinePoly, AffinePoly]:
    """(1 + x^2)^deg times (Re, Im) of sum_i c_i z^i at z = (1 + jx)/(1 - jx).

    As x runs over the reals, z runs over the unit circle minus z = -1.
    z^i (1 + x^2)^deg = (1 + jx)^(2i) (1 + x^2)^(deg - i) for i >= 0 and the
    conjugate of the |i| term for i < 0, so ``deg`` must reach every |i|.
    ``variables`` is ("x",) followed by the coefficients' variables.
    """
    re: dict = {}
    im: dict = {}
    for i, coeff in c.items():
        if abs(i) > deg:
            raise ValueError(f"z^{i} exceeds the cleared degree {deg}")
        w = np.ones(1, dtype=complex)  # ascending coefficients in x
        for _ in range(2 * abs(i)):
            w = np.convolve(w, [1.0, 1j])
        for _ in range(deg - abs(i)):
            w = np.convolve(w, [1.0, 0.0, 1.0])
        for acc, ws in ((re, w.real), (im, w.imag if i >= 0 else -w.imag)):
            for k, wk in enumerate(ws.tolist()):
                if wk == 0.0:
                    continue
                for e, t in coeff.terms.items():
                    add = t.scaled(wk)
                    cur = acc.get((k,) + e)
                    acc[(k,) + e] = add if cur is None else cur + add
    return AffinePoly(variables, re).pruned(), AffinePoly(variables, im).pruned()


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
