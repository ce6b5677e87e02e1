"""Compile matrix SOS feasibility conditions into semidefinite programs.

A constraint ``S(x) is SOS`` for a symmetric m x m polynomial matrix S
(entries affine in named decision scalars) is parameterized with Gram
matrices.  A Gram block is a list of (monomial, coordinate) pairs
(m_p, c_p); it spans the n_b x m matrix V_b(x) with V_b[p, c_p] = m_p(x) and
zeros elsewhere, and

    S(x) = sum_b  V_b(x)^T  G_b  V_b(x),   G_b >= 0,

so S[r, s] = sum_b sum_{c_p = r, c_q = s} G_b[p, q] m_p(x) m_q(x).
Matching coefficients of every product monomial at every matrix position
(upper triangle) that some block can produce yields one linear equality per
(monomial, position) pair.  The result is a block SDP

    minimize    c^T y
    subject to  sum  w * G[p, q]  -  sum  d_j * y_j  =  beta   (per equality)
                G_b  >= 0,   y free,

with the decision scalars y (contraction-rate bound, learning gains, ...)
entering the equalities through the coefficients of S.

Each Gram entry (p, q) contributes to exactly one product monomial
m_p + m_q at exactly one position (c_p, c_q), so the equality system is
always consistent in structure; infeasibility can only come from the PSD
side.

The usual shared basis v(x) (x) I_m is the block ``kron_pairs(v, m)``, with
pair (v_i, r) at row i*m + r.  When the rows of S have very different
degrees (say row 0 carries a high degree polynomial while the rest is an
identity block), a shared basis has no strictly feasible Gram: every basis
monomial of degree >= 1 paired with an identity row is forced to zero on
the diagonal, which stalls interior-point solvers.  Giving each coordinate
its own monomial list instead restores a strictly feasible interior
whenever one exists.

Sign symmetries halve the blocks.  Suppose S is invariant under flipping
the sign of some variables combined with the congruence D S D by a diagonal
sign matrix D.  Then pair (m_p, c_p) picks up the sign chi_p =
(-1)^(flipped exponents of m_p) * D[c_p, c_p], averaging any Gram over the
flip zeroes every entry with chi_p != chi_q, and the blocks split by chi
with no loss of generality (Gatermann & Parrilo 2004, "Symmetry groups,
semidefinite programs, and sums of squares", J. Pure Appl. Algebra 192).
``sign_classes`` applies any number of such flips at once.  If S lacks the
symmetry, some nonzero coefficient of S is unproducible in the split layout
and :func:`compile_sos` raises :class:`BasisDeficiency`.

Both directions work on arrays.  S arrives as its term table (exponent rows
and coefficient rows, one column per decision, each column already pruned
against its own scale; see :mod:`polyalg`).  The compile keys every Gram
entry (b, p <= q) and every coefficient of S's upper triangle by (degree,
monomial, position), encoded as one integer; the sorted distinct keys of the
Gram entries are the equalities, and S's coefficient rows are found among
them by search.  :func:`check_certificate` rebuilds V^T G V from the
certificate's own pairs and forms the residual S - V^T G V coefficientwise
from the same keys; it reads nothing the compile produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .polyalg import PolyMatrix, _resolved


class BasisDeficiency(Exception):
    """The monomial basis cannot produce some monomial of S."""


# ---------------------------------------------------------------------------
# monomial bases


def monomial_basis(variables: Sequence[str], groups: Sequence[tuple]) -> list[tuple]:
    """Deterministic monomial basis as exponent tuples over ``variables``.

    ``groups`` is a list of ``(names, mode, degree)`` where mode is

    * ``"graded"``      -- total degree over the group at most ``degree``
    * ``"homogeneous"`` -- total degree over the group exactly ``degree``

    Every variable must appear in exactly one group; the basis is the cross
    product of the group bases, sorted graded-lexicographically.
    """
    variables = tuple(variables)
    seen: set = set()
    for names, _, _ in groups:
        for n in names:
            if n in seen or n not in variables:
                raise ValueError(f"bad group variable {n!r}")
            seen.add(n)
    if seen != set(variables):
        raise ValueError("groups must cover all variables")

    def group_exps(names, mode, degree):
        k = len(names)
        out = []

        def rec(prefix, remaining):
            if len(prefix) == k - 1:
                if mode == "homogeneous":
                    out.append(prefix + (remaining,))
                else:
                    for d in range(remaining + 1):
                        out.append(prefix + (d,))
                return
            for d in range(remaining + 1):
                rec(prefix + (d,), remaining - d)

        if k == 0:
            return [()]
        rec((), degree)
        return out

    partials = [(tuple(names), group_exps(tuple(names), mode, deg)) for names, mode, deg in groups]
    basis = [{}]
    for names, exps in partials:
        basis = [dict(b, **{n: e for n, e in zip(names, ex)}) for b in basis for ex in exps]
    tuples = [tuple(b.get(v, 0) for v in variables) for b in basis]
    return sorted(set(tuples), key=lambda t: (sum(t), t))


def kron_pairs(basis: Sequence[tuple], m: int) -> list[tuple]:
    """The block ``basis (x) I_m``: pair (basis[i], r) at row i*m + r."""
    return [(mono, r) for mono in basis for r in range(m)]


def sign_classes(pairs: Sequence[tuple],
                 flips: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[list[tuple]]:
    """Split a Gram block by sign symmetries of the matched matrix.

    Each flip ``(var_indices, coords)`` negates the listed variables and
    conjugates S by the sign matrix that is -1 at the listed coordinates.
    Pairs go to one class per pattern of their signs under the flips, in
    their input order; the classes come out sorted by that pattern.  With
    S invariant under every flip, the Gram matrix decouples into these
    classes with no loss of generality.
    """
    buckets: dict[tuple, list[tuple]] = {}
    for mono, c in pairs:
        key = tuple((sum(mono[i] for i in idx) + (c in coords)) % 2 for idx, coords in flips)
        buckets.setdefault(key, []).append((mono, c))
    return [buckets[k] for k in sorted(buckets)]


# ---------------------------------------------------------------------------
# problem containers


@dataclass
class Equality:
    """sum w*G[b][p,q]  -  sum free[j]*y_j  =  rhs  (G symmetric, p <= q)."""

    gram: list  # list of (block, p, q, weight)
    free: dict  # id -> coefficient
    rhs: float
    # provenance, for debugging and certificate checks
    monomial: tuple | None = None
    position: tuple | None = None


@dataclass
class SdpProblem:
    block_dims: list
    free_ids: tuple
    objective: dict
    equalities: list
    # metadata for certificate reconstruction (not serialized): one
    # (monomial, coordinate) pair list per Gram block
    bases: list | None = None
    matrix_dim: int | None = None
    variables: tuple | None = None

    @property
    def n_equalities(self) -> int:
        return len(self.equalities)

    def serialize(self) -> str:
        lines = ["sos-sdp 1"]
        lines.append("blocks " + " ".join(str(d) for d in self.block_dims))
        lines.append("free " + " ".join(self.free_ids))
        lines.append("objective " + " ".join(f"{k} {v!r}" for k, v in sorted(self.objective.items())))
        lines.append(f"equalities {len(self.equalities)}")
        for eq in self.equalities:
            bits = ["g", str(len(eq.gram))]
            for b, p, q, w in eq.gram:
                bits += [str(b), str(p), str(q), repr(w)]
            bits += ["f", str(len(eq.free))]
            for k in sorted(eq.free):
                bits += [k, repr(eq.free[k])]
            bits += ["r", repr(eq.rhs)]
            lines.append(" ".join(bits))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "SdpProblem":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if lines[0].split() != ["sos-sdp", "1"]:
            raise ValueError("bad header")
        dims = [int(t) for t in lines[1].split()[1:]]
        free_ids = tuple(lines[2].split()[1:])
        obj_toks = lines[3].split()[1:]
        objective = {obj_toks[i]: float(obj_toks[i + 1]) for i in range(0, len(obj_toks), 2)}
        n_eq = int(lines[4].split()[1])
        eqs = []
        for ln in lines[5:5 + n_eq]:
            toks = ln.split()
            assert toks[0] == "g"
            ng = int(toks[1])
            pos = 2
            gram = []
            for _ in range(ng):
                b, p, q = int(toks[pos]), int(toks[pos + 1]), int(toks[pos + 2])
                w = float(toks[pos + 3])
                gram.append((b, p, q, w))
                pos += 4
            assert toks[pos] == "f"
            nf = int(toks[pos + 1])
            pos += 2
            free = {}
            for _ in range(nf):
                free[toks[pos]] = float(toks[pos + 1])
                pos += 2
            assert toks[pos] == "r"
            rhs = float(toks[pos + 1])
            eqs.append(Equality(gram, free, rhs))
        return cls(dims, free_ids, objective, eqs)


@dataclass
class SosCertificate:
    grams: list          # numpy arrays, one per block
    bases: list          # (monomial, coordinate) pairs per block
    matrix_dim: int
    variables: tuple


@dataclass
class CertificateReport:
    residual: float
    scale: float
    min_eigs: list
    passed: bool

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"certificate {status}: residual {self.residual:.3e} "
                f"(scale {self.scale:.3e}), min eig {min(self.min_eigs):.3e}")


# ---------------------------------------------------------------------------
# compilation


def _codes(keys: np.ndarray) -> np.ndarray:
    """One int64 per row of the integer array ``keys``, in the rows'
    lexicographic order."""
    keys = keys - keys.min(axis=0, initial=0)
    radix = keys.max(axis=0, initial=0) + 1
    if np.prod(radix.astype(float)) >= 2.0 ** 62:
        raise OverflowError("monomial table too large to index")
    return keys @ np.cumprod(np.append(radix[1:], 1)[::-1])[::-1]


def _upper_terms(S: PolyMatrix) -> tuple:
    """S's upper-triangle terms: (exponents, r, s) rows, their coefficient
    rows and the decision names of the coefficient columns."""
    entry, exps, coeffs, names = S.table()
    r, s = np.divmod(entry, S.cols)
    up = r <= s
    return np.column_stack([exps, r, s])[up], coeffs[up], names


def _pair_table(pairs: Sequence[tuple], nvars: int) -> tuple:
    """A Gram block's monomials (pairs x variables) and coordinates."""
    mono = np.array([mp for mp, _ in pairs], dtype=np.int64).reshape(len(pairs), nvars)
    return mono, np.array([c for _, c in pairs], dtype=np.int64)


def compile_sos(S: PolyMatrix, objective: Mapping[str, float],
                bases: Sequence[Sequence[tuple]] | None = None) -> SdpProblem:
    """Compile ``S is SOS`` into an :class:`SdpProblem` minimizing ``objective``.

    ``bases`` lists the Gram blocks, each a list of (monomial, coordinate)
    pairs; when omitted, one block ``v (x) I_m`` with the graded basis v in
    all variables up to half the degree of S is used.  Raises
    :class:`BasisDeficiency` if some nonzero coefficient of S cannot be
    written as a sum of two pairs of one block at its position.
    """
    if S.rows != S.cols:
        raise ValueError("S must be square")
    if not S.is_symmetric(1e-9):
        raise ValueError("S must be symmetric")
    m = S.rows
    variables = S.variables
    if bases is None:
        half = (S.degree() + 1) // 2
        bases = [kron_pairs(monomial_basis(variables, [(variables, "graded", half)]), m)]
    bases = [list(b) for b in bases]
    if not all(bases) or any(not 0 <= c < m for b in bases for _, c in b):
        raise ValueError("every Gram block needs pairs with coordinates in range(m)")

    # every Gram entry (b, p <= q) feeds the monomial m_p + m_q at position
    # (min, max) of its coordinates, with weight 2 when (q, p) feeds it too
    entries, keys, weights = [], [], []
    for b, pairs in enumerate(bases):
        mono, coord = _pair_table(pairs, len(variables))
        p, q = np.triu_indices(len(pairs))
        entries.append(np.column_stack([np.full(len(p), b), p, q]))
        keys.append(np.column_stack([mono[p] + mono[q], np.minimum(coord[p], coord[q]),
                                     np.maximum(coord[p], coord[q])]))
        weights.append(np.where((p != q) & (coord[p] == coord[q]), 2.0, 1.0))
    keys = np.concatenate(keys)
    s_keys, s_coeffs, names = _upper_terms(S)

    # one equality per producible (monomial, position), by degree, monomial, position
    both = np.concatenate([keys, s_keys])
    codes = _codes(np.column_stack([both[:, :-2].sum(axis=1), both]))
    order = np.argsort(codes[:len(keys)], kind="stable")
    eq_codes, starts = np.unique(codes[order], return_index=True)
    at = np.minimum(np.searchsorted(eq_codes, codes[len(keys):]), len(eq_codes) - 1)
    found = eq_codes[at] == codes[len(keys):]
    missing = np.flatnonzero(~found & (s_coeffs != 0).any(axis=1))
    if missing.size:
        key = s_keys[missing[0]].tolist()
        raise BasisDeficiency(f"monomial {tuple(key[:-2])} at position {tuple(key[-2:])} "
                              "not producible")
    coeff = np.zeros((len(eq_codes), 1 + len(names)))
    coeff[at[found]] = s_coeffs[found]
    # each equality is divided by its coefficient's magnitude, floored at 1
    scale = np.maximum(np.abs(coeff).max(axis=1), 1.0)
    coeff /= scale[:, None]
    weights = np.concatenate(weights)[order] / np.repeat(scale, np.diff(starts, append=len(order)))
    gram = [tuple(e) + (w,) for e, w in zip(np.concatenate(entries)[order].tolist(),
                                            weights.tolist())]
    heads = keys[order][starts].tolist()
    bounds = starts.tolist() + [len(order)]
    equalities = [
        Equality(gram[lo:hi], {d: w for d, w in zip(names, row[1:]) if w}, row[0],
                 monomial=tuple(head[:-2]), position=tuple(head[-2:]))
        for lo, hi, row, head in zip(bounds, bounds[1:], coeff.tolist(), heads)]

    free_ids = set(objective)
    for eq in equalities:
        free_ids |= set(eq.free)

    return SdpProblem(
        block_dims=[len(b) for b in bases],
        free_ids=tuple(sorted(free_ids)),
        objective=dict(objective),
        equalities=equalities,
        bases=bases,
        matrix_dim=m,
        variables=variables,
    )


def certificate_from_grams(problem: SdpProblem, grams: Sequence[np.ndarray]) -> SosCertificate:
    if problem.bases is None or problem.matrix_dim is None:
        raise ValueError("problem lacks basis metadata")
    return SosCertificate(
        grams=[np.asarray(g, dtype=float) for g in grams],
        bases=[list(b) for b in problem.bases],
        matrix_dim=problem.matrix_dim,
        variables=problem.variables or (),
    )


RESIDUAL_TOL = 1e-6  # largest scaled coefficient mismatch of a passing certificate


def check_certificate(S: PolyMatrix, assignment: Mapping[str, float],
                      cert: SosCertificate, residual_tol: float = RESIDUAL_TOL,
                      eig_tol: float = -1e-8) -> CertificateReport:
    """Recompute the Gram expansion and compare against S coefficientwise.

    ``assignment`` fixes all decision scalars appearing in S.  Each
    coefficient mismatch is measured relative to that coefficient's magnitude
    (the same scaling the compiled equalities use, floored at 1), so the
    verdict matches what the solver was actually asked to satisfy.  Passes
    when the worst scaled mismatch is at most ``residual_tol`` and every Gram
    block has min eigenvalue at least ``eig_tol``.
    """
    t_keys, t_coeffs, names = _upper_terms(S)
    values = _resolved(t_coeffs, names, assignment)

    # the expansion V^T G V at every (monomial, r <= s)
    e_keys, e_vals = [], []
    for G, pairs in zip(cert.grams, cert.bases):
        mono, coord = _pair_table(pairs, len(S.variables))
        p, q = np.nonzero(coord[:, None] <= coord[None, :])
        e_keys.append(np.column_stack([mono[p] + mono[q], coord[p], coord[q]]))
        e_vals.append(np.asarray(G, dtype=float)[p, q])

    codes = _codes(np.concatenate([t_keys] + e_keys))
    uniq, inv = np.unique(codes, return_inverse=True)
    n = len(t_keys)
    target = np.bincount(inv[:n], weights=values, minlength=len(uniq))
    expansion = np.bincount(inv[n:], weights=np.concatenate([[]] + e_vals), minlength=len(uniq))
    scales = np.ones(len(uniq))
    scales[inv[:n]] = np.maximum(np.abs(t_coeffs).max(axis=1, initial=0.0), 1.0)
    residual = float((np.abs(target - expansion) / scales).max(initial=0.0))
    scale = float(scales.max(initial=1.0))

    min_eigs = [float(np.linalg.eigvalsh(G)[0]) for G in cert.grams]
    passed = residual <= residual_tol and min(min_eigs, default=0.0) >= eig_tol
    return CertificateReport(residual=residual, scale=scale, min_eigs=min_eigs, passed=passed)
