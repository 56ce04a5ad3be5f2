"""Product factorization, product-vector detection in 2-dimensional spans,
entry distance, and the orthogonal-Schmidt-number classification.

:func:`try_factor` is the one factoring kernel; a state's own
factorization is read from :attr:`~sepdisc.states.PureState.product`, which
calls it once and keeps the result.  :func:`span_roots` is the one kernel for
the product vectors of two-dimensional spans, which the lambda rule (and
through it the rank-2 lemma) and the two-term classification read.

The central nontrivial routine is :func:`schmidt2_classify`, the one
classifier, which takes a stack of states, one per row: one state is a
one-row stack, and a sampling grid is one call.  For a state whose every
bipartition rank is at most 2 it searches for a two-term product
decomposition through the 2-dimensional "right support" across one cut: the
candidate right factors must be product vectors of that span, so counting
those settles the classification.  Fewer than two product vectors in the
span proves no two-term decomposition exists; exactly two pins the
decomposition uniquely; an all-product span only occurs when some party
factors out entirely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, NotIndependent
from .linalg import kron_all, vector_norm


@dataclass(frozen=True, eq=False)
class ProductVector:
    """weight * (x) factors, one factor per party; factors may be unnormalized
    but, like the weight, must be finite and nonzero."""

    factors: tuple[np.ndarray, ...]
    weight: complex = 1.0 + 0j

    def __post_init__(self):
        # read-only views: PureState.product hands one instance to every caller
        factors = tuple(np.asarray(f, dtype=complex).view() for f in self.factors)
        for f in factors:
            f.setflags(write=False)
        weight = complex(self.weight)
        norms = [vector_norm(f) for f in factors] + [abs(weight)]
        if not all(0 < n < np.inf for n in norms):
            raise DimensionMismatch("product vectors cannot have a zero or non-finite factor or weight")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "weight", weight)

    @property
    def nparties(self) -> int:
        return len(self.factors)

    def assemble(self) -> np.ndarray:
        return self.weight * kron_all(self.factors)

    def unit(self) -> np.ndarray:
        """The assembled vector divided by its norm."""
        v = self.assemble()
        return v / np.linalg.norm(v)

    def normalized(self) -> "ProductVector":
        """Unit factors, each with its largest-modulus entry made real
        positive; norms and phases folded into the weight."""
        w = complex(self.weight)
        outs = []
        for f in self.factors:
            n = vector_norm(f)
            f = f / n
            j = int(np.argmax(np.abs(f)))
            ph = f[j] / abs(f[j])
            outs.append(f / ph)
            w *= n * ph
        return ProductVector(tuple(outs), w)


def cut_matrix(vec: np.ndarray, dims: tuple[int, ...], left: tuple[int, ...]) -> np.ndarray:
    """Amplitude matrix of a vector across the bipartition left|rest; a
    stack of vectors (rows) gives the stack of their matrices."""
    vec = np.asarray(vec)
    n = vec.ndim - 1
    axes = list(range(n)) + [n + p for p in left] + [n + p for p in range(len(dims)) if p not in left]
    rows = math.prod([dims[p] for p in left])
    t = vec.reshape(*vec.shape[:-1], *dims).transpose(axes)
    return t.reshape(*vec.shape[:-1], rows, math.prod(dims) // rows)


def cut_rank(vecs: np.ndarray, dims: tuple[int, ...], left: tuple[int, ...], tol: Tolerances) -> np.ndarray:
    """Rank across the cut left|rest of each row of a stack, counted above
    the relative tolerance; 0 for a zero row."""
    s = np.linalg.svd(cut_matrix(vecs, dims, left), compute_uv=False)
    return (s > tol.rank * s[:, :1]).sum(axis=1)


# a vector is product when it lies within this times its norm of a product,
# and no single-party cut matrix has a singular-value tail ||s[1:]|| above it
PRODUCT_TOL = 1e-9


def try_factor(vecs: np.ndarray, dims: tuple[int, ...]) -> list[ProductVector | None]:
    """Factor each row of a stack into a product across all parties, or None.

    Dominant singular vectors per single-party cut give the factors, and a
    row is accepted iff ||vec - w (x) factors|| <= PRODUCT_TOL ||vec|| for the
    overlap w.  A cut whose singular-value tail ||s[1:]|| exceeds that bound
    rejects the row at once, exactly: by Eckart-Young it bounds the residual.
    One batched SVD per cut covers the stack, until every row is rejected.
    """
    vecs = np.asarray(vecs, dtype=complex)
    # squared: PRODUCT_TOL^2 ||vec||^2 against squared tails and residuals
    bound = PRODUCT_TOL**2 * (abs(vecs) ** 2).sum(axis=1)
    ok, factors, out = bound > 0, [], [None] * len(vecs)
    for p in range(len(dims)):
        u, s, _ = np.linalg.svd(cut_matrix(vecs, dims, (p,)), full_matrices=False)
        ok &= (s[:, 1:] ** 2).sum(axis=1) <= bound
        if not ok.any():
            return out
        factors.append(u[:, :, 0])
    for i in np.flatnonzero(ok):
        row = tuple(f[i] for f in factors)
        assembled = kron_all(row)
        w = complex(np.vdot(assembled, vecs[i]))
        resid = vecs[i] - w * assembled
        if np.vdot(resid, resid).real <= bound[i]:
            out[i] = ProductVector(row, w)
    return out


def entry_distance(a: ProductVector, b: ProductVector, tol: Tolerances = DEFAULT) -> int:
    """Number of parties where the factors are not proportional (2x2 Gram
    rank per party)."""
    if a.nparties != b.nparties:
        raise DimensionMismatch("product vectors live on different spaces")
    count = 0
    for fa, fb in zip(a.factors, b.factors):
        if fa.shape != fb.shape:
            raise DimensionMismatch("factor dimensions differ")
        na2 = float(np.real(np.vdot(fa, fa)))
        nb2 = float(np.real(np.vdot(fb, fb)))
        gram_det = na2 * nb2 - abs(np.vdot(fa, fb)) ** 2
        if gram_det > tol.rank * na2 * nb2:
            count += 1
    return count


@dataclass(frozen=True)
class SpanProducts:
    """Product vectors in span{psi, phi}: at most two, or infinitely many."""

    vectors: list[ProductVector]
    infinitely_many: bool = False


@dataclass(frozen=True, eq=False)
class SpanRoots:
    """Per member i of :func:`span_roots`: its two roots [[s1, t1], [s2, t2]],
    each up to scale, the vectors v = s psi_i + t phi, whether each is
    product, with unit factors ``factors[p][i, j]`` per party p, and whether
    the whole span is product."""

    roots: np.ndarray
    vectors: np.ndarray
    product: np.ndarray
    factors: tuple[np.ndarray, ...]
    all_product: np.ndarray

    def product_vector(self, i: int, j: int) -> ProductVector:
        return ProductVector(tuple(f[i, j] for f in self.factors))

    def product_roots(self, i: int) -> list[int]:
        """Member i's product roots j by z = t/s, real part first, both rounded
        to 12 decimals, and phi itself (|s| <= PRODUCT_TOL |t|) last."""
        roots = enumerate(self.roots[i])
        z = {j: t / s if abs(s) > PRODUCT_TOL * abs(t) else np.inf for j, (s, t) in roots if self.product[i, j]}
        return sorted(z, key=lambda j: (round(z[j].real, 12), round(z[j].imag, 12)))


def span_roots(psis: np.ndarray, phi: np.ndarray, dims: tuple[int, ...]) -> SpanRoots:
    """The product vectors s psi_i + t phi_i of the spans of unit vectors
    psi_i (rows of ``psis``) with unit vectors phi_i: one phi shared by every
    member, or one per member (rows of ``phi``).

    Every 2x2 minor of a single-party cut of s psi_i + t phi_i is a form
    c0 s^2 + c1 st + c2 t^2, and a product vector is a root of all of them.
    Per member, the form with the largest coefficient over every cut is
    solved without cancellation: q = -(c1 +- sqrt(c1^2 - 4 c0 c2)) / 2 gives
    the roots (c2 : q) and (q : c0).  Roots within the angle at which unit
    vectors overlap by 1 - PRODUCT_TOL are one double root, tested at their
    midpoint; a form below 1e-13 vanishes, and with it the whole span is
    product.  One batched SVD per cut (one in all on two parties) tests every
    root with try_factor's tail bound and gives its factors.
    """
    m, shared = len(psis), phi.ndim == 1

    def minors(x: np.ndarray, y: np.ndarray) -> np.ndarray:  # x[i1, j1] y[i2, j2] - x[i1, j2] y[i2, j1]
        out = x[..., :, None, :, None] * y[..., None, :, None, :] - x[..., :, None, None, :] * y[..., None, :, :, None]
        return out.reshape(*out.shape[:-4], -1)

    stack = np.concatenate([phi.reshape(-1, psis.shape[1]), psis])
    forms = []
    # on two parties, cut 1 is cut 0 transposed, with the same minors
    for p in range(len(dims) if len(dims) > 2 else 1):
        c = cut_matrix(stack, dims, (p,))
        own, cphi = minors(c, c), c[0] if shared else c[:m]
        forms.append((own[-m:], minors(c[-m:], cphi) + minors(cphi, c[-m:]), own[:-m]))
    c0, c1, c2 = (np.concatenate(f, axis=-1) for f in zip(*forms))
    size = np.maximum(np.maximum(abs(c0), abs(c1)), abs(c2))
    rows, best = np.arange(m), size.argmax(axis=1)
    # c2 has one row per phi
    c0, c1, c2 = c0[rows, best], c1[rows, best], c2[rows % len(c2), best]
    all_product = size[rows, best] <= 1e-13

    disc = np.sqrt(c1 * c1 - 4.0 * c0 * c2)
    disc = np.where((c1.conj() * disc).real < 0.0, -disc, disc)
    q = -(c1 + disc) / 2.0
    roots = np.empty((m, 2, 2), dtype=complex)
    roots[:, 0, 0], roots[:, 0, 1], roots[:, 1, 0], roots[:, 1, 1] = c2, q, q, c0
    # s1 t2 - s2 t1 = q disc for the roots (c2 : q) and (q : c0); the one
    # that the larger end coefficient leads is never zero, and the other,
    # at a double root, moves to the midpoint
    double = abs(q * disc) ** 2 <= 2.0 * PRODUCT_TOL * (abs(c2) ** 2 + abs(q) ** 2) * (abs(q) ** 2 + abs(c0) ** 2)
    lead = abs(c2) >= abs(c0)
    if double.any():
        roots[double & lead, 1] = np.stack([2.0 * c2, -c1], axis=1)[double & lead]
        roots[double & ~lead, 0] = np.stack([-c1, 2.0 * c0], axis=1)[double & ~lead]

    vectors = roots[:, :, :1] * psis[:, None, :] + roots[:, :, 1:] * (phi if shared else phi[:, None, :])
    flat, bound = vectors.reshape(2 * m, -1), PRODUCT_TOL**2 * (abs(vectors) ** 2).sum(axis=2).reshape(-1)
    product, factors = np.ones(2 * m, dtype=bool), []
    for p, d in enumerate(dims):
        u, sv, vh = np.linalg.svd(cut_matrix(flat, dims, (p,)), full_matrices=False)
        product &= (sv[:, 1:] ** 2).sum(axis=1) <= bound
        factors.append(u[:, :, 0].reshape(m, 2, d))
        if len(dims) == 2:  # cut 1 is cut 0 transposed: vh's first rows factor party 1
            factors.append(vh[:, 0].reshape(m, 2, -1))
            break
    product = product.reshape(m, 2)
    if double.any():  # a double root gives one vector
        product[:, 1] &= ~(double & lead & product[:, 0])
        product[:, 0] &= ~(double & ~lead & product[:, 1])
    return SpanRoots(roots, vectors, product, tuple(factors), all_product)


def product_vectors_in_span(psi: PureState, phi: PureState) -> SpanProducts:
    """All product vectors (up to scale) in span{psi, phi}: at most two, as
    :meth:`SpanRoots.product_roots` orders them, or infinitely many."""
    if psi.space != phi.space:
        raise DimensionMismatch("states live on different spaces")
    if abs(psi.inner(phi)) > 1.0 - 1e-10:
        raise NotIndependent("span requires linearly independent states")
    span = span_roots(psi.amplitudes[None], phi.amplitudes, psi.space.dims)
    if span.all_product[0]:
        return SpanProducts(vectors=[], infinitely_many=True)
    return SpanProducts(vectors=[span.product_vector(0, j).normalized() for j in span.product_roots(0)])


class Schmidt2Kind(Enum):
    PRODUCT = "product"
    SCHMIDT2 = "schmidt2"
    AT_LEAST_3 = "at_least_3"
    UNDECIDED = "undecided"


class AtLeast3Reason(Enum):
    CUT_RANK = "cut_rank"  # some bipartition has Schmidt rank >= 3
    PRODUCT_SHORTAGE = "product_shortage"  # < 2 product vectors in the right span
    NONORTHOGONAL_UNIQUE = "nonorthogonal_unique"  # unique two-term split, not orthogonal


@dataclass(frozen=True)
class Schmidt2Decomposition:
    """phi = a + b with product a, b.  ``split`` lists the parties whose
    factors of a and b are orthogonal, |<a_p|b_p>| <= 1e-9 |a_p| |b_p|; a and
    b are orthogonal iff it is nonempty."""

    a: ProductVector
    b: ProductVector
    split: tuple[int, ...]

    def complement(self) -> np.ndarray:
        """sin(t) a_hat - cos(t) b_hat for phi = cos(t) a_hat + sin(t) b_hat:
        the unit vector of span{a, b} orthogonal to phi, for orthogonal a, b."""
        a_vec = self.a.assemble()
        b_vec = self.b.assemble()
        cos_t = np.linalg.norm(a_vec)
        sin_t = np.linalg.norm(b_vec)
        return sin_t * (a_vec / cos_t) - cos_t * (b_vec / sin_t)


@dataclass(frozen=True)
class Schmidt2Class:
    kind: Schmidt2Kind
    decomposition: Schmidt2Decomposition | None = None
    reason: AtLeast3Reason | None = None
    detail: dict = field(default_factory=dict)


def proper_cuts(k: int):
    """All bipartitions as left party subsets, one per complement pair."""
    for r in range(1, k // 2 + 1):
        for left in itertools.combinations(range(k), r):
            if 2 * r == k and 0 not in left:
                continue
            yield left


def _lift(core, weight, positions: list[int], fixed: dict[int, np.ndarray], j: int) -> ProductVector:
    """The product vector with the core factors at the given positions and
    row j of each peeled party's factor stack at that party."""
    factors = dict(zip(positions, core)) | {p: f[j] for p, f in fixed.items()}
    return ProductVector(tuple(factors[p] for p in sorted(factors)), weight)


def _rows(a: np.ndarray, idx: list[int]) -> np.ndarray:
    """a[idx] for ascending row indices idx, with no copy when idx takes every row."""
    return a if len(idx) == len(a) else a[idx]


def _at_least_3(reason: AtLeast3Reason, **detail) -> Schmidt2Class:
    return Schmidt2Class(kind=Schmidt2Kind.AT_LEAST_3, reason=reason, detail=detail)


def _two_terms(a: ProductVector, b: ProductVector, vec: np.ndarray, tol: Tolerances) -> Schmidt2Class:
    """The class of vec from its unique two-term split vec = a + b."""
    resid = float(np.linalg.norm(a.assemble() + b.assemble() - vec))
    if resid > 1e-9:
        return Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail={"reassembly_residual": resid})
    # two products are orthogonal exactly when some party's factors are
    pairs = enumerate(zip(a.factors, b.factors))
    split = tuple(p for p, (x, y) in pairs if abs(np.vdot(x, y)) <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(y))
    dec, detail = Schmidt2Decomposition(a=a, b=b, split=split), {"entry_distance": entry_distance(a, b, tol)}
    if split:
        return Schmidt2Class(kind=Schmidt2Kind.SCHMIDT2, decomposition=dec, detail=detail)
    if detail["entry_distance"] >= 3:
        reason = AtLeast3Reason.NONORTHOGONAL_UNIQUE
        return Schmidt2Class(kind=Schmidt2Kind.AT_LEAST_3, decomposition=dec, reason=reason, detail=detail)
    return Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail=detail)


def schmidt2_classify(vecs: np.ndarray, dims: tuple[int, ...], tol: Tolerances = DEFAULT, products=None) -> list[Schmidt2Class]:
    """Classify each unit row of a stack by how many orthogonal product
    terms it needs, as a list of :class:`Schmidt2Class`.

    PRODUCT and SCHMIDT2 are exact findings; AT_LEAST_3 carries the reason
    it was established; UNDECIDED is the honest fallback when the search
    cannot settle the question.  One batched SVD per cut gives the cut
    ranks, one :func:`try_factor` call factors the rows that no cut settles
    (``products`` may give every row's factorization instead), and per set
    of peeled parties (those whose single-party cut has rank 1) one SVD per
    peeled party and one contraction give the cores, and one core SVD and
    one :func:`span_roots` call cover the rest.  Rows that a reason alone
    settles share one class object.
    """
    vecs = np.asarray(vecs, dtype=complex)
    k, out = len(dims), [None] * len(vecs)
    rest, ones = list(range(len(vecs))), {}
    for left in proper_cuts(k):
        keep, hit = [], None
        for i, r in zip(rest, cut_rank(_rows(vecs, rest), dims, left, tol).tolist()):
            if r >= 3:
                out[i] = hit = hit or _at_least_3(AtLeast3Reason.CUT_RANK, cut=left)
            else:
                keep.append(i)
                if r == 1 and len(left) == 1:
                    ones[i] = ones.get(i, ()) + left
        rest = keep
        if not rest:
            return out

    product, shortage, groups = None, [None, None], {}
    for i, pv in zip(rest, try_factor(_rows(vecs, rest), dims) if products is None else [products[i] for i in rest]):
        if pv is not None:
            out[i] = product = product or Schmidt2Class(Schmidt2Kind.PRODUCT)
        else:
            # peel off parties that factor out (single-party cut rank 1); a
            # near-product row that try_factor rejects keeps a two-party core
            groups.setdefault(ones.get(i, ())[: k - 2], []).append(i)
    for peel, rows in groups.items():
        positions = [p for p in range(k) if p not in peel]
        core_dims = tuple(dims[p] for p in positions)
        # every peeled cut has rank 1, so its dominant left singular vector
        # is the party's factor f_p, and contracting conj(f_p) out of the
        # row leaves the core for which f_p (x) core reassembles it
        group = _rows(vecs, rows)
        fixed = {p: np.linalg.svd(cut_matrix(group, dims, (p,)), full_matrices=False)[0][:, :, 0] for p in peel}
        cores = group.reshape(len(rows), *dims)
        for p in reversed(peel):
            cores = np.einsum("nj,nj...->n...", fixed[p].conj(), np.moveaxis(cores, p + 1, 1))
        cores = cores.reshape(len(rows), -1)
        u, s, vh = np.linalg.svd(cut_matrix(cores, core_dims, (0,)), full_matrices=False)
        spans = []
        for j, (s0, s1) in enumerate(s[:, :2].tolist()):
            if s1 > tol.rank * s0:
                spans.append(j)
            else:
                out[rows[j]] = Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail={"core": "unexpected rank"})
        if len(core_dims) == 2:
            for j in spans:
                a = _lift((u[j, :, 0], vh[j, 0]), complex(s[j, 0]), positions, fixed, j)
                b = _lift((u[j, :, 1], vh[j, 1]), complex(s[j, 1]), positions, fixed, j)
                out[rows[j]] = _two_terms(a, b, vecs[rows[j]], tol)
        elif spans:
            # core with >= 3 parties, every single-party cut rank equal to 2:
            # a two-term split takes its right factors from the product
            # vectors v_r = s_r r1 + t_r r2 of the right singular vectors'
            # span, and top r1 + low r2 =
            # ((t2 top - s2 low) v1 + (s1 low - t1 top) v2) / (s1 t2 - s2 t1)
            right = _rows(vh, spans)
            span = span_roots(right[:, 0], right[:, 1], core_dims[1:])
            counts, all_products = span.product.sum(axis=1).tolist(), span.all_product.tolist()
            for n, (j, c, all_product) in enumerate(zip(spans, counts, all_products)):
                if all_product:
                    # an all-product span makes some core party factor out,
                    # and every rank-1 party has been peeled
                    out[rows[j]] = Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail={"core": "inconsistent span"})
                elif c < 2:
                    shortage[c] = shortage[c] or _at_least_3(AtLeast3Reason.PRODUCT_SHORTAGE, span_products=c)
                    out[rows[j]] = shortage[c]
                else:
                    (s1, t1), (s2, t2) = span.roots[n]
                    top, low, det = u[j, :, 0] * s[j, 0], u[j, :, 1] * s[j, 1], s1 * t2 - s2 * t1
                    coefs = ((t2 * top - s2 * low) / det, (s1 * low - t1 * top) / det)
                    terms = []
                    for r in span.product_roots(n):
                        pv = span.product_vector(n, r)  # v_r is pv times their overlap
                        left = coefs[r] * np.vdot(pv.assemble(), span.vectors[n, r])
                        terms.append(_lift((left,) + pv.factors, 1.0, positions, fixed, j))
                    out[rows[j]] = _two_terms(*terms, vecs[rows[j]], tol)
    return out
