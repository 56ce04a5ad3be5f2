"""Schmidt decompositions, product-vector detection in 2-dimensional spans,
entry distance, and the orthogonal-Schmidt-number classification.

:func:`try_factor` is the one factoring kernel; a state's own
factorization is read from :attr:`~sepdisc.states.PureState.product`, which
calls it once and keeps the result.

The central nontrivial routine is :func:`schmidt2_classify`.  For a state
whose every bipartition rank is at most 2 it searches for a two-term product
decomposition through the 2-dimensional "right support" across one cut: the
candidate right factors must be product vectors of that span, so counting
those settles the classification.  Fewer than two product vectors in the
span proves no two-term decomposition exists; exactly two pins the
decomposition uniquely; an all-product span only occurs when some party
factors out entirely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import BadBipartition, DimensionMismatch, NotIndependent
from .linalg import kron_all
from .states import PureState, StateSpace


@dataclass(frozen=True)
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
        norms = [np.linalg.norm(f) for f in factors] + [abs(weight)]
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
            n = np.linalg.norm(f)
            f = f / n
            j = int(np.argmax(np.abs(f)))
            ph = f[j] / abs(f[j])
            outs.append(f / ph)
            w *= n * ph
        return ProductVector(tuple(outs), w)


def cut_matrix(vec: np.ndarray, dims: tuple[int, ...], left: tuple[int, ...]) -> np.ndarray:
    """Amplitude matrix of a vector across the bipartition left|rest."""
    k = len(dims)
    right = tuple(p for p in range(k) if p not in left)
    t = np.asarray(vec).reshape(dims)
    t = np.transpose(t, left + right)
    dl = int(np.prod([dims[p] for p in left]))
    return t.reshape(dl, -1)


@dataclass(frozen=True)
class SchmidtInfo:
    """Bipartite Schmidt data: coefficients descending, factor kets as columns."""

    rank: int
    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    left_parties: tuple[int, ...]


def schmidt_decompose(psi: PureState, left_parties, tol: Tolerances = DEFAULT) -> SchmidtInfo:
    """SVD of the amplitude matrix across the given cut; rank counted above
    the relative tolerance."""
    left = tuple(sorted(int(p) for p in left_parties))
    k = psi.space.nparties
    if not left or len(left) >= k:
        raise BadBipartition("bipartition must be a proper nonempty party subset")
    if any(p < 0 or p >= k for p in left) or len(set(left)) != len(left):
        raise BadBipartition(f"invalid party subset {left}")
    m = cut_matrix(psi.amplitudes, psi.space.dims, left)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > tol.rank * s[0])) if s.size and s[0] > 0 else 0
    return SchmidtInfo(
        rank=rank,
        coefficients=s[:rank],
        left_vectors=u[:, :rank],
        right_vectors=vh[:rank, :].T,
        left_parties=left,
    )


def cut_rank(vec: np.ndarray, dims: tuple[int, ...], left: tuple[int, ...], tol: Tolerances) -> int:
    s = np.linalg.svd(cut_matrix(vec, dims, left), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol.rank * s[0]))


def peel_parties(vec: np.ndarray, dims: tuple[int, ...], parties, tol: Tolerances):
    """Factor the given parties out of a vector, lowest index first.

    Returns (factors, core, core_dims): the unit factor of each given party,
    the unit vector on the remaining parties and their dims; None if a given
    party is entangled with the rest.
    """
    factors: dict[int, np.ndarray] = {}
    positions = list(range(len(dims)))
    core = np.asarray(vec)
    core_dims = list(dims)
    for party in sorted(parties):
        i = positions.index(party)
        u, s, vh = np.linalg.svd(cut_matrix(core, tuple(core_dims), (i,)), full_matrices=False)
        if s.size > 1 and s[1] > tol.rank * s[0]:
            return None
        factors[party] = u[:, 0]
        core = s[0] * vh[0, :]
        core = core / np.linalg.norm(core)
        del positions[i]
        del core_dims[i]
    return factors, core, tuple(core_dims)


def try_factor(vec: np.ndarray, dims: tuple[int, ...]) -> ProductVector | None:
    """Factor a vector into a product across all parties, or None.

    Dominant singular vectors per single-party cut give the factors, and the
    vector is accepted iff ||vec - w (x) factors|| <= 1e-9 ||vec|| for the
    overlap w.  A cut whose singular-value tail ||s[1:]|| exceeds that bound
    rejects at once, exactly: by Eckart-Young it bounds the residual below.
    """
    vec = np.asarray(vec, dtype=complex)
    n = np.linalg.norm(vec)
    if n == 0:
        return None
    t = vec.reshape(dims)
    factors = []
    for p, d in enumerate(dims):
        # the single-party cut matrix of cut_matrix(vec, dims, (p,))
        u, s, _ = np.linalg.svd(np.moveaxis(t, p, 0).reshape(d, -1), full_matrices=False)
        if np.linalg.norm(s[1:]) > 1e-9 * n:
            return None
        factors.append(u[:, 0])
    assembled = kron_all(factors)
    w = complex(np.vdot(assembled, vec))
    if np.linalg.norm(vec - w * assembled) > 1e-9 * n:
        return None
    return ProductVector(tuple(factors), w)


def is_product(state: PureState, tol: Tolerances = DEFAULT) -> bool:
    return state.product is not None


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


def _minor_polys(a: np.ndarray, b: np.ndarray):
    """Quadratic coefficients (c0, c1, c2) of every 2x2 minor of A + z B."""
    out = []
    for i1, i2 in itertools.combinations(range(a.shape[0]), 2):
        for j1, j2 in itertools.combinations(range(a.shape[1]), 2):
            a11, a12, a21, a22 = a[i1, j1], a[i1, j2], a[i2, j1], a[i2, j2]
            b11, b12, b21, b22 = b[i1, j1], b[i1, j2], b[i2, j1], b[i2, j2]
            c2 = b11 * b22 - b12 * b21
            c1 = a11 * b22 + b11 * a22 - a12 * b21 - b12 * a21
            c0 = a11 * a22 - a12 * a21
            out.append((c0, c1, c2))
    return out


def _roots_of_best_minor(minors, scale: float):
    best = max(minors, key=lambda m: max(abs(m[0]), abs(m[1]), abs(m[2])))
    c0, c1, c2 = best
    if abs(c2) > 1e-12 * scale:
        return list(np.roots([c2, c1, c0]))
    # near-degenerate leading coefficient: treat as degree <= 1; the point at
    # infinity is handled by checking phi itself
    if abs(c1) > 1e-12 * scale:
        return [-c0 / c1]
    return []


def product_vectors_in_span(psi: PureState, phi: PureState, tol: Tolerances = DEFAULT) -> SpanProducts:
    """All product vectors (up to scale) of the form psi + z*phi, plus phi.

    Candidate roots come from the vanishing 2x2 minors of the amplitude
    pencil across each single-party cut; every candidate is verified by
    actual factorization, so spurious roots are filtered out.  psi (the
    root z = 0) and phi are read through their cached
    :attr:`~sepdisc.states.PureState.product`, so neither is factored again.
    """
    if psi.space != phi.space:
        raise DimensionMismatch("states live on different spaces")
    space = psi.space
    if abs(psi.inner(phi)) > 1.0 - 1e-10:
        raise NotIndependent("span requires linearly independent states")

    dims = space.dims
    candidates: list[complex] = [0.0 + 0j]
    all_cuts_unconstrained = True
    for p in range(space.nparties):
        a = cut_matrix(psi.amplitudes, dims, (p,))
        b = cut_matrix(phi.amplitudes, dims, (p,))
        minors = _minor_polys(a, b)
        scale = max(max(abs(c0), abs(c1), abs(c2)) for c0, c1, c2 in minors)
        if scale < 1e-13:
            continue  # this cut puts no constraint on z
        all_cuts_unconstrained = False
        candidates.extend(_roots_of_best_minor(minors, scale))

    if all_cuts_unconstrained:
        return SpanProducts(vectors=[], infinitely_many=True)

    uniq: list[complex] = []
    for z in candidates:
        z = complex(z)
        if not any(abs(z - u) <= 1e-8 * (1.0 + abs(u)) for u in uniq):
            uniq.append(z)
    uniq.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))

    found: list[ProductVector] = []

    def _push(pv: ProductVector):
        v = pv.unit()
        if not any(abs(np.vdot(other.unit(), v)) > 1.0 - 1e-9 for other in found):
            found.append(pv.normalized())

    for z in uniq:
        vec = psi.amplitudes + z * phi.amplitudes
        if np.linalg.norm(vec) < 1e-10:
            continue
        pv = psi.product if z == 0 else try_factor(vec, dims)
        if pv is not None:
            _push(pv)
    if phi.product is not None:
        _push(phi.product)

    if len(found) > 2:
        # a 2-dimensional span with three distinct product directions is
        # entirely product
        return SpanProducts(vectors=[], infinitely_many=True)
    return SpanProducts(vectors=found, infinitely_many=False)


def span_coordinates(p: ProductVector, q: ProductVector, vecs) -> np.ndarray:
    """Coordinates of vectors in the span of two product vectors: column j
    holds (x, y) with vecs[j] = x p_hat + y q_hat for the unit vectors
    p_hat, q_hat along p and q."""
    p_hat, q_hat = p.unit(), q.unit()
    gram = np.array([[1.0, np.vdot(p_hat, q_hat)], [np.vdot(q_hat, p_hat), 1.0]], dtype=complex)
    rhs = np.array([[np.vdot(p_hat, v) for v in vecs], [np.vdot(q_hat, v) for v in vecs]], dtype=complex)
    return np.linalg.solve(gram, rhs)


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
    a: ProductVector
    b: ProductVector
    orthogonal: bool
    unique: bool

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


def _lift(core_pv: ProductVector, positions: list[int], fixed: dict[int, np.ndarray], k: int) -> ProductVector:
    factors: list[np.ndarray | None] = [None] * k
    for pos, f in fixed.items():
        factors[pos] = f
    for pos, f in zip(positions, core_pv.factors):
        factors[pos] = f
    return ProductVector(tuple(factors), core_pv.weight)


def schmidt2_classify(phi: PureState, tol: Tolerances = DEFAULT) -> Schmidt2Class:
    """Classify a pure state by how many orthogonal product terms it needs.

    PRODUCT and SCHMIDT2 are exact findings; AT_LEAST_3 carries the reason
    it was established; UNDECIDED is the honest fallback when the search
    cannot settle the question.
    """
    dims = phi.space.dims
    k = phi.space.nparties
    vec = phi.amplitudes

    ranks = {}
    for left in proper_cuts(k):
        ranks[left] = cut_rank(vec, dims, left, tol)
        if ranks[left] >= 3:
            return Schmidt2Class(
                kind=Schmidt2Kind.AT_LEAST_3,
                reason=AtLeast3Reason.CUT_RANK,
                detail={"cut": left},
            )

    if phi.product is not None:
        return Schmidt2Class(kind=Schmidt2Kind.PRODUCT)

    # peel off parties that factor out (single-party cut rank 1); a
    # near-product state that try_factor rejects keeps a two-party core
    ones = [p for p in range(k) if ranks.get((p,)) == 1]
    peeled = peel_parties(vec, dims, ones[: k - 2], tol)
    if peeled is None:
        return Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail={"core": "peeling failed"})
    fixed, core, core_dims = peeled
    positions = [p for p in range(k) if p not in fixed]

    def _finish(a: ProductVector, b: ProductVector) -> Schmidt2Class:
        a_vec, b_vec = a.assemble(), b.assemble()
        resid = float(np.linalg.norm(a_vec + b_vec - vec))
        if resid > 1e-9:
            return Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail={"reassembly_residual": resid})
        ov = abs(np.vdot(a_vec, b_vec))
        orthogonal = ov <= 1e-9 * np.linalg.norm(a_vec) * np.linalg.norm(b_vec)
        h = entry_distance(a, b, tol)
        if orthogonal:
            dec = Schmidt2Decomposition(a=a, b=b, orthogonal=True, unique=h >= 3)
            return Schmidt2Class(kind=Schmidt2Kind.SCHMIDT2, decomposition=dec, detail={"entry_distance": h})
        if h >= 3:
            dec = Schmidt2Decomposition(a=a, b=b, orthogonal=False, unique=True)
            return Schmidt2Class(
                kind=Schmidt2Kind.AT_LEAST_3,
                reason=AtLeast3Reason.NONORTHOGONAL_UNIQUE,
                decomposition=dec,
                detail={"entry_distance": h},
            )
        return Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail={"entry_distance": h})

    kc = len(core_dims)
    m = cut_matrix(core, core_dims, (0,))
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size < 2 or s[1] <= tol.rank * s[0]:
        return Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail={"core": "unexpected rank"})

    if kc == 2:
        a = _lift(ProductVector((u[:, 0], vh[0, :]), complex(s[0])), positions, fixed, k)
        b = _lift(ProductVector((u[:, 1], vh[1, :]), complex(s[1])), positions, fixed, k)
        return _finish(a, b)

    # core with >= 3 parties, every single-party cut rank equal to 2
    rest_space = StateSpace(core_dims[1:])
    r1 = PureState.normalized(rest_space, vh[0, :])
    r2 = PureState.normalized(rest_space, vh[1, :])
    span = product_vectors_in_span(r1, r2, tol)

    if span.infinitely_many:
        # an all-product span makes some core party factor out, and every
        # rank-1 party has been peeled
        return Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail={"core": "inconsistent span"})

    if len(span.vectors) < 2:
        return Schmidt2Class(
            kind=Schmidt2Kind.AT_LEAST_3,
            reason=AtLeast3Reason.PRODUCT_SHORTAGE,
            detail={"span_products": len(span.vectors)},
        )

    p, q = span.vectors
    coords = span_coordinates(p, q, (r1.amplitudes, r2.amplitudes))
    uvec = u[:, 0] * s[0] * coords[0, 0] + u[:, 1] * s[1] * coords[0, 1]
    vvec = u[:, 0] * s[0] * coords[1, 0] + u[:, 1] * s[1] * coords[1, 1]
    if np.linalg.norm(uvec) < 1e-10 or np.linalg.norm(vvec) < 1e-10:
        return Schmidt2Class(kind=Schmidt2Kind.UNDECIDED, detail={"core": "degenerate coordinates"})
    # p_hat = phase * (x) p.factors with unit factors, so carry that phase
    ph_p = p.weight / abs(p.weight)
    ph_q = q.weight / abs(q.weight)
    a = _lift(ProductVector((uvec,) + p.factors, ph_p), positions, fixed, k)
    b = _lift(ProductVector((vvec,) + q.factors, ph_q), positions, fixed, k)
    return _finish(a, b)
