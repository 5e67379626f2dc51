"""Computational manifolds, metrics, connections and quotient identity.

Points live in ambient coordinates.  A manifold is the ambient chart, or
the codimension-one level set ``constraint(p) = 0`` when it has a
constraint, modulo the deck group of its ``deck_generators``, if any.
Tangent vectors are stored in ambient coordinates and projected onto the
tangent space when needed.  ``central_diff`` is the one finite-difference
stencil; only ``critical._tangent_df`` (the independent gradient
certificate) keeps its own.

Every evaluator (a field, a metric, a constraint, and their derivatives)
takes one point of shape (d,) or an (N, d) stack, and then returns one
float array value per row.  ``ManifoldModel``, ``MetricField`` and
``killing.KillingField`` bring their callables to that contract once,
when built, through ``as_evaluator``, and fill each derivative they were
built without with ``central_diff`` of their own evaluator
(``_derivative``).  Once a record is built its value and derivative
evaluators are complete, float-valued and stack-aware, and every layer
calls them directly.

The operations built on them (``tangent_basis``, ``tangent_project``,
``tangent_gram``, ``metric_orthogonal_project``, ``apply_christoffel``)
have one body each, for one point or an (N, d) stack: a point is a
stack of one row, bit for bit: the products ``matvec`` and ``inner`` are
numpy's gufuncs, which round every row of a stack as the one point.  So
are ``solve_metric`` and ``killing._conversion_jacobian``'s G with ∂G.
Every orthonormal complement is one Householder ``complement``: of ∇c in
``tangent_basis``, of K inside it in ``critical.classify_critical``.
One one-point branch stays, where the integrator's inner step pays for
it once per step: ``project_point`` (11 µs against 27 µs for a stack of
one on stationary-s3, 2-vCPU Xeon host).

The deck group is searched in BFS levels of word length, each built once
per model when first needed: ``reduce_point`` stops at the first level
with a hit; only the generic ``quotient_distance`` takes every level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import OffManifoldError, SingularMetricError

Array = np.ndarray

# Finite-difference steps: central differences at double precision.
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-4

CONSTRAINT_TOL = 1e-8
IDENTIFY_TOL = 1e-6
MAX_WORD_LEN = 6  # radius of deck_ball: reduce_point's longest word between reduced points
PROJECT_TOL = 1e-13  # constraint residual at which project_point stops
PROJECT_MAX_ITER = 20
REDUCE_MAX_ITER = 100000  # greedy moves of reduce_to_fundamental
DECK_IDENTITY_TOL = 1e-9
DECK_ORTHOGONAL_TOL = 1e-12  # largest entry of M Mᵀ - I of a deck generator's matrix M
SIGNATURE_TOL = 1e-10  # eigenvalues of signature_of_gram counted as zero


def matvec(A: Array, x: Array) -> Array:
    """A x for one vector, or row by row for stacks of matrices and vectors.

    numpy's ``matvec`` gufunc: every row of a stack rounds as the one
    point does, bit for bit, so a point is a stack of one.
    """
    return np.matvec(A, x)


def stackwise(fn: Callable[[Array], Array]) -> Callable[[Array], Array]:
    """Mark ``fn`` as mapping an (N, d) stack row by row by construction,
    so that ``as_evaluator`` keeps it as it is."""
    fn.stackwise = True
    return fn


def as_evaluator(fn: Callable[[Array], Array]) -> Callable[[Array], Array]:
    """``fn`` as an evaluator of one point or of an (N, d) stack.

    None and a ``stackwise`` callable are returned as they are; any other
    is wrapped, and its outputs become float arrays.  One point goes
    straight to ``fn``.  The first stack of more than d rows settles,
    once, whether ``fn`` maps a stack row by row: on the first d + 1 rows
    its output must have the shape of, and match to 1e-12, its outputs
    row by row.  Later stacks go to ``fn`` whole if it does, row by row if
    not.  A stack of at most d rows, too short to tell, goes row by row
    until then.
    """
    if fn is None or getattr(fn, "stackwise", False):
        return fn
    whole = None

    def evaluate(p):
        nonlocal whole
        if np.ndim(p) == 1:
            return np.asarray(fn(p), dtype=float)
        d = np.shape(p)[1]
        if whole is None and len(p) > d:
            rows = _rows(fn, p[: d + 1])
            try:
                out = np.asarray(fn(p[: d + 1]), dtype=float)
                whole = out.shape == rows.shape and np.allclose(out, rows, rtol=1e-12, atol=1e-14)
            except (ValueError, TypeError, IndexError):
                whole = False
        return np.asarray(fn(p), dtype=float) if whole else _rows(fn, p)

    evaluate.__wrapped__ = fn
    return stackwise(evaluate)


def _rows(fn, P) -> Array:
    return np.array([np.asarray(fn(p), dtype=float) for p in P])


def constant(value: Array) -> Callable[[Array], Array]:
    """A constant evaluator: ``value`` at one point, stacked for (N, d)."""

    @stackwise
    def evaluate(p, _v=value):
        return _v if np.ndim(p) == 1 else np.broadcast_to(_v, np.shape(p)[:-1] + _v.shape)

    return evaluate


def inner(x: Array, y: Array) -> Array:
    """x · y for two vectors, or row by row for stacks: numpy's ``vecdot``,
    which rounds every row as the one point (see ``matvec``)."""
    return np.vecdot(x, y)


def complement(n: Array) -> Array:
    """Orthonormal rows spanning the complement of a nonzero vector n,
    (d - 1, d), or of each row of a stack: the Householder reflection
    I - 2 v vᵀ / vᵀv, v = n + sign(n_k)|n| e_k, less its row k, the first
    index of the largest |n_k|.  Every step is elementwise or ``inner``,
    so a row of a stack is its one-point value, bit for bit."""
    n = np.asarray(n, dtype=float)
    d = n.shape[-1]
    e = np.arange(d) == np.argmax(np.abs(n), axis=-1)[..., None]
    v = n + np.where(e, np.copysign(np.sqrt(inner(n, n))[..., None], n), 0.0)
    H = np.eye(d) - 2.0 * v[..., :, None] * v[..., None, :] / inner(v, v)[..., None, None]
    return H[~e].reshape(n.shape[:-1] + (d - 1, d))


def central_diff(fn: Callable[[Array], Array], p: Array, dirs: Array, h: float) -> Array:
    """Central differences of ``fn`` at ``p`` along each row of ``dirs``.

    The one stencil of the package: only ``critical._tangent_df`` keeps
    its own (module docstring).

    ``p`` has shape ``(..., d)`` and ``dirs`` ``(m, d)``, or ``(..., m, d)``
    for directions per point.  ``fn`` maps an ``(N, d)`` stack of points
    to an ``(N, ...)`` stack of values; all 2m displaced points go to
    ``fn`` in one call.  The result has shape ``p.shape[:-1] + (m,) +
    value shape``.
    """
    p = np.asarray(p, dtype=float)
    step = h * np.asarray(dirs, dtype=float)
    pts = np.stack([p[..., None, :] + step, p[..., None, :] - step])
    vals = np.asarray(fn(pts.reshape(-1, p.shape[-1])), dtype=float)
    vals = vals.reshape(pts.shape[:-1] + vals.shape[1:])
    return (vals[0] - vals[1]) / (2 * h)


def _derivative(given, fn, h: float, symmetric: bool = False):
    """A record's derivative evaluator: ``given``, or else the
    ``central_diff`` of its evaluator ``fn`` at step ``h`` along every
    coordinate, averaged with its transpose over the last two axes when
    ``symmetric``.  A stencil made here is marked ``filled``, and a marked
    ``given`` is made again from ``fn``: a record rebuilt by
    ``dataclasses.replace`` with a new evaluator differentiates the new
    one.  None without ``fn``."""
    if given is not None and not getattr(given, "filled", False):
        return as_evaluator(given)
    if fn is None:
        return None

    @stackwise
    def derivative(p):
        D = central_diff(fn, p, np.eye(np.shape(p)[-1]), h)
        return 0.5 * (D + np.swapaxes(D, -1, -2)) if symmetric else D

    derivative.filled = True
    return derivative


def directional_diff(fn: Callable[[Array], Array], p: Array, v: Array) -> Array:
    """Derivatives of a vector field ``fn`` along the rows of ``v``, at
    ``p`` or its rows: ``central_diff`` along v/|v| at ``FD_STEP_FIRST``,
    times |v|."""
    v = np.asarray(v, dtype=float)
    nv = np.sqrt(inner(v, v))  # each row's norm as np.linalg.norm rounds it
    nv[nv == 0.0] = 1.0  # a zero row stays zero: both its displaced points are p
    return central_diff(fn, p, v[:, None, :] / nv[:, None, None], FD_STEP_FIRST)[:, 0] * nv[:, None]


@dataclass(frozen=True, eq=False)
class DeckElement:
    """An affine deck transformation ``p -> matrix @ p + offset``.

    ``word`` records the element as a product of generators: a tuple of
    ``(generator_index, exponent)`` pairs with exponent +1 or -1, leftmost
    factor applied last.
    """

    matrix: Array
    offset: Array
    word: tuple = ()

    def apply(self, p: Array) -> Array:
        return self.matrix @ np.asarray(p, dtype=float) + self.offset

    def apply_vector(self, v: Array) -> Array:
        return self.matrix @ np.asarray(v, dtype=float)

    def compose(self, other: "DeckElement") -> "DeckElement":
        """Return self ∘ other."""
        return DeckElement(
            self.matrix @ other.matrix,
            self.matrix @ other.offset + self.offset,
            simplify_word(self.word + other.word),
        )

    def inverse(self) -> "DeckElement":
        inv = np.linalg.inv(self.matrix)
        word = tuple((i, -e) for (i, e) in reversed(self.word))
        return DeckElement(inv, -inv @ self.offset, word)

    def is_identity(self) -> bool:
        n = self.matrix.shape[0]
        return (
            np.abs(self.matrix - np.eye(n)).max() <= DECK_IDENTITY_TOL
            and np.abs(self.offset).max() <= DECK_IDENTITY_TOL
        )

    def key(self) -> bytes:
        """Hashable fingerprint used to deduplicate group elements."""
        data = np.concatenate([self.matrix.ravel(), self.offset])
        return np.round(data, 9).tobytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeckElement(word={word_str(self.word)})"


def simplify_word(word: tuple) -> tuple:
    """Cancel adjacent inverse pairs in a generator word."""
    out: list = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_str(word: tuple) -> str:
    if not word:
        return "e"
    return ".".join(f"g{i}" if e > 0 else f"g{i}^-1" for i, e in word)


def identity_element(dim: int) -> DeckElement:
    return DeckElement(np.eye(dim), np.zeros(dim), ())


def make_deck_generator(index: int, matrix, offset) -> DeckElement:
    return DeckElement(
        np.asarray(matrix, dtype=float),
        np.asarray(offset, dtype=float),
        ((index, 1),),
    )


@dataclass(frozen=True, eq=False)
class ManifoldModel:
    """A computational manifold: a chart or level set modulo a deck group.

    Parameters
    ----------
    ambient_dim : int
        Dimension of the ambient chart space.  The manifold's own,
        ``intrinsic_dim``, is one less when it has a constraint.
    constraint : callable, optional
        Scalar function whose zero level set is the manifold (codimension
        one); without it the manifold fills its chart.
    constraint_grad, constraint_hess : callable, optional
        Analytic gradient / Hessian of the constraint.  A missing one is
        filled when the model is built: the gradient by ``central_diff``
        of the constraint at ``FD_STEP_FIRST``, the Hessian by the
        symmetrised ``central_diff`` of the gradient at ``FD_STEP_SECOND``.

    The constraint and its derivatives are evaluators: one point or an
    (N, d) stack, normalised by ``as_evaluator`` when the model is built
    (module docstring).
    deck_generators : tuple of DeckElement
        Generators of the deck group, if any.  Each must be a Euclidean
        isometry: its matrix orthogonal to ``DECK_ORTHOGONAL_TOL``, or the
        model raises ValueError.  Then the quotient distance is
        1-Lipschitz in the point, which the return scan of
        ``flows.detect_period`` takes as its premise: a curve that moves
        no faster than V gets no nearer to a point than V per unit time.
    fundamental_box : array (ambient_dim, 2), optional
        Coordinate bounds of a fundamental region, used for sampling and
        for greedy reduction of faraway points.
    sampler : callable(rng, n) -> (n, ambient_dim) stack, optional
        Draws n points on the manifold from the stream of n one-point
        draws; default samples the box and projects onto the constraint set.
    quotient_distance_fn : callable(points, q) -> distances, optional
        Vectorized exact quotient distance, 1-Lipschitz in the point as
        the exact one is.  Without it, the generic path reduces each point
        into the fundamental box and takes the minimum over ``deck_ball``;
        it is much slower, and it is the reference the tests check every
        closed form against.
    """

    ambient_dim: int
    constraint: Optional[Callable[[Array], float]] = None
    constraint_grad: Optional[Callable[[Array], Array]] = None
    constraint_hess: Optional[Callable[[Array], Array]] = None
    deck_generators: tuple = ()
    fundamental_box: Optional[Array] = None
    sampler: Optional[Callable] = None
    quotient_distance_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.intrinsic_dim < 2:
            raise ValueError("manifolds here have dimension >= 2")
        for gen in self.deck_generators:
            if np.abs(gen.matrix @ gen.matrix.T - np.eye(self.ambient_dim)).max() > DECK_ORTHOGONAL_TOL:
                raise ValueError(f"deck generator {word_str(gen.word)} is not a Euclidean isometry")
        object.__setattr__(self, "constraint", as_evaluator(self.constraint))
        object.__setattr__(self, "constraint_grad", _derivative(self.constraint_grad, self.constraint, FD_STEP_FIRST))
        object.__setattr__(
            self, "constraint_hess", _derivative(self.constraint_hess, self.constraint_grad, FD_STEP_SECOND, symmetric=True)
        )
        object.__setattr__(self, "_deck_levels", ([], _bfs_levels(self.deck_moves, self.ambient_dim)))

    @property
    def intrinsic_dim(self) -> int:
        """The ambient dimension, less one for the scalar constraint."""
        return self.ambient_dim - (self.constraint is not None)

    # -- constraint handling -------------------------------------------------

    def constraint_residual(self, p: Array) -> float:
        """|c(p)| at one point, or the largest over an (N, d) stack: 0.0
        for an empty one."""
        if self.constraint is None:
            return 0.0
        return float(np.max(np.abs(self.constraint(np.asarray(p, dtype=float))), initial=0.0))

    def check_on_manifold(self, p: Array) -> None:
        """Raise ``OffManifoldError`` where p, or some row of an (N, d)
        stack, is off the manifold by more than ``CONSTRAINT_TOL``."""
        r = self.constraint_residual(p)
        if r > CONSTRAINT_TOL:
            raise OffManifoldError(f"constraint residual {r:.3e} exceeds {CONSTRAINT_TOL:.1e}")

    def project_point(self, p: Array) -> Array:
        """Newton-project nearby ambient points onto the constraint set.

        ``p`` is one point or an ``(N, d)`` stack whose rows stop on their
        own once their residual is within ``PROJECT_TOL``, after at most
        ``PROJECT_MAX_ITER`` steps.  A single point is
        passed to the constraint as a 1-D array.
        """
        p = np.array(p, dtype=float)
        if self.constraint is None:
            return p
        if p.ndim == 1:
            for _ in range(PROJECT_MAX_ITER):
                r = float(self.constraint(p))
                if abs(r) <= PROJECT_TOL:
                    break
                grad = self.constraint_grad(p)
                p = p - r * grad / (grad @ grad)
            return p
        live = np.arange(len(p))
        for _ in range(PROJECT_MAX_ITER):
            r = self.constraint(p[live])
            far = np.abs(r) > PROJECT_TOL
            if not far.any():
                break
            live, r = live[far], r[far]
            grad = self.constraint_grad(p[live])
            p[live] = p[live] - r[:, None] * grad / inner(grad, grad)[:, None]
        return p

    def tangent_project(self, p: Array, v) -> Array:
        """Euclidean-orthogonal projection of ``v`` onto the tangent space
        at ``p``, or row by row for (N, d) stacks of points and vectors."""
        v = np.array(v, dtype=float)
        if self.constraint is None:
            return v
        grad = self.constraint_grad(np.asarray(p, dtype=float))
        return v - (inner(grad, v) / inner(grad, grad))[..., None] * grad

    def tangent_basis(self, p: Array) -> Array:
        """Euclidean-orthonormal basis of T_pM, rows are basis vectors.

        The ``complement`` of ∇c, or the ambient coordinate directions
        when there is no constraint.  One point gets an (m, d) basis and
        an (N, d) stack an (N, m, d) stack of bases from one
        ``constraint_grad`` call: a point is a stack of one row, and a
        row does not depend on the other rows.
        """
        P = np.asarray(p, dtype=float)
        if self.constraint is None:
            return np.broadcast_to(np.eye(self.ambient_dim), P.shape + (self.ambient_dim,)).copy()
        return complement(self.constraint_grad(P))

    # -- sampling -------------------------------------------------------------

    def sample_point(self, rng: np.random.Generator) -> Array:
        """One seeded point: the one row of ``sample_points(rng, 1)``."""
        return self.sample_points(rng, 1)[0]

    def sample_points(self, rng: np.random.Generator, n: int) -> Array:
        """An (n, d) stack of seeded points: one sampler call, or else uniform box rows projected
        as one stack, the rows off by more than ``CONSTRAINT_TOL`` redrawn (100 draws at most)."""
        if n < 0:
            raise ValueError(f"sample count must be non-negative, got {n}")
        if self.sampler is not None:
            return np.asarray(self.sampler(rng, n), dtype=float).reshape(n, self.ambient_dim)
        if self.fundamental_box is None:
            raise ValueError("manifold has neither sampler nor fundamental box")
        lo, hi = self.fundamental_box.T
        P, todo = np.empty((n, self.ambient_dim)), np.arange(n)
        for _ in range(100):
            P[todo] = rng.uniform(lo, hi, size=(todo.size, self.ambient_dim))
            if self.constraint is None:
                return P
            P[todo] = self.project_point(P[todo])
            todo = todo[np.abs(self.constraint(P[todo])) > CONSTRAINT_TOL]
            if not todo.size:
                return P
        raise RuntimeError("sampling failed to project onto the constraint set")

    # -- deck group -----------------------------------------------------------

    @cached_property
    def deck_moves(self) -> tuple:
        """Generators and their inverses."""
        return tuple(m for g in self.deck_generators for m in (g, g.inverse()))

    @cached_property
    def deck_ball(self) -> "DeckBall":
        """All distinct deck elements of word length <= ``MAX_WORD_LEN``,
        in BFS order: all of ``deck_levels``, one after the other."""
        levels = list(self.deck_levels())
        matrices, offsets = np.concatenate([b.matrices for b in levels]), np.concatenate([b.offsets for b in levels])
        return DeckBall(matrices, offsets, sum((b.words for b in levels), ()))

    def deck_levels(self):
        """The levels of ``deck_ball`` in BFS order, level n the elements
        first reached at word length n, each built on first use, once per
        model: a search that stops at a level builds none after it."""
        built, source = self._deck_levels  # set when built: the levels so far and their source
        for n in range(MAX_WORD_LEN + 1):
            if n == len(built):
                built.append(next(source, None))
            if built[n] is None:
                return
            yield built[n]

    def reduce_to_fundamental(self, p: Array):
        """Greedily move ``p`` into the fundamental box.

        Returns ``(reduced_point, element)`` with ``element.apply(p) ==
        reduced_point``.  Box intervals are treated as half-open so that a
        point sitting exactly on the upper face gets reduced.
        """
        p = np.asarray(p, dtype=float)
        ident = identity_element(self.ambient_dim)
        if self.fundamental_box is None or not self.deck_generators:
            return p.copy(), ident
        lo = self.fundamental_box[:, 0]
        hi = self.fundamental_box[:, 1]

        def score(q):
            excess = np.maximum(lo - q, 0.0).sum() + np.maximum(q - hi, 0.0).sum()
            outside = int(np.count_nonzero((q < lo) | (q >= hi)))
            return (excess, outside)

        moves = self.deck_moves
        current, element, cur_score = p.copy(), ident, score(p)
        for _ in range(REDUCE_MAX_ITER):
            if cur_score == (0.0, 0):
                break
            cands = [m.apply(current) for m in moves]
            scores = [score(c) for c in cands]
            k = min(range(len(moves)), key=scores.__getitem__)  # the first best move
            if not scores[k] < cur_score:
                break
            cur_score, current, element = scores[k], cands[k], moves[k].compose(element)
        return current, element

    def quotient_distance(self, points, q) -> Array:
        """Distance in the quotient between each of ``points`` and ``q``."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        q = np.asarray(q, dtype=float)
        if self.quotient_distance_fn is not None:
            d = np.asarray(self.quotient_distance_fn(pts, q), dtype=float)
        elif not self.deck_generators:
            d = np.linalg.norm(pts - q, axis=1)
        else:
            q_red, _ = self.reduce_to_fundamental(q)
            images = (self.deck_ball.images(self.reduce_to_fundamental(p)[0]) for p in pts)
            d = np.array([np.linalg.norm(im - q_red, axis=1).min() for im in images])
        return float(d[0]) if single else d


class DeckBall(NamedTuple):
    """Deck elements stacked in BFS order: ``matrices`` (n, d, d),
    ``offsets`` (n, d) and ``words``."""

    matrices: Array
    offsets: Array
    words: tuple

    def images(self, p: Array) -> Array:
        """Every element applied to the point ``p``: one row each."""
        return matvec(self.matrices, p) + self.offsets


def _bfs_levels(moves: tuple, dim: int):
    """The deck elements level by level, word length 0, 1, ...: each
    element of the last level composed with every move in turn, and kept
    the first time its ``key`` shows up.  Ends at an empty level."""
    ident = identity_element(dim)
    found = {ident.key(): ident}
    level = [ident]
    while level:
        yield DeckBall(np.array([e.matrix for e in level]), np.array([e.offset for e in level]), tuple(e.word for e in level))
        level = [c for c in (m.compose(el) for el in level for m in moves) if found.setdefault(c.key(), c) is c]


def reduce_point(M: ManifoldModel, p: Array, q: Array, tol: float = IDENTIFY_TOL) -> Optional[DeckElement]:
    """Find a deck word carrying ``p`` to ``q``.

    Returns an element ``g`` with ``|g.apply(p) - q| <= tol``, or ``None``.
    One search: both points are reduced into the fundamental box, by
    ``wp`` and ``wq``; each of ``M.deck_levels`` in turn is tested at once
    on the reduced points, and the first ``s`` in BFS order within ``tol``
    gives ``g = wq⁻¹ ∘ s ∘ wp``.  So ``MAX_WORD_LEN`` counts the word
    length after reduction: ``g`` is longer when the points are far
    apart.  Without deck generators the ball is the identity alone.
    """
    p_red, wp = M.reduce_to_fundamental(p)
    q_red, wq = M.reduce_to_fundamental(q)
    for ball in M.deck_levels():
        hits = np.flatnonzero(np.linalg.norm(ball.images(p_red) - q_red, axis=1) <= tol)
        if len(hits):  # the DeckElement of the first hit: its matrix, offset and word
            return wq.inverse().compose(DeckElement(*(x[hits[0]] for x in ball))).compose(wp)
    return None


@dataclass(frozen=True, eq=False)
class MetricField:
    """A field of symmetric bilinear forms in ambient coordinates.

    ``evaluator(p)`` returns the ambient matrix of the form; restricted to
    tangent vectors it is the metric.  ``jacobian(p)`` returns the array
    ``d[k,i,j] = ∂_k g_ij``: the analytic one when given, else
    ``central_diff`` of ``evaluator`` at ``FD_STEP_FIRST``, filled when
    the field is built.  Both are evaluators of one point or an (N, d)
    stack, normalised by ``as_evaluator`` when the field is built (module
    docstring).  ``signature`` counts (positive, negative) directions on
    the tangent space; ``role`` names its index.
    """

    manifold: ManifoldModel
    evaluator: Callable[[Array], Array]
    signature: tuple
    jacobian: Optional[Callable[[Array], Array]] = field(default=None, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "evaluator", as_evaluator(self.evaluator))
        object.__setattr__(self, "jacobian", _derivative(self.jacobian, self.evaluator, FD_STEP_FIRST))

    @property
    def role(self) -> str:
        """The name of the index ``signature[1]``: 0, 1 or above."""
        index = self.signature[1]
        return "riemannian" if index == 0 else "lorentzian" if index == 1 else "semi_riemannian"

    def matrix(self, p: Array) -> Array:
        return self.evaluator(np.asarray(p, dtype=float))


def metric_eval(g: MetricField, p, v, w) -> float:
    """Evaluate g_p(v, w) for tangent vectors in ambient coordinates.

    Uses the polarization identity so that the result is exactly symmetric
    in (v, w) down to the last bit.
    """
    p = np.asarray(p, dtype=float)
    g.manifold.check_on_manifold(p)
    G = g.matrix(p)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    a = v + w
    b = v - w
    return 0.25 * (float(a @ (G @ a)) - float(b @ (G @ b)))


def solve_metric(G: Array, b: Array) -> Array:
    """G⁻¹ b for the ambient metric matrix G, or row by row for a stack.

    Raises SingularMetricError when |det G| < 1e-12 at some point: the
    metric is numerically degenerate there and has no inverse.
    """
    det = np.linalg.det(G)
    if (abs(det) < 1e-12).any():
        raise SingularMetricError("metric degenerate at evaluation point")
    return np.linalg.solve(G, b)


def metric_and_jacobian(g: MetricField, p) -> tuple:
    """(G, ∂G) at p or at each row of an (N, d) stack: from one evaluation
    where the jacobian has ``with_matrix`` (a reflection, ``killing``)."""
    p = np.asarray(p, dtype=float)
    both = getattr(g.jacobian, "with_matrix", None)
    return both(p) if both is not None else (g.matrix(p), g.jacobian(p))


def christoffel(g: MetricField, p) -> Array:
    """Connection coefficients Gamma[..., k, i, j] of the ambient metric at
    p, or at each row of an (N, d) stack.

    Torsion-free by construction (symmetric in i, j).  Raises
    SingularMetricError when the ambient matrix is numerically degenerate
    at some point (``solve_metric``).
    """
    G, d = metric_and_jacobian(g, p)
    n = G.shape[-1]
    # lowered coefficients: 0.5 * (d_i g_lj + d_j g_li - d_l g_ij)
    low = 0.5 * (
        np.einsum("...ilj->...lij", d) + np.einsum("...jli->...lij", d) - d
    )
    return solve_metric(G, low.reshape(G.shape[:-1] + (n * n,))).reshape(G.shape[:-1] + (n, n))


def apply_christoffel(gamma: Array, v: Array, w: Array) -> Array:
    """Gamma(v, w) over the leading axes: at one point, or row by row for
    stacks, with one Gamma or one vector broadcast over the rows."""
    return np.einsum("...kij,...i,...j->...k", gamma, v, w)


def metric_orthogonal_project(g: MetricField, p: Array, u: Array) -> Array:
    """Project an ambient vector g-orthogonally onto the tangent space, at
    one point or row by row over the leading axes: (N, d) stacks of
    points and vectors, or one point and a stack of vectors."""
    M = g.manifold
    if M.constraint is None:
        return np.array(u, dtype=float)
    p = np.asarray(p, dtype=float)
    grad = M.constraint_grad(p)
    ginv_grad = np.linalg.solve(g.matrix(p), grad[..., None])[..., 0]
    return u - (inner(u, grad) / inner(grad, ginv_grad))[..., None] * ginv_grad


def covariant_derivative(g: MetricField, X: Callable[[Array], Array], v, p) -> Array:
    """Levi-Civita covariant derivative (∇_v X)(p) in ambient coordinates.

    ``v`` is one vector or the rows of a matrix, one derivative each, all
    in one call of each helper.  ``X`` must be evaluable in a
    neighborhood of the manifold; it goes through ``as_evaluator``, so a
    single-point callable will do.  For constrained manifolds the ambient
    result is projected g-orthogonally onto the tangent space.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return np.zeros(v.shape)
    V = np.atleast_2d(v)
    X = as_evaluator(X)
    amb = directional_diff(X, p, V) + apply_christoffel(christoffel(g, p), V, X(p))
    return metric_orthogonal_project(g, p, amb).reshape(v.shape)


def signature_of_gram(gram: Array) -> tuple:
    """Count (positive, negative) eigenvalues of a symmetric Gram matrix,
    beyond ``SIGNATURE_TOL``."""
    eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return (int(np.sum(eig > SIGNATURE_TOL)), int(np.sum(eig < -SIGNATURE_TOL)))


def tangent_gram(g: MetricField, p: Array) -> Array:
    """Matrix of the metric in a Euclidean-orthonormal tangent basis, at
    one point or at each row of an (N, d) stack."""
    basis = g.manifold.tangent_basis(p)
    return basis @ g.matrix(p) @ np.swapaxes(basis, -1, -2)
