"""Tree-adapted coordinates on configuration space.

For a tree A with r leaves the coordinate system consists of the
translation z_A (the rightmost leaf coordinate), the root difference
x_A = z_{L(t_A)} - z_{R(t_A)}, and one ratio zeta_e per internal edge.
The inverse map is polynomial: z_i = z_A + x_A * Q_i(zeta) with Q_i a
sparse 0/1 polynomial.  Convergence regions are certified by the
sum-of-moduli bound on the factored pair differences
z_i - z_j = x_A * c * zeta^m * (1 + P(zeta)); the certificate is a
sufficient condition (an under-approximation of the true region).
All of it depends on the tree alone: the memoized :func:`a_coordinates`
builds one :class:`CoordSystem` per tree, with its vertex/edge data, the
Q_i and every ordered leaf pair factored, so :class:`CertificateError`
can come only from there, and per-point work reads the stored tails.

Branch convention everywhere: principal logarithm, Arg in (-pi, pi),
cut along the closed negative real axis.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from opetree.trees import (
    Frozen, Leaf, Node, Tau, Tree, TreeError, doubling, validate_colored, validate_tree
)

CUT_TOL = 1e-14

# Sparse integer polynomials in the edge ratios: {exponent tuple: coeff}.
Poly = dict


class CoordError(ValueError):
    """Degenerate configuration or invalid coordinate request."""


class CertificateError(ValueError):
    """No sum-of-moduli certificate exists for a pair difference."""


def on_cut(z: complex) -> bool:
    """True if z lies on the closed negative real axis (numerically)."""
    return z.real <= 0 and abs(z.imag) <= CUT_TOL * (1 + abs(z.real))


class FactoredDifference(Frozen):
    """z_i - z_j = x_A * sign * zeta^monomial * (1 + tail)."""

    __slots__ = _fields = ("i", "j", "monomial", "sign", "tail")


class CoordSystem(Frozen):
    """A-coordinates of a tree with r >= 2 leaves.  Internal vertices are named
    by their path from the root ('l'/'r' steps), since structurally equal
    subtrees may repeat; ``edges`` are the internal edges in pre-order, named by
    their lower vertex d(e), with upper vertex u(e) = ``e[:-1]``.
    ``left_leaf``/``right_leaf`` give L(v) and R(v), the rightmost leaf below
    v's left child and below v.  ``q_polys`` maps each leaf label to its Poly
    Q_i, ``pairs`` each ordered pair (i, j) to its FactoredDifference."""

    __slots__ = _fields = ("tree", "r", "edges", "left_leaf", "right_leaf", "q_polys", "pairs")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def var_names(self, conjugate: bool = False) -> dict:
        """Series variable names: x_A, z_A and one name per edge ratio."""
        suf = "c" if conjugate else ""
        names = {"x": "xA" + suf, "z": "zA" + suf}
        names["zeta"] = tuple(f"ze{k}{suf}" for k in range(self.n_edges))
        return names

    def describe(self) -> dict:
        """Human-readable coordinate functions, for reports and the CLI."""
        ll, rl = self.left_leaf, self.right_leaf
        out = {"zA": f"z{rl[()]}", "xA": f"z{ll[()]} - z{rl[()]}"}
        for k, e in enumerate(self.edges):
            out[f"ze{k}"] = f"(z{ll[e]} - z{rl[e]}) / (z{ll[e[:-1]]} - z{rl[e[:-1]]})"
        return out


class CoordValues(Frozen):
    """Numeric A-coordinate values at a configuration point."""

    __slots__ = _fields = ("x", "z", "zeta")

    def as_dict(self, names: Mapping) -> dict:
        vals = {names["x"]: self.x, names["z"]: self.z}
        for name, value in zip(names["zeta"], self.zeta):
            vals[name] = value
        return vals


@lru_cache(maxsize=4096)
def a_coordinates(a: Tree) -> CoordSystem:
    """Build the A-coordinate system of a tree with r >= 2 leaves; memoized,
    as trees are immutable.  Raises :class:`CertificateError` if a leaf pair
    does not factor."""
    r = validate_tree(a)
    if r < 2:
        raise TreeError(f"tree metadata needs r >= 2, got r = {r}")
    edges, left_leaf, right_leaf, leaf_path = [], {}, {}, {}

    def walk(x, path):
        if isinstance(x, Leaf):
            leaf_path[x.label] = path
            return x.label
        if path:
            edges.append(path)
        lo, hi = walk(x.left, path + ("l",)), walk(x.right, path + ("r",))
        left_leaf[path], right_leaf[path] = lo, hi
        return hi

    walk(a, ())
    # Q_i: a term per left step on leaf i's root path, the product of zeta_e
    # over the edges above that step
    q_polys = {
        label: {
            tuple(int(len(e) <= cut and path[: len(e)] == e) for e in edges): 1
            for cut, step in enumerate(path)
            if step == "l"
        }
        for label, path in leaf_path.items()
    }
    labels = range(1, r + 1)
    pairs = {(i, j): _factor_pair(q_polys, i, j) for i in labels for j in labels if i != j}
    return CoordSystem(a, r, tuple(edges), left_leaf, right_leaf, q_polys, pairs)


def psi(a: Tree | CoordSystem, point: Sequence[complex]) -> CoordValues:
    """Evaluate the A-coordinates at a configuration point."""
    cs = a if isinstance(a, CoordSystem) else a_coordinates(a)
    z = [complex(w) for w in point]
    if len(z) != cs.r:
        raise CoordError(f"expected {cs.r} coordinates, got {len(z)}")
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if z[i] == z[j]:
                raise CoordError(f"coincident points z{i+1} = z{j+1}")
    ll, rl = cs.left_leaf, cs.right_leaf

    def vertex_value(v):
        return z[ll[v] - 1] - z[rl[v] - 1]

    zetas = tuple(vertex_value(e) / vertex_value(e[:-1]) for e in cs.edges)
    return CoordValues(vertex_value(()), z[rl[()] - 1], zetas)


def eval_poly(poly: Poly, zeta: Sequence[complex]) -> complex:
    total = 0j
    for exps, coeff in poly.items():
        term = complex(coeff)
        for e, k in zip(zeta, exps):
            if k:
                term *= e**k
        total += term
    return total


def psi_inverse(cs: CoordSystem, cv: CoordValues) -> tuple:
    """Polynomial inverse: z_i = z_A + x_A * Q_i(zeta)."""
    return tuple(
        cv.z + cv.x * eval_poly(cs.q_polys[label], cv.zeta)
        for label in range(1, cs.r + 1)
    )


def minimal_monomials(monos: list) -> list:
    """The exponent vectors in ``monos`` that no other one divides."""
    return [
        m
        for m in monos
        if not any(o != m and all(a <= b for a, b in zip(o, m)) for o in monos)
    ]


def pair_difference(a: Tree | CoordSystem, i: int, j: int) -> FactoredDifference:
    """Factor z_i - z_j as x_A * c * zeta^m * (1 + P) with c = +-1.

    ``m`` is the unique divisibility-minimal monomial of Q_i - Q_j.  The
    pair was factored once, with its tree, by :func:`a_coordinates`; this
    reads it.
    """
    cs = a if isinstance(a, CoordSystem) else a_coordinates(a)
    if i == j:
        raise CoordError("pair difference needs distinct leaves")
    for lbl in (i, j):
        if lbl not in cs.q_polys:
            raise CoordError(f"no leaf labeled {lbl}")
    return cs.pairs[i, j]


def _factor_pair(q_polys: Mapping, i: int, j: int) -> FactoredDifference:
    """Factor Q_i - Q_j; :class:`CertificateError` if its minimal monomial
    is not unique or its coefficient is not a unit."""
    diff: Poly = dict(q_polys[i])
    for exps, coeff in q_polys[j].items():
        diff[exps] = diff.get(exps, 0) - coeff
        if diff[exps] == 0:
            del diff[exps]
    minimal = minimal_monomials(list(diff))
    if len(minimal) != 1:
        raise CertificateError(
            f"pair ({i},{j}): no unique minimal monomial among {sorted(minimal)}"
        )
    m0 = minimal[0]
    c = diff[m0]
    if abs(c) != 1:
        raise CertificateError(f"pair ({i},{j}): minimal coefficient {c} is not a unit")
    tail: Poly = {}
    for exps, coeff in diff.items():
        if exps == m0:
            continue
        shifted = tuple(e - f for e, f in zip(exps, m0))
        tail[shifted] = coeff * c  # divide by c = +-1
    return FactoredDifference(i, j, m0, c, tail)


class Certificate(Frozen):
    __slots__ = _fields = ("admissible", "margin", "worst_pair")


def _tail_bound(tail: Poly, radii: Sequence[float]) -> float:
    total = 0.0
    for exps, coeff in tail.items():
        term = float(abs(coeff))
        for p, k in zip(radii, exps):
            if k:
                term *= p**k
        total += term
    return total


def admissibility_certificate(a: Tree | CoordSystem, radii: Sequence[float]) -> Certificate:
    """Sufficient admissibility test for the edge radii.

    Admissible when every pair difference's tail satisfies
    sum |coeff| * prod p_e^deg < 1; the margin is 1 minus the worst sum.
    Shrinking any radius preserves admissibility.
    """
    cs = a if isinstance(a, CoordSystem) else a_coordinates(a)
    radii = [float(p) for p in radii]
    if len(radii) != cs.n_edges:
        raise CoordError(f"expected {cs.n_edges} radii, got {len(radii)}")
    if any(p <= 0 for p in radii):
        raise CoordError("radii must be positive")
    worst, worst_pair, pairs = 0.0, None, cs.pairs
    for i in range(1, cs.r + 1):
        for j in range(i + 1, cs.r + 1):
            bound = _tail_bound(pairs[i, j].tail, radii)
            if bound > worst:
                worst, worst_pair = bound, (i, j)
    return Certificate(worst < 1.0, 1.0 - worst, worst_pair)


class RegionMembership(Frozen):
    __slots__ = _fields = ("in_ubar", "in_u", "margin")


def region_membership(a: Tree | CoordSystem, point: Sequence[complex]) -> RegionMembership:
    """Membership in the no-cut region and in the cut region.

    in_ubar: the certificate holds strictly at p_e = |zeta_e| with
    x_A != 0 and all zeta_e != 0.  in_u additionally needs x_A and every
    zeta_e off the cut R_{<=0}.
    """
    cs = a if isinstance(a, CoordSystem) else a_coordinates(a)
    try:
        cv = psi(cs, point)
    except CoordError:
        return RegionMembership(False, False, float("-inf"))
    if cv.x == 0 or any(z == 0 for z in cv.zeta):
        return RegionMembership(False, False, float("-inf"))
    if cs.n_edges == 0:
        return RegionMembership(True, not on_cut(cv.x), 1.0)
    cert = admissibility_certificate(cs, [abs(z) for z in cv.zeta])
    in_ubar = cert.admissible
    in_u = in_ubar and not on_cut(cv.x) and not any(on_cut(z) for z in cv.zeta)
    return RegionMembership(in_ubar, in_u, cert.margin)


# ---------------------------------------------------------------------------
# Upper half-plane points and the doubling embedding


def phi_embedding(point, r: int, s: int) -> tuple:
    """(z_1..z_r, x_1..x_s) -> (z_1, conj z_1, ..., z_r, conj z_r, x_1..x_s)."""
    if len(point) != r + s:
        raise CoordError(f"expected {r + s} coordinates, got {len(point)}")
    out = []
    for k in range(r):
        z = complex(point[k])
        out.extend([z, z.conjugate()])
    for j in range(s):
        out.append(complex(point[r + j]))
    return tuple(out)


def validate_halfplane_point(point, r: int, s: int) -> None:
    """Check bulk points in the open upper half-plane and boundary points
    real, strictly decreasing in label."""
    if len(point) != r + s:
        raise CoordError(f"expected {r + s} coordinates, got {len(point)}")
    for k in range(r):
        if complex(point[k]).imag <= 0:
            raise CoordError(f"bulk point z{k+1} not in the open upper half-plane")
    xs = []
    for j in range(s):
        x = complex(point[r + j])
        if x.imag != 0:
            raise CoordError(f"boundary point x{j+1} is not real")
        xs.append(x.real)
    for j in range(len(xs) - 1):
        if not xs[j] > xs[j + 1]:
            raise CoordError("boundary points must strictly decrease in label")


def region_membership_open(e: Tree, point) -> RegionMembership:
    """Membership of an upper half-plane configuration in the tree region.

    Checks the point (:class:`CoordError` off the half-plane), applies the
    doubling embedding and returns :func:`region_membership` on the
    doubled tree.  A lone boundary point has no coordinates: its region
    is everything, with margin 1.
    """
    r, s, color = validate_colored(e)
    if color != "o":
        raise CoordError("open regions are defined for o-colored trees")
    validate_halfplane_point(point, r, s)
    if 2 * r + s < 2:
        return RegionMembership(True, True, 1.0)
    return region_membership(doubling(e), phi_embedding(point, r, s))


# ---------------------------------------------------------------------------
# Canonical nested base configurations, deep inside the regions


def _place_nested(t, center, radius, shrink, height, out):
    """Nested layout, the one placement behind both base configurations:
    a leaf sits at complex(center, height); a Node places its children at
    center +- radius/2 with the radius scaled by ``shrink``; a Tau block
    puts its closed tree at the common height radius * shrink / 2 with
    real offsets from radius height * shrink."""
    if isinstance(t, Tau):
        height = radius * shrink / 2
        _place_nested(t.child, center, height * shrink, shrink, height, out)
    elif isinstance(t, Node):
        _place_nested(t.left, center + radius / 2, radius * shrink, shrink, height, out)
        _place_nested(t.right, center - radius / 2, radius * shrink, shrink, height, out)
    else:
        out[t.label] = complex(center, height)


def nested_configuration(a: Tree, shrink: float = 0.125) -> tuple:
    """A point deep in the no-cut region: nested real positions, leaf order
    mapped to decreasing real part, block diameters shrinking by ``shrink``
    per level."""
    r, pos = a_coordinates(a).r, {}
    _place_nested(a, 0.0, 1.0, shrink, 0.0, pos)
    return tuple(pos[i] for i in range(1, r + 1))


def nested_configuration_open(e: Tree, shrink: float = 0.125) -> tuple:
    """A point in the leaf-order component of the open tree region.

    Boundary leaves and Tau blocks follow the same nested layout; a Tau
    block places its bulk points at a common height small against the
    block separation, with the closed tree nested in real offsets small
    against the height.
    """
    r, s, color = validate_colored(e)
    if color != "o":
        raise CoordError("open configurations need an o-colored tree")
    pos = {}
    _place_nested(e, 0.0, 1.0, shrink, 0.0, pos)
    return tuple(pos[k] for k in range(1, r + 1)) + tuple(
        pos[r + j].real for j in range(1, s + 1)
    )
