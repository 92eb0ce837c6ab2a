"""The rank-one even unimodular lattice free boson with boundary.

Charges are integer pairs (n, m) in the hyperbolic lattice with Gram
matrix [[0, 1], [1, 0]].  For compactification radius R with R^2
rational, the left/right movers are a = (n/R + mR)/sqrt(2) and
abar = (n/R - mR)/sqrt(2); every pairing the correlators need is a
rational combination of u^2 = 1/(2 R^2), w^2 = R^2/2 and u*w = 1/2, so
all exponents are exact rationals.  Writing R^2 = p/q in lowest terms,
every such exponent has a denominator dividing D = 2pq.  Every phase
(the cocycles epsilon and sigma, the OPE prefactor of a tree and the
inter-region phase predictions; the boundary cocycle eta is identically
1 here, see :class:`BoundaryData`) is an integer k mod 2D with value
exp(i pi k/D); :meth:`NarainModel.phase` is the one place such an
integer becomes a complex number.

Closed-form correlators are products over coordinate pairs with a fixed
branch plan (bulk pairs combined into single-valued factors, all mixed
pairs principal); per-tree expansions apply the series expansion
homomorphism in the (doubled) tree's coordinates and carry the OPE
structure constants of the tree.  The verification suites check the
bootstrap cocycle identities, per-tree convergence to the single
correlator with the predicted inter-region phases, single-valuedness
under numeric loops, the half-loop skew relation, and the certified
convergence regions of the comb trees.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from operator import add, mul

from opetree.coords import (
    CoordError,
    a_coordinates,
    admissibility_certificate,
    nested_configuration,
    nested_configuration_open,
    phi_embedding,
    psi,
    region_membership,
    region_membership_open,
    validate_halfplane_point,
)
from opetree.series import (
    BranchPlan,
    PowerProduct,
    bits_of,
    digit_columns,
    evaluate_series,
    expand_pairs,
    phase_pi,
    prepare_closed,
    values_of,
)
from opetree.trees import (
    ClosedLeaf,
    Node,
    OpenLeaf,
    Record,
    Stored,
    Tau,
    Tree,
    doubling,
    format_tree,
    leaf_order,
    parse_tree,
    require_int,
    validate_colored,
)

Charge = tuple  # (n, m) integer pair


class LatticeError(ValueError):
    """Invalid charge data, nonconservation, or failed construction step."""


# ---------------------------------------------------------------------------
# Lattice and model

def lattice_pairing(alpha: Charge, beta: Charge) -> int:
    """(alpha, beta) in the hyperbolic Gram form [[0,1],[1,0]]."""
    (n, m), (n2, m2) = alpha, beta
    return n * m2 + m * n2


def epsilon_exponent(alpha: Charge, beta: Charge) -> int:
    """epsilon(alpha, beta) = (-1)^e from the bimultiplicative extension of
    the basis table (1 for k <= l, (-1)^{(e_k,e_l)} for k > l)."""
    (_, m), (n2, _) = alpha, beta
    return (m * n2) % 2


def epsilon_cocycle(alpha: Charge, beta: Charge) -> int:
    return -1 if epsilon_exponent(alpha, beta) else 1


class NarainModel(Stored):
    """Compactified free boson on the (1,1) lattice, R^2 = p/q rational.

    ``D = 2pq`` clears the denominator of every frame product, so
    ``D * frame_product`` is the integer bilinear form
    :meth:`frame_product_num`.  A model keys the closed-form memos, so it
    stores its hash.  ``_phases`` is not a field: equality, hash, repr and
    pickling see only ``r_squared``, and a copy starts with an empty table.
    """

    __slots__ = ("r_squared", "D", "_gram_num", "_phases", "_key", "_hash")
    _fields = ("r_squared",)

    def __init__(self, r_squared: Fraction):
        rsq = Fraction(r_squared)
        if rsq <= 0:
            raise LatticeError("R^2 must be a positive rational")
        p, q = rsq.numerator, rsq.denominator
        object.__setattr__(self, "r_squared", rsq)
        object.__setattr__(self, "_key", (rsq,))
        object.__setattr__(self, "_hash", hash(self._key))
        object.__setattr__(self, "D", 2 * p * q)
        # D * (u^2, uw, w^2) = (q^2, pq, p^2)
        object.__setattr__(self, "_gram_num", (q * q, p * q, p * p))
        # k mod 2D -> phase(k); D can be in the thousands, so filled on use
        object.__setattr__(self, "_phases", {})

    def frame_product_num(self, v1, v2) -> int:
        """D times the product of two left-mover frame vectors x*u + y*w."""
        (x1, y1), (x2, y2) = v1, v2
        uu, uw, ww = self._gram_num
        return x1 * x2 * uu + y1 * y2 * ww + (x1 * y2 + x2 * y1) * uw

    def frame_product(self, v1, v2) -> Fraction:
        """Product of two left-mover frame vectors x*u + y*w, using
        u^2 = 1/(2R^2), w^2 = R^2/2, uw = 1/2."""
        return Fraction(self.frame_product_num(v1, v2), self.D)

    def phase(self, k: int) -> complex:
        """exp(i pi k/D): the one conversion of an integer phase to a
        complex number.

        The value depends only on k mod 2D, so it is read from a per-model
        table filled on first use: entry k % 2D is ``phase_pi(Fraction(k %
        2D, D))``, bit for bit what ``phase_pi(Fraction(k, D))`` returns,
        since phase_pi reduces its argument mod 2 first.
        """
        k %= 2 * self.D
        try:
            return self._phases[k]
        except KeyError:
            value = self._phases[k] = phase_pi(Fraction(k, self.D))
            return value

    @staticmethod
    def a_vec(alpha: Charge):
        return (alpha[0], alpha[1])

    @staticmethod
    def abar_vec(alpha: Charge):
        return (alpha[0], -alpha[1])

    def aa(self, alpha, beta) -> Fraction:
        return self.frame_product(self.a_vec(alpha), self.a_vec(beta))

    def abarbar(self, alpha, beta) -> Fraction:
        return self.frame_product(self.abar_vec(alpha), self.abar_vec(beta))


# ---------------------------------------------------------------------------
# Boundary data: reflection, boundary charge map, cocycles


class BoundaryData(Record):
    """Reflection sign, boundary charges, and the cocycle sigma.

    Every phase is an integer k mod 2D, value ``model.phase(k)`` =
    exp(i pi k/D) with D = model.D, read from the model's table of at
    most 2D entries; the ``*_num`` methods return k.  sigma solves
    sigma(x + g) = sigma(x) sigma(g) / eps'(x, g) with sigma(0) =
    sigma(e1) = sigma(e2) = 1; eps' is bilinear mod 2D, so that is the
    quadratic form of :meth:`sigma_num`.  sigma_table holds explicit
    overrides, keyed by int pairs, only (a :meth:`perturbed` control's);
    it is empty after :func:`build_boundary`.  ``sigma_exponent``, the
    Fraction k/D, is kept only for perfbench's tracer.  The boundary
    cocycle eta, built from the commutator map on a basis of the boundary
    charge group, is identically 1: that group is rank one, so the basis
    table has no off-diagonal entry.  No method carries eta.
    """

    _fields = ("model", "rho", "sigma_table")
    _defaults = {"sigma_table": None}  # a new empty table

    def __post_init__(self):
        if self.rho not in (1, -1):
            raise LatticeError("reflection sign must be +1 or -1")
        if self.sigma_table is None:
            self.sigma_table = {}
        # mixed_correlator's memo, not a field; sigma_table is not changed
        # after construction, so no entry goes stale; copies start empty
        self.prepare_mixed = lru_cache(maxsize=4096)(partial(_prepare_mixed, self))
        e1, e2 = (1, 0), (0, 1)  # sigma's closed form reads (M11, M21, M22)
        self._sigma_form = tuple(self.epsilon_prime_num(a, b) for a, b in ((e1, e1), (e2, e1), (e2, e2)))

    def __reduce__(self):  # a copy or an unpickled one builds its own memo
        return type(self), self._astuple()

    def t_coeff(self, alpha: Charge) -> int:
        """Boundary charge of alpha in units of the group generator."""
        n, m = alpha
        return n if self.rho == 1 else m

    @property
    def kernel_generator(self) -> Charge:
        return (0, 1) if self.rho == 1 else (1, 0)

    @property
    def m_generator(self) -> Charge:
        return (1, 0) if self.rho == 1 else (0, 1)

    def t_vec(self, k: int):
        """t = a + rho*abar of k times the group generator, as a frame vector."""
        return (2 * k, 0) if self.rho == 1 else (0, 2 * k)

    def phi_abar_vec(self, alpha: Charge):
        """The reflected right mover phi(pbar alpha) as a left frame vector."""
        n, m = alpha
        return (self.rho * n, -self.rho * m)

    def alpha_phi_beta(self, alpha: Charge, beta: Charge) -> int:
        """(alpha, phi beta) in the lattice form: the frame products
        (a, phi pbar beta) - (abar, rho a_beta), whose u^2 and w^2 terms
        cancel, leaving rho (m n2 - n m2)."""
        (n, m), (n2, m2) = alpha, beta
        return self.rho * (m * n2 - n * m2)

    def commutator_num(self, alpha: Charge, beta: Charge) -> int:
        """c(alpha,beta) = exp(-i pi ((alpha,beta) + (alpha, phi beta))),
        not reduced mod 2D."""
        return -(
            lattice_pairing(alpha, beta) + self.alpha_phi_beta(alpha, beta)
        ) * self.model.D

    def epsilon_prime_num(self, alpha: Charge, beta: Charge) -> int:
        """eps' = eps * exp(i pi (phi pbar a, p b)) in [0, 2D).  The general
        eps' also divides by eta(ta, tb), which is 1 here."""
        model = self.model
        frame = model.frame_product_num(self.phi_abar_vec(alpha), model.a_vec(beta))
        return (epsilon_exponent(alpha, beta) * model.D + frame) % (2 * model.D)

    def sigma_num(self, alpha: Charge) -> int:
        """sigma(alpha)'s integer: its override in sigma_table, if any, else
        -(C(n,2) M11 + C(m,2) M22 + n m M21) mod 2D, Mij = eps'(e_i, e_j).
        A non-integral charge raises LatticeError."""
        n, m = alpha = _int_charge(alpha)
        if alpha in self.sigma_table:
            return self.sigma_table[alpha]
        m11, m21, m22 = self._sigma_form
        return -(n * (n - 1) // 2 * m11 + m * (m - 1) // 2 * m22 + n * m * m21) % (2 * self.model.D)

    # Kept only for perfbench's tracer; a benchmark change can drop both together.
    def sigma_exponent(self, alpha: Charge) -> Fraction:
        return Fraction(self.sigma_num(alpha), self.model.D)

    def perturbed(self, alpha: Charge, box: int) -> "BoundaryData":
        """Negative control: a copy whose overrides add sigma(alpha)
        sign-flipped, k + D mod 2D; every other charge keeps its value.
        ``box`` does not change the result (kept for existing callers)."""
        d, alpha = self.model.D, _int_charge(alpha)
        table = {**self.sigma_table, alpha: (self.sigma_num(alpha) + d) % (2 * d)}
        return BoundaryData(self.model, self.rho, table)


def _is_int(k) -> bool:
    """Whether k is a finite number of integral value and not a bool."""
    try:
        return int(k) == k and type(k) is not bool
    except (TypeError, ValueError, OverflowError):
        return False


def _int_charge(alpha, what="charge") -> Charge:
    """A charge (n, m) as ints; anything but a pair of :func:`_is_int`
    numbers raises, never truncates."""
    try:
        n, m = alpha
    except (TypeError, ValueError):  # not a pair
        n = m = None
    if not (_is_int(n) and _is_int(m)):
        raise LatticeError(f"{what} must be an integer pair, got {alpha!r}")
    return int(n), int(m)


def build_boundary(model: NarainModel, rho: int) -> BoundaryData:
    """Construct boundary data for the reflection sign rho.

    sigma's closed form needs eps' symmetric mod 2D.  eps' is bilinear mod
    2D (its eps part (m n2 mod 2) D is congruent to m n2 D, and the
    frame product is integer-bilinear), so one comparison decides it.
    Asymmetry is reported, never patched.
    """
    bd = BoundaryData(model, rho)
    e1, e2 = (1, 0), (0, 1)
    if bd.epsilon_prime_num(e1, e2) != bd.epsilon_prime_num(e2, e1):
        raise LatticeError(f"eps' not symmetric at {e1}, {e2}")
    return bd


# ---------------------------------------------------------------------------
# Verification reports


class VerifyReport(Record):
    _fields = (
        "name", "params", "samples", "max_rel_err", "tolerance", "passed", "runtime", "notes"
    )
    _defaults = {"notes": None}  # a new empty list

    def __post_init__(self):
        if self.notes is None:
            self.notes = []

    def to_obj(self) -> dict:
        return {
            "check": self.name,
            "params": self.params,
            "samples": self.samples,
            "max_rel_err": self.max_rel_err,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "notes": self.notes,
        }

    def text(self) -> str:
        """The report for people; like :meth:`to_obj` it leaves out the
        runtime, so identical checks print identical text."""
        lines = [
            f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
            f"  max_rel_err={self.max_rel_err:.3e}  tol={self.tolerance:.1e}"
        ]
        for note in self.notes:
            lines.append(f"    - {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Closed-form correlators


def bulk_correlator(model: NarainModel, dual: Charge, insertions) -> complex:
    """Sphere correlator of lattice vertex operators.

    epsilon prefactor over the insertion order times the single-valued
    pair product |z_ij|^{2 abar_i abar_j} z_ij^{(alpha_i, alpha_j)};
    zero unless the charges sum to the dual charge.  A charge or dual
    that is not an integer pair raises LatticeError.
    """
    charges = [_int_charge(a) for a, _ in insertions]
    points = [complex(z) for _, z in insertions]
    if (sum(n for n, _ in charges), sum(m for _, m in charges)) != _int_charge(dual, "dual charge"):
        return 0j
    _check_distinct(points)
    value = 1.0 + 0j
    for i, j in itertools.combinations(range(len(charges)), 2):
        v = points[i] - points[j]
        bb = model.abarbar(charges[i], charges[j])
        value *= abs(v) ** float(2 * bb) * v ** lattice_pairing(charges[i], charges[j])
    return model.phase(_epsilon_num(model, charges)) * value


def _epsilon_num(model: NarainModel, charges) -> int:
    """The epsilon prefactor prod_{i<j} eps(c_i, c_j) of charges in
    insertion order, as an integer: (sum of the exponents mod 2) D."""
    nu = sum(epsilon_exponent(a, b) for a, b in itertools.combinations(charges, 2))
    return (nu % 2) * model.D


def _check_model(model: NarainModel, bd: BoundaryData | None) -> None:
    """LatticeError unless ``bd``, if given, was built for ``model``."""
    if bd is not None and bd.model != model:
        raise LatticeError(f"boundary data for R^2 = {bd.model.r_squared}, not {model.r_squared}")


def _check_distinct(points) -> None:
    if len(set(points)) != len(points):
        raise LatticeError("coincident insertion points")


def _int_charges(charges) -> list:
    """Boundary charges as ints; one that is not :func:`_is_int` raises, never truncates."""
    if not all(map(_is_int, charges)):
        raise LatticeError(f"boundary charges must be integers, got {list(charges)}")
    return [int(k) for k in charges]


def reference_tree(r: int, s: int) -> Tree:
    """Right comb tau(c1) o (tau(c2) o (... o (o_{r+1} o ...)))."""
    items = [Tau(ClosedLeaf(k)) for k in range(1, r + 1)]
    items += [OpenLeaf(r + j) for j in range(1, s + 1)]
    if not items:
        raise LatticeError("need at least one insertion")
    out = items[-1]
    for item in reversed(items[:-1]):
        out = Node(item, out)
    return out


def ope_prefactor_num(bd: BoundaryData, e: Tree, bulk_charges) -> int:
    """Phase of the product of OPE structure constants over the o-colored
    tree, as an integer in [0, 2D): epsilon at closed vertices, sigma at
    Tau (an open vertex's eta is 1 here).  epsilon is bimultiplicative
    mod 2 and each leaf pair of a Tau block meets at one closed vertex, so
    a block adds sigma(its total) plus :func:`_epsilon_num` of its charges
    in leaf order.  A tree that is not o-colored raises LatticeError."""
    model = bd.model

    def block(t):
        # a Tau's closed subtree: its charges in leaf order
        if isinstance(t, ClosedLeaf):
            return [tuple(bulk_charges[t.label - 1])]
        if isinstance(t, Node):
            return block(t.left) + block(t.right)
        raise LatticeError("Tau over a non-closed subtree")

    def walk(t):
        if isinstance(t, OpenLeaf):
            return 0
        if isinstance(t, Node):
            return walk(t.left) + walk(t.right)
        if isinstance(t, Tau):
            charges = block(t.child)
            total = (sum(n for n, _ in charges), sum(m for _, m in charges))
            return bd.sigma_num(total) + _epsilon_num(model, charges)
        raise LatticeError("correlator tree must be o-colored")

    return walk(e) % (2 * model.D)


def _doubled_charge_frames(bd: BoundaryData, bulk_charges, bdry_charges) -> dict:
    """Left frame vectors of the doubled chiral charges by doubled label."""
    model = bd.model
    r = len(bulk_charges)
    frames = {}
    for i, alpha in enumerate(bulk_charges, start=1):
        frames[2 * i - 1] = model.a_vec(alpha)
        frames[2 * i] = bd.phi_abar_vec(alpha)
    for j, k in enumerate(_int_charges(bdry_charges), start=1):
        frames[2 * r + j] = bd.t_vec(k)
    return frames


def mixed_power_product(bd: BoundaryData, bulk_charges, bdry_charges):
    """Doubled pair product and branch plan, in doubled labels."""
    r, s = len(bulk_charges), len(bdry_charges)
    frames = _doubled_charge_frames(bd, bulk_charges, bdry_charges)
    pairs = itertools.combinations(range(1, 2 * r + s + 1), 2)
    # the nonzero frame products, in pair order
    diffs = tuple(((k, l), q) for k, l in pairs if (q := bd.model.frame_product(frames[k], frames[l])))
    index = {pair: idx for idx, (pair, _) in enumerate(diffs)}
    paired = []
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            a = index.get((2 * i - 1, 2 * j - 1))
            b = index.get((2 * i, 2 * j))
            if a is not None and b is not None:
                paired.append((a, b))
    return PowerProduct(diffs=diffs), BranchPlan(paired=tuple(paired))


def mixed_correlator(
    model: NarainModel, bd: BoundaryData, dual: int, bulk_insertions, bdry_insertions
) -> complex:
    """Upper half-plane correlator with boundary, in closed form.

    Normalized by the OPE prefactor of the right-comb reference tree;
    the value is the doubled pair product under the fixed branch plan.
    Zero unless the boundary charge is conserved; a non-integral dual
    raises.  The product under its checked plan (:func:`prepare_closed`)
    and the prefactor phase are built once per charge set and dual, by
    ``bd.prepare_mixed``; each call evaluates them at its point.
    """
    bulk_charges = tuple(tuple(a) for a, _ in bulk_insertions)
    bdry_charges = tuple(k for k, _ in bdry_insertions)
    zs = [complex(z) for _, z in bulk_insertions]
    xs = [complex(x) for _, x in bdry_insertions]
    validate_halfplane_point(zs + xs, len(zs), len(xs))
    _check_distinct(zs)
    if (prepared := bd.prepare_mixed(model, bulk_charges, bdry_charges, dual)) is None:
        return 0j
    closed, phase = prepared
    return phase * closed(phi_embedding(zs + xs, len(zs), len(xs)))


def _prepare_mixed(bd, model, bulk_charges, bdry_charges, dual):
    """:func:`mixed_correlator`'s closed form and prefactor phase, or None
    if the boundary charge is not conserved; memoized as ``bd.prepare_mixed``
    (4096 entries).  The charges and the dual must be integers."""
    _check_model(model, bd)
    bulk_charges = tuple(map(_int_charge, bulk_charges))
    bdry_charges = _int_charges(bdry_charges)
    if not _is_int(dual):
        raise LatticeError(f"dual charge must be an integer, got {dual!r}")
    if sum(bd.t_coeff(a) for a in bulk_charges) + sum(bdry_charges) != dual:
        return None
    product, plan = mixed_power_product(bd, bulk_charges, bdry_charges)
    pref = ope_prefactor_num(bd, reference_tree(len(bulk_charges), len(bdry_charges)), bulk_charges)
    return prepare_closed(product, plan), model.phase(pref)


# ---------------------------------------------------------------------------
# Per-tree expansions


@lru_cache(maxsize=4096)
def _coordinate_values(tree, colored, bits) -> dict:
    """:meth:`TreeExpansion.coordinate_values` at the point with these bits
    (:func:`bits_of`, which tells -0.0 from +0.0, as cmath.log does)."""
    cs, zs = a_coordinates(tree), values_of(bits)
    vals = psi(cs, zs).as_dict(cs.var_names())
    if not colored:
        cvb = psi(cs, [z.conjugate() for z in zs])
        vals.update(cvb.as_dict(cs.var_names(conjugate=True)))
    return vals


class TreeExpansion(Record):
    """A per-tree OPE expansion: the raw series in ``coords``, the (doubled)
    tree's coordinate system, and the tree's OPE prefactor, kept separate
    so region phases can be measured against the raw expansion.  The
    prefactor is the integer phase ``prefactor_num`` mod 2D of ``model``;
    its complex value ``prefactor`` is computed once.

    The series' digit blocks (``digit_columns``) are computed once too, on
    the first evaluation; every later one reads them instead of decoding
    the keys again.  For a plain tree ``series`` is the product of the z
    and z-bar expansions held in ``factors``, and the blocks are read off
    those two factors, one per z term, so the product's keys are never
    decoded; the factors are then dropped (``factors`` reads ()).  The
    z-bar columns of the last few z-bar key sequences are memoized, so
    another charge set of the tree at the same order mostly reuses them.  A
    colored tree's series is its one expansion, and its keys are decoded.
    ``series`` is therefore not changed after construction."""

    _fields = ("model", "tree", "coords", "series", "prefactor_num", "colored", "factors")
    _defaults = {"factors": ()}

    @cached_property
    def prefactor(self) -> complex:
        return self.model.phase(self.prefactor_num)

    @cached_property
    def columns(self) -> tuple:
        columns = digit_columns(self.series, self.factors)
        self.factors = ()  # the blocks keep what they read of them
        return columns

    def coordinate_values(self, point) -> dict:
        """Series variable values; ``point`` uses doubled coordinates for a
        colored tree and plain bulk coordinates otherwise.  Computed once
        per (tree, colored, point bits) and returned as a new dict."""
        bits = bits_of([complex(z) for z in point])
        return dict(_coordinate_values(self.coords.tree, self.colored, bits))

    def evaluate_raw(self, point) -> complex:
        return evaluate_series(self.series, self.coordinate_values(point), self.columns)

    def evaluate(self, point) -> complex:
        return self.prefactor * self.evaluate_raw(point)


@lru_cache(maxsize=4096)
def expansion_plan(e: Tree) -> tuple:
    """What :func:`tree_expansion` needs of a tree, whatever the charges and
    the order: ``validate_colored``'s (r, s, color), the coordinate system
    (None for a c-colored tree or fewer than two leaves to expand), and
    the leaf-ordered pairs and leaf order of its tree (the doubled one for
    an o-colored tree).  A plan holds no series."""
    r, s, color = validate_colored(e)
    colored = color == "o"
    if color == "c" or (2 * r + s if colored else r) < 2:
        return r, s, color, None, (), ()
    cs = a_coordinates(doubling(e) if colored else e)
    leaves = tuple(leaf_order(cs.tree))
    return r, s, color, cs, tuple(itertools.combinations(leaves, 2)), leaves


def tree_expansion(
    model: NarainModel,
    e: Tree,
    charges,
    order: int,
    bd: BoundaryData | None = None,
    bdry_charges=(),
) -> TreeExpansion:
    """Expand the correlator's pair product in the tree's coordinates.

    Factors are oriented by the tree's left-to-right leaf order, so each
    leading sign is +1 and every monomial carries the principal branch
    of the tree coordinates (in particular the bulk-pair separations
    2i Im z evaluate with the branch exp(i pi/2)).  For a plain tree the
    left-mover part expands in the tree coordinates and the right-mover
    part in their conjugates; for an o-colored tree the doubled tree is
    used.  The tree's OPE structure constants form the prefactor.  A
    non-integral charge, a c-colored tree, an o-colored tree without
    boundary data, boundary data of another model and charge counts that
    do not match the tree (boundary charges on a plain tree included)
    raise LatticeError.  The tree's :func:`expansion_plan` is made once; a
    call computes only each pair's exponent, the integer
    ``frame_product_num`` over ``model.D`` (0 leaves the pair out), and the
    prefactor.
    """
    _check_model(model, bd)
    charges = [_int_charge(a) for a in charges]
    r, s, color, cs, pairs, leaves = expansion_plan(e)
    colored = color == "o"
    if color == "c":
        raise LatticeError("expansion tree must be plain or o-colored")
    if colored and bd is None:
        raise LatticeError("colored expansion needs boundary data")
    if (2 * r + s if colored else r) == 1:
        has = "doubles to" if colored else "has"
        raise LatticeError(f"tree {format_tree(e)} {has} one leaf: no pair to expand")
    if len(charges) != r or len(bdry_charges) != s:
        raise LatticeError("charge count mismatch")
    if cs is None:  # EMPTY: raises as it has no coordinates
        a_coordinates(e)
    if colored:  # one part: the doubled frames
        parts = [(_doubled_charge_frames(bd, charges, bdry_charges), False)]
        pref = ope_prefactor_num(bd, e, charges)
    else:  # left movers in the tree coordinates, right movers in their conjugates
        parts = [
            ({i: vec(a) for i, a in enumerate(charges, start=1)}, conjugate)
            for vec, conjugate in ((model.a_vec, False), (model.abar_vec, True))
        ]
        pref = _epsilon_num(model, [charges[k - 1] for k in leaves])  # cs.tree is e
    num = model.frame_product_num
    expanded = [
        expand_pairs(cs, [(k, l, q) for k, l in pairs if (q := num(frames[k], frames[l]))], model.D, order, conjugate)
        for frames, conjugate in parts
    ]
    negative = [pair for ex in expanded for pair in ex.negative_pairs]
    if negative:
        raise LatticeError(f"leaf-ordered factor with negative leading sign: {negative}")
    factors = tuple(ex.series for ex in expanded)
    return TreeExpansion(model, e, cs, reduce(mul, factors), pref, colored, () if colored else factors)


# ---------------------------------------------------------------------------
# Bootstrap verification


def _phase_error(model: NarainModel, k1: int, k2: int) -> float:
    """|exp(i pi k1/D) - exp(i pi k2/D)| in floating point."""
    return abs(model.phase(k1) - model.phase(k2))


def bootstrap_check(
    model: NarainModel, bd: BoundaryData, box: int, tol: float = 1e-12
) -> VerifyReport:
    """Check the cocycle identities.

    (1) sigma(0) = 1;
    (2) eps(a,b) sigma(a+b) exp(i pi (phi pbar a, p b)) = sigma(a) sigma(b);
    (3) 1 = c(a,b) = exp(-i pi ((a,b) + (a, phi b)));
    plus the kernel property c(a,b) = 1 for a in ker t.  In general (2)
    has eta(ta,tb) on its right and (3) reads eta(ta,tb) eta(tb,ta)^{-1}
    = c(a,b); eta is 1 for the rank-one boundary charge group (see
    :class:`BoundaryData`), so (3) and the kernel property compare c's
    exponent with 0.

    c's exponent is an integer bilinear form, so it vanishes mod 2D on
    all pairs iff on the four basis pairs, and on ker t iff at
    (kernel_generator, e_j): (3) and the kernel property read those, for
    every charge.  (2) is compared as integers mod 2D; only a pair that
    differs is evaluated in floating point.  With sigma = Q + Delta, Q the
    closed form and Delta zero off O = sigma_table, (2)'s exponent is
    B(a, b) + Delta(a+b) - Delta(a) - Delta(b), B(a, b) = eps'(a, b) +
    Q(a+b) - Q(a) - Q(b).  C(n+n2, 2) - C(n, 2) - C(n2, 2) = n n2 exactly,
    so B is integer-bilinear mod 2D, and by the definition of Mij it is 0
    on the basis pairs except (e1, e2), where it is 0 iff eps' is
    symmetric.  So (2) can fail only where a, b or a + b is in O, and
    only those box pairs are read (none without overrides, whatever the
    box), unless eps' is asymmetric: then every box pair is.  Their sweep
    reads eps' on the four basis pairs (it is bilinear mod 2D, see
    :func:`build_boundary`), sigma once per distinct charge, and one float
    error per distinct residue pair that differs.  The verdict and every
    error are the full sweep's, bit for bit.  A ``box`` that is not an
    int >= 0 raises :class:`LatticeError`.
    """
    if require_int(box, "box", LatticeError) < 0:
        raise LatticeError(f"box must be >= 0, got {box}")
    t0 = time.perf_counter()
    _check_model(model, bd)
    eps_prime, two_d = bd.epsilon_prime_num, 2 * model.D
    e1, e2 = basis = ((1, 0), (0, 1))
    # (3) and the kernel property on the generators; phase error 0 iff c = 0 mod 2D
    comm = {(a, b): _phase_error(model, 0, bd.commutator_num(a, b)) for a in basis for b in basis}
    kernel_worst = max(comm[bd.kernel_generator, b] for b in basis)
    sigma = {(0, 0): bd.sigma_num((0, 0))}  # each charge's sigma, read once
    worst = max(_phase_error(model, sigma[0, 0], 0), *comm.values())
    symmetric = eps_prime(e1, e2) == eps_prime(e2, e1)
    if bd.sigma_table or not symmetric:  # sweep the box pairs (a, b) on which (2) can fail
        span = range(-box, box + 1)
        charges = [(n, m) for n in span for m in span]
        pairs = itertools.product(charges, repeat=2)
        if symmetric:  # (c, x) and (x, c) for c in O inside the box, (x, c - x) for c - x inside it
            pairs = [p for c in bd.sigma_table if max(map(abs, c)) <= box for x in charges for p in ((c, x), (x, c))]
            pairs += [(x, y) for c in bd.sigma_table for x in charges
                      if max(map(abs, y := (c[0] - x[0], c[1] - x[1]))) <= box]
        (m11, m12), (m21, m22) = [[eps_prime(a, b) for b in basis] for a in basis]  # eps'(e_i, e_j)
        triples = [(a, b, (a[0] + b[0], a[1] + b[1])) for a, b in pairs]
        sigma.update((c, bd.sigma_num(c)) for c in set(itertools.chain.from_iterable(triples)) - sigma.keys())
        # (2)'s two sides mod 2D; phase() reads k mod 2D, and max ignores order
        residues = {
            ((n * (m11 * n2 + m12 * m2) + m * (m21 * n2 + m22 * m2) + sigma[s]) % two_d, (sigma[a] + sigma[b]) % two_d)
            for a, b, s in triples
            for (n, m), (n2, m2) in ((a, b),)
        }
        worst = max([worst] + [_phase_error(model, lhs, rhs) for lhs, rhs in residues if lhs != rhs])
    return VerifyReport(
        name="bootstrap",
        params={"R^2": str(model.r_squared), "rho": bd.rho, "box": box},
        samples=[{"worst_identity_error": worst, "kernel_error": kernel_worst}],
        max_rel_err=worst,
        tolerance=tol,
        passed=worst <= tol,
        runtime=time.perf_counter() - t0,
        notes=[
            f"kernel generator {bd.kernel_generator}, "
            f"charge group generated by t{bd.m_generator}"
        ],
    )


# ---------------------------------------------------------------------------
# Region samplers


MARGIN_MIN = 0.45  # default certificate margin of a sampled point
SHRINK_RANGE = (0.12, 0.3)  # nesting shrink factor, resampled per point


def _require_count(n, name):
    """LatticeError unless the sample count ``n`` is at least 1."""
    if n < 1:
        raise LatticeError(f"{name} must be at least 1, got {n}")


def _rejection_sample(propose, count, tries, message):
    """``count`` points from ``propose()``, which returns a point or None
    for a rejected proposal, in at most ``tries * count`` proposals."""
    out = []
    attempts = 0
    while len(out) < count and attempts < tries * count:
        attempts += 1
        pt = propose()
        if pt is not None:
            out.append(pt)
    if len(out) < count:
        raise LatticeError(message)
    return out


def _sample_bulk_points(tree, rng, count, margin_min=MARGIN_MIN):
    """Scaled/rotated/jittered copies of the nested base configuration,
    inside the cut region with the requested certificate margin and with
    all tree coordinates (and conjugates) off the cut.  The nesting
    shrink factor is resampled per point so depths spread from near the
    margin up to very deep."""
    cs = a_coordinates(tree)

    def propose():
        base = nested_configuration(tree, shrink=rng.uniform(*SHRINK_RANGE))
        spread = {
            k: min(abs(base[k] - base[j]) for j in range(len(base)) if j != k)
            for k in range(len(base))
        }
        shift = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rot = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        mag = rng.uniform(0.5, 2.0)
        pt = tuple(
            mag
            * rot
            * (
                base[k]
                + complex(rng.gauss(0, 0.05), rng.gauss(0, 0.05)) * spread[k]
            )
            + shift
            for k in range(len(base))
        )
        # in_u: x_A and every zeta_e off the cut, so their conjugates too
        memb = region_membership(cs, pt)
        if not memb.in_u or memb.margin < margin_min:
            return None
        return pt

    return _rejection_sample(
        propose, count, 500, "bulk sampler failed to reach the requested margin"
    )


def _sample_open_points(e, rng, count, margin_min=MARGIN_MIN):
    """Jittered nested configurations in the leaf-order component of the
    open tree region, with per-point nesting depth."""
    r, s, _ = validate_colored(e)

    def propose():
        base = nested_configuration_open(e, shrink=rng.uniform(*SHRINK_RANGE))
        heights = [complex(base[k]).imag for k in range(r)]
        gaps = []
        for k in range(r + s):
            others = [
                abs(complex(base[k]) - complex(base[j]))
                for j in range(r + s)
                if j != k
            ]
            gaps.append(min(others) if others else 1.0)
        shift = rng.uniform(-1.0, 1.0)
        mag = rng.uniform(0.6, 1.8)
        pt = []
        for k in range(r + s):
            b = complex(base[k])
            dre = rng.gauss(0, 0.08) * gaps[k]
            if k < r:
                dim = rng.gauss(0, 0.15) * heights[k]
                im = mag * (b.imag + dim)
                if im <= 0:
                    return None
                pt.append(complex(mag * (b.real + dre) + shift, im))
            else:
                pt.append(complex(mag * (b.real + dre) + shift, 0.0))
        try:
            memb = region_membership_open(e, pt)
        except CoordError:
            return None
        if not memb.in_u or memb.margin < margin_min:
            return None
        return tuple(pt)

    return _rejection_sample(
        propose, count, 1000, "open-region sampler failed; loosen the margin"
    )


# ---------------------------------------------------------------------------
# Consistency of per-tree expansions with the closed forms


PHASE_TOL = 1e-10  # inter-region phase tolerance


def _sweep_colored(trees) -> bool:
    """Whether the trees of a sweep are colored, read from the first;
    LatticeError if there are none."""
    if not trees:
        raise LatticeError("no trees to compare")
    return validate_colored(trees[0])[2] != "plain"


def consistency_sweep(model, trees, charge_sets, order, points, bases, bd=None) -> list:
    """Tree expansions against the closed form, for many charge sets on
    shared points.

    ``charge_sets`` lists ``(bulk charges, boundary charges)`` pairs;
    ``points[t]`` and ``bases[t]`` are tree t's sample points and base
    point.  The result holds, per charge set, ``(errors, measured,
    predicted)``: each tree's relative errors at its points (expansion
    with its OPE prefactor against the closed form), the inter-region
    phases measured at the base points (closed form over raw expansion,
    tree t over tree 0, for t >= 1), and the phases that the trees' OPE
    prefactors predict.  An empty tree list, or one that is not matched by
    one point list and one base point per tree, raises LatticeError.
    """
    colored = _sweep_colored(trees)
    if colored and bd is None:
        raise LatticeError("colored expansion needs boundary data")
    _check_model(model, bd)
    if not len(trees) == len(points) == len(bases):
        raise LatticeError(
            f"{len(trees)} trees need as many point lists and base points, "
            f"got {len(points)} and {len(bases)}"
        )
    out = []
    for charges, bdry in charge_sets:
        charges = [tuple(a) for a in charges]
        r, s = len(charges), len(bdry)
        if colored:
            dual = sum(bd.t_coeff(a) for a in charges) + sum(_int_charges(bdry))
        else:
            dual = (sum(n for n, _ in charges), sum(m for _, m in charges))

        def closed(pt):
            if colored:
                bulk, bdry_ins = list(zip(charges, pt[:r])), list(zip(bdry, pt[r:]))
                return mixed_correlator(model, bd, dual, bulk, bdry_ins)
            return bulk_correlator(model, dual, list(zip(charges, pt)))

        def raw(texp, pt):
            return texp.evaluate_raw(phi_embedding(pt, r, s) if colored else pt)

        errors, ratios, nums = [], [], []
        for tree, pts, base in zip(trees, points, bases):
            texp = tree_expansion(model, tree, charges, order, bd=bd, bdry_charges=bdry)
            pre = texp.prefactor
            errs = []
            for pt in pts:
                want = closed(pt)
                errs.append(abs(pre * raw(texp, pt) - want) / max(abs(want), 1e-300))
            errors.append(errs)
            value = raw(texp, base)
            if value == 0:
                raise LatticeError(
                    f"expansion on {format_tree(tree)} vanishes at its base point at order {order}: "
                    "no phase to measure"
                )
            ratios.append(closed(base) / value)
            nums.append(texp.prefactor_num)
        measured = [ratio / ratios[0] for ratio in ratios[1:]]
        out.append((errors, measured, [model.phase(k - nums[0]) for k in nums[1:]]))
    return out


def expansion_consistency_check(
    model: NarainModel,
    trees,
    charges,
    order: int,
    tol: float,
    n_points: int,
    seed: int,
    bd: BoundaryData | None = None,
    bdry_charges=(),
) -> VerifyReport:
    """Per-tree expansions converge to the single correlator.

    For each tree, sampled region points compare the truncated expansion
    (with its OPE prefactor) against the closed form.  Base-point ratios
    between the raw expansions of consecutive trees measure the
    inter-region phases; they must equal the OPE prefactor ratios, which
    for the canonical (1,1) and (2,0) tree pairs are the boundary and
    bulk exchange phase factors.  See :func:`consistency_sweep`.
    """
    _require_count(n_points, "n_points")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    colored = _sweep_colored(trees)
    sample = _sample_open_points if colored else _sample_bulk_points
    base_point = nested_configuration_open if colored else nested_configuration
    points = [sample(tree, rng, n_points) for tree in trees]
    bases = [base_point(tree) for tree in trees]
    ((errors, measured, predicted),) = consistency_sweep(
        model, trees, [(charges, bdry_charges)], order, points, bases, bd
    )
    samples = [
        {
            "tree": format_tree(tree),
            "n_points": len(errs),
            "max_rel_err": max(errs),
            # a left fold: sum() rounds differently from Python 3.12
            "mean_rel_err": reduce(add, errs) / len(errs),
        }
        for tree, errs in zip(trees, errors)
    ]
    phase_errs = [abs(m - p) for m, p in zip(measured, predicted)]
    for entry, m, p, err in zip(samples[1:], measured, predicted, phase_errs):
        entry["phase_measured"] = [m.real, m.imag]
        entry["phase_predicted"] = [p.real, p.imag]
        entry["phase_error"] = err
    worst = max([0.0] + [max(errs) for errs in errors])
    phase_worst = max([0.0] + phase_errs)
    passed = worst <= tol and phase_worst <= PHASE_TOL
    return VerifyReport(
        name="expansion-consistency",
        params={
            "R^2": str(model.r_squared),
            "rho": getattr(bd, "rho", None),
            "charges": [list(a) for a in charges],
            "boundary_charges": [int(k) for k in bdry_charges],
            "order": order,
            "n_points": n_points,
            "seed": seed,
        },
        samples=samples,
        max_rel_err=worst,
        tolerance=tol,
        passed=passed,
        runtime=time.perf_counter() - t0,
        notes=[f"worst inter-region phase error {phase_worst:.3e} (tol {PHASE_TOL:.0e})"],
    )


# ---------------------------------------------------------------------------
# Numeric analytic continuation


def continue_bulk(model: NarainModel, dual, charges, path) -> complex:
    """Continue the bulk correlator along a discretized path of
    configurations, tracking each pair logarithm by principal-log
    increments (valid while single steps stay off the ratio cut).  A
    charge or dual that is not an integer pair raises LatticeError."""
    charges = [_int_charge(a) for a in charges]
    if (sum(n for n, _ in charges), sum(m for _, m in charges)) != _int_charge(dual, "dual charge"):
        return 0j
    pts = [list(map(complex, p)) for p in path]
    total = 0j
    for i, j in itertools.combinations(range(len(charges)), 2):
        log = cmath.log(pts[0][i] - pts[0][j])
        for old, new in zip(pts, pts[1:]):
            log += cmath.log((new[i] - new[j]) / (old[i] - old[j]))
        aa = model.aa(charges[i], charges[j])
        bb = model.abarbar(charges[i], charges[j])
        total += float(aa) * log + float(bb) * log.conjugate()
    return model.phase(_epsilon_num(model, charges)) * cmath.exp(total)


LOOP_SEGMENTS = 64  # steps of a numeric continuation loop


def _loop_path(points, mover: int, around: int, turns: float):
    pts = [complex(z) for z in points]
    center = pts[around]
    offset = pts[mover] - center
    out = []
    for k in range(LOOP_SEGMENTS + 1):
        ang = 2 * math.pi * turns * k / LOOP_SEGMENTS
        cur = list(pts)
        cur[mover] = center + offset * cmath.exp(1j * ang)
        out.append(tuple(cur))
    return out


def _random_loop_sample(rng, count):
    """Distinct points where a full loop of one around another stays clear
    of the remaining points; LatticeError after 1000 rejected proposals."""

    def propose():
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(count)]
        mover, around = rng.sample(range(count), 2)
        radius = abs(pts[mover] - pts[around])
        others = [abs(pts[k] - pts[around]) for k in range(count) if k not in (mover, around)]
        if radius > 0.1 and all(d >= 0.1 and abs(d - radius) >= 0.15 for d in others):
            return tuple(pts), mover, around
        return None

    return _rejection_sample(propose, 1, 1000, "loop sampler found no clear loop")[0]


def single_valuedness_check(
    model: NarainModel, charges, n_samples: int, seed: int, tol: float = 1e-12
) -> VerifyReport:
    """A full numeric loop returns the bulk correlator to its value."""
    _require_count(n_samples, "n_samples")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    charges = [tuple(a) for a in charges]
    if len(charges) < 2:
        raise LatticeError(f"a loop needs at least two charges, got {len(charges)}")
    dual = (sum(n for n, _ in charges), sum(m for _, m in charges))
    worst = 0.0
    samples = []
    for _ in range(n_samples):
        pts, mover, around = _random_loop_sample(rng, len(charges))
        path = _loop_path(pts, mover, around, turns=1.0)
        start = bulk_correlator(model, dual, list(zip(charges, pts)))
        end = continue_bulk(model, dual, charges, path)
        rel = abs(end - start) / max(abs(start), 1e-300)
        worst = max(worst, rel)
        samples.append({"mover": mover + 1, "around": around + 1, "rel_err": rel})
    return VerifyReport(
        name="single-valuedness",
        params={
            "R^2": str(model.r_squared),
            "charges": [list(a) for a in charges],
            "n_samples": n_samples,
            "seed": seed,
        },
        samples=samples,
        max_rel_err=worst,
        tolerance=tol,
        passed=worst <= tol,
        runtime=time.perf_counter() - t0,
    )


def skew_symmetry_check(
    model: NarainModel,
    charge_pairs,
    n_samples: int,
    seed: int,
    tol: float = 1e-10,
) -> VerifyReport:
    """Half-loop continuation reproduces the swapped two-point correlator.

    Rotating z_1 counterclockwise by pi around z_2 continues the
    correlator into the one with swapped insertions; the measured phase
    of the power part is (-1)^{(alpha,beta)}, the epsilon ratio.
    """
    _require_count(n_samples, "n_samples")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    d = model.D
    worst = 0.0
    samples = []
    for alpha, beta in charge_pairs:
        alpha, beta = tuple(alpha), tuple(beta)
        dual = (alpha[0] + beta[0], alpha[1] + beta[1])
        pair_worst = 0.0
        measured = None
        for _ in range(n_samples):
            pts = [
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)
            ]
            if abs(pts[0] - pts[1]) < 0.2:
                continue
            path = _loop_path(pts, 0, 1, turns=0.5)
            end = continue_bulk(model, dual, [alpha, beta], path)
            swapped = path[-1]
            want = bulk_correlator(
                model, dual, [(beta, swapped[1]), (alpha, swapped[0])]
            )
            rel = abs(end - want) / max(abs(want), 1e-300)
            pair_worst = max(pair_worst, rel)
            # power-part continuation phase, epsilon prefactors divided out
            measured = (end / model.phase(_epsilon_num(model, [alpha, beta]))) / (
                want / model.phase(_epsilon_num(model, [beta, alpha]))
            )
            pair_worst = max(
                pair_worst,
                abs(measured - model.phase(lattice_pairing(alpha, beta) * d)),
            )
        worst = max(worst, pair_worst)
        samples.append(
            {
                "alpha": list(alpha),
                "beta": list(beta),
                "epsilon_ratio": epsilon_cocycle(alpha, beta) * epsilon_cocycle(beta, alpha),
                "pairing_parity": lattice_pairing(alpha, beta) % 2,
                "phase_measured": [measured.real, measured.imag]
                if measured is not None
                else None,
                "max_rel_err": pair_worst,
            }
        )
    return VerifyReport(
        name="skew-symmetry",
        params={
            "R^2": str(model.r_squared),
            "n_pairs": len(samples),
            "n_samples": n_samples,
            "seed": seed,
        },
        samples=samples,
        max_rel_err=worst,
        tolerance=tol,
        passed=worst <= tol,
        runtime=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Convergence regions


def regions_check(seed: int, n_points: int) -> VerifyReport:
    """The certificate reduces to the known regions of two comb trees.

    For the comb 1(2(3(45))) a point is in the no-cut region iff its
    distances to z5 strictly decrease along the chain z1, z2, z3, z4;
    ``n_points`` uniform points in the unit square compare the two.  For
    the two-comb (1(23))(4(56)) the certificate reduces to the chain plus
    the condition that the two root-edge radii sum below one, checked on
    either side of that line.
    """
    _require_count(n_points, "n_points")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    comb = "1(2(3(45)))"
    cs = a_coordinates(parse_tree(comb))
    mismatches = 0
    for _ in range(n_points):
        pt = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)]
        chain = all(
            abs(pt[i] - pt[4]) > abs(pt[i + 1] - pt[4]) for i in range(3)
        ) and abs(pt[3] - pt[4]) > 0
        if region_membership(cs, pt).in_ubar != chain:
            mismatches += 1
    cs2 = a_coordinates(parse_tree("(1(23))(4(56))"))
    root = [cs2.edges.index(edge) for edge in (("l",), ("r",))]
    two_comb_ok = True
    for pl, pr, rest, want in ((0.49, 0.49, 0.9, True), (0.51, 0.51, 0.2, False)):
        radii = [rest] * cs2.n_edges
        radii[root[0]], radii[root[1]] = pl, pr
        got = admissibility_certificate(cs2, radii).admissible
        two_comb_ok = two_comb_ok and got is want
    return VerifyReport(
        name="regions",
        params={"tree": comb, "points": n_points, "seed": seed},
        samples=[{"mismatches": mismatches, "two_comb_reduction": two_comb_ok}],
        max_rel_err=float(mismatches),
        tolerance=0.0,
        passed=mismatches == 0 and two_comb_ok,
        runtime=time.perf_counter() - t0,
    )
