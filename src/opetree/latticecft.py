"""The rank-one even unimodular lattice free boson with boundary.

Charges are integer pairs (n, m) in the hyperbolic lattice with Gram
matrix [[0, 1], [1, 0]].  For compactification radius R with R^2
rational, the left/right movers are a = (n/R + mR)/sqrt(2) and
abar = (n/R - mR)/sqrt(2); every pairing the correlators need is a
rational combination of u^2 = 1/(2 R^2), w^2 = R^2/2 and u*w = 1/2, so
all exponents are exact rationals.  Writing R^2 = p/q in lowest terms,
every such exponent has a denominator dividing D = 2pq.  Every phase
(the cocycles epsilon, sigma and eta, the OPE prefactor of a tree and
the inter-region phase predictions) is an integer k mod 2D with value
exp(i pi k/D); :meth:`NarainModel.phase` is the one place such an
integer becomes a complex number.

Closed-form correlators are products over coordinate pairs with a fixed
branch plan (bulk pairs combined into single-valued factors, all mixed
pairs principal); per-tree expansions apply the series expansion
homomorphism in the (doubled) tree's coordinates and carry the OPE
structure constants of the tree.  The verification suites check the
bootstrap cocycle identities, per-tree convergence to the single
correlator with the predicted inter-region phases, single-valuedness
under numeric loops, and the half-loop skew relation.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from fractions import Fraction
from functools import cached_property, reduce
from operator import add

from opetree.coords import (
    CoordError,
    a_coordinates,
    nested_configuration,
    nested_configuration_open,
    phi_embedding,
    psi,
    region_membership,
    validate_halfplane_point,
)
from opetree.series import (
    BranchPlan,
    PowerProduct,
    evaluate_closed,
    evaluate_series,
    expand,
    phase_pi,
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
    is_colored,
    leaf_order,
    validate_colored,
    validate_tree,
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

    def weight(self, alpha) -> tuple:
        return self.aa(alpha, alpha) / 2, self.abarbar(alpha, alpha) / 2


# ---------------------------------------------------------------------------
# Boundary data: reflection, boundary charge map, cocycles


class BoundaryData(Record):
    """Reflection sign, boundary charges, and the cocycles eta and sigma.

    Every phase is an integer k mod 2D, value ``model.phase(k)`` =
    exp(i pi k/D) with D = model.D, read from the model's table of at
    most 2D entries; the ``*_num`` methods return k.  sigma solves
    sigma(x + g) = sigma(x) sigma(g) / eps'(x, g), stepping n first, with
    sigma(0) = sigma(e1) = sigma(e2) = 1; eps' is bilinear mod 2D, so with
    Mij = eps'(e_i, e_j) that is -(C(n,2) M11 + C(m,2) M22 + n m M21) mod
    2D.  sigma_table holds explicit overrides only (a :meth:`perturbed`
    control's); it is empty after :func:`build_boundary`.  ``sigma_exponent``,
    the Fraction k/D, is kept only for perfbench's tracer.  The boundary
    charge group is rank one, so the commutator-map construction yields
    the trivial eta (basis table has no off-diagonal entries).
    """

    _fields = ("model", "rho", "sigma_table")
    _defaults = {"sigma_table": None}  # a new empty table

    def __post_init__(self):
        if self.rho not in (1, -1):
            raise LatticeError("reflection sign must be +1 or -1")
        if self.sigma_table is None:
            self.sigma_table = {}
        # (model, bulk charges, boundary charges) -> mixed_correlator's
        # (product, plan, prefactor phase), at most 4096 of them; not a
        # field, so not compared or shown.  sigma_table is not changed after
        # construction, so an entry never goes stale; perturbed() copies start empty
        self.closed_forms = {}
        e1, e2 = (1, 0), (0, 1)  # sigma's closed form reads (M11, M21, M22)
        self._sigma_form = tuple(self.epsilon_prime_num(a, b) for a, b in ((e1, e1), (e2, e1), (e2, e2)))

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

    def eta_num(self, k1: int, k2: int) -> int:
        return 0

    def commutator_num(self, alpha: Charge, beta: Charge) -> int:
        """c(alpha,beta) = exp(-i pi ((alpha,beta) + (alpha, phi beta))),
        not reduced mod 2D."""
        return -(
            lattice_pairing(alpha, beta) + self.alpha_phi_beta(alpha, beta)
        ) * self.model.D

    def epsilon_prime_num(self, alpha: Charge, beta: Charge) -> int:
        """eps' = eps * eta(ta,tb)^{-1} * exp(i pi (phi pbar a, p b))."""
        d = self.model.D
        return (
            epsilon_exponent(alpha, beta) * d
            - self.eta_num(self.t_coeff(alpha), self.t_coeff(beta))
            + self.model.frame_product_num(
                self.phi_abar_vec(alpha), self.model.a_vec(beta)
            )
        ) % (2 * d)

    def sigma_num(self, alpha: Charge) -> int:
        """sigma(alpha)'s integer: its override in sigma_table, if any, else
        the closed form in [0, 2D)."""
        n, m = alpha = (int(alpha[0]), int(alpha[1]))
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
        d = self.model.D
        table = {**self.sigma_table, tuple(alpha): (self.sigma_num(alpha) + d) % (2 * d)}
        return BoundaryData(self.model, self.rho, table)


def build_boundary(model: NarainModel, rho: int) -> BoundaryData:
    """Construct boundary data for the reflection sign rho.

    sigma's closed form needs eps' symmetric mod 2D.  eps' is bilinear mod
    2D (its eps part (m n2 mod 2) D is congruent to m n2 D, the frame
    product is integer-bilinear and eta is trivial), so one comparison
    decides it.  Asymmetry is reported, never patched.
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
        lines = [
            f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
            f"  max_rel_err={self.max_rel_err:.3e}  tol={self.tolerance:.1e}"
            f"  ({self.runtime:.2f}s)"
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
    zero unless the charges sum to the dual charge.
    """
    charges = [tuple(a) for a, _ in insertions]
    points = [complex(z) for _, z in insertions]
    if (sum(n for n, _ in charges), sum(m for _, m in charges)) != tuple(dual):
        return 0j
    _check_distinct(points)
    nu = 0
    value = 1.0 + 0j
    for i in range(len(charges)):
        for j in range(i + 1, len(charges)):
            nu += epsilon_exponent(charges[i], charges[j])
            v = points[i] - points[j]
            bb = model.abarbar(charges[i], charges[j])
            k = model.aa(charges[i], charges[j]) - bb
            if k.denominator != 1:
                raise LatticeError("bulk pair exponents differ non-integrally")
            value *= abs(v) ** float(2 * bb) * v ** int(k)
    return model.phase(nu * model.D) * value


def _check_distinct(points) -> None:
    if len(set(points)) != len(points):
        raise LatticeError("coincident insertion points")


def _int_charges(charges) -> list:
    """Boundary charges as ints; a non-integer charge raises, never truncates."""
    ints = [int(k) for k in charges]
    if ints != list(charges):
        raise LatticeError(f"boundary charges must be integers, got {list(charges)}")
    return ints


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


def ope_prefactor_num(bd: BoundaryData, e: Tree, bulk_charges, bdry_charges) -> int:
    """Phase of the product of OPE structure constants over the tree, as
    an integer in [0, 2D): epsilon at closed vertices, sigma at Tau, eta
    at open vertices."""
    r = len(bulk_charges)
    d = bd.model.D

    def walk(t):
        if isinstance(t, ClosedLeaf):
            return 0, "c", tuple(bulk_charges[t.label - 1])
        if isinstance(t, OpenLeaf):
            return 0, "o", int(bdry_charges[t.label - r - 1])
        if isinstance(t, Tau):
            k, kind, ch = walk(t.child)
            if kind != "c":
                raise LatticeError("Tau over a non-closed subtree")
            return k + bd.sigma_num(ch), "o", bd.t_coeff(ch)
        if isinstance(t, Node):
            k1, kind1, c1 = walk(t.left)
            k2, kind2, c2 = walk(t.right)
            if kind1 != kind2:
                raise LatticeError("mixed colors at a tree vertex")
            if kind1 == "c":
                return (
                    k1 + k2 + epsilon_exponent(c1, c2) * d,
                    "c",
                    (c1[0] + c2[0], c1[1] + c2[1]),
                )
            return k1 + k2 + bd.eta_num(c1, c2), "o", c1 + c2
        raise LatticeError(f"unexpected node {t!r}")

    k, kind, _ = walk(e)
    if kind != "o":
        raise LatticeError("correlator tree must be o-colored")
    return k % (2 * d)


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


def _frame_diffs(model: NarainModel, frames, pairs) -> tuple:
    """``((k, l), frame product)`` for each pair (k, l) whose frame
    vectors have a nonzero product: the diffs of a ``PowerProduct``."""
    diffs = []
    for k, l in pairs:
        q = model.frame_product(frames[k], frames[l])
        if q != 0:
            diffs.append(((k, l), q))
    return tuple(diffs)


def mixed_power_product(bd: BoundaryData, bulk_charges, bdry_charges):
    """Doubled pair product and branch plan, in doubled labels."""
    r, s = len(bulk_charges), len(bdry_charges)
    frames = _doubled_charge_frames(bd, bulk_charges, bdry_charges)
    pairs = itertools.combinations(range(1, 2 * r + s + 1), 2)
    diffs = _frame_diffs(bd.model, frames, pairs)
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
    Zero unless the boundary charge is conserved.  The product, plan and
    prefactor phase are built once per charge set and kept in
    ``bd.closed_forms``; each call evaluates them at its point.  The
    boundary charges are checked to be integers once per charge set.
    """
    bulk_charges = tuple(tuple(a) for a, _ in bulk_insertions)
    bdry_charges = tuple(k for k, _ in bdry_insertions)
    zs = [complex(z) for _, z in bulk_insertions]
    xs = [complex(x) for _, x in bdry_insertions]
    validate_halfplane_point(zs + xs, len(zs), len(xs))
    _check_distinct(zs)
    key = (model, bulk_charges, bdry_charges)
    prepared = bd.closed_forms.get(key)
    if prepared is None:
        bdry_charges = _int_charges(bdry_charges)
    if sum(bd.t_coeff(a) for a in bulk_charges) + sum(bdry_charges) != int(dual):
        return 0j
    if prepared is None:
        if len(bd.closed_forms) >= 4096:
            bd.closed_forms.clear()
        product, plan = mixed_power_product(bd, bulk_charges, bdry_charges)
        pref = ope_prefactor_num(
            bd, reference_tree(len(zs), len(xs)), bulk_charges, bdry_charges
        )
        prepared = bd.closed_forms[key] = product, plan, model.phase(pref)
    product, plan, phase = prepared
    point = phi_embedding(zs + xs, len(zs), len(xs))
    return phase * evaluate_closed(product, point, plan)


# ---------------------------------------------------------------------------
# Per-tree expansions


class TreeExpansion(Record):
    """A per-tree OPE expansion: the raw series in ``coords``, the (doubled)
    tree's coordinate system, and the tree's OPE prefactor, kept separate
    so region phases can be measured against the raw expansion.  The
    prefactor is the integer phase ``prefactor_num`` mod 2D of ``model``;
    its complex value ``prefactor`` is computed once."""

    _fields = ("model", "tree", "coords", "series", "prefactor_num", "colored")

    @cached_property
    def prefactor(self) -> complex:
        return self.model.phase(self.prefactor_num)

    def coordinate_values(self, point) -> dict:
        """Series variable values; ``point`` uses doubled coordinates for a
        colored tree and plain bulk coordinates otherwise."""
        cs = self.coords
        vals = psi(cs, point).as_dict(cs.var_names())
        if not self.colored:
            cvb = psi(cs, [complex(z).conjugate() for z in point])
            vals.update(cvb.as_dict(cs.var_names(conjugate=True)))
        return vals

    def evaluate_raw(self, point) -> complex:
        return evaluate_series(self.series, self.coordinate_values(point))

    def evaluate(self, point) -> complex:
        return self.prefactor * self.evaluate_raw(point)


def _ordered_pairs(tree: Tree) -> list:
    return list(itertools.combinations(leaf_order(tree), 2))


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
    used.  The tree's OPE structure constants form the prefactor.
    """
    if is_colored(e):
        if bd is None:
            raise LatticeError("colored expansion needs boundary data")
        r, s, color = validate_colored(e)
        if color != "o":
            raise LatticeError("expansion tree must be o-colored")
        if 2 * r + s == 1:
            raise LatticeError(f"tree {format_tree(e)} doubles to one leaf: no pair to expand")
        if len(charges) != r or len(bdry_charges) != s:
            raise LatticeError("charge count mismatch")
        cs = a_coordinates(doubling(e))
        frames = _doubled_charge_frames(bd, [tuple(a) for a in charges], bdry_charges)
        diffs = _frame_diffs(model, frames, _ordered_pairs(cs.tree))
        ex = expand(cs, PowerProduct(diffs=diffs), order)
        if ex.negative_pairs:
            raise LatticeError(
                f"leaf-ordered factor with negative leading sign: {ex.negative_pairs}"
            )
        pref = ope_prefactor_num(bd, e, charges, bdry_charges)
        return TreeExpansion(model, e, cs, ex.series, pref, colored=True)

    r = validate_tree(e)
    if r == 1:
        raise LatticeError(f"tree {format_tree(e)} has one leaf: no pair to expand")
    if len(charges) != r:
        raise LatticeError("charge count mismatch")
    charges = [tuple(a) for a in charges]
    cs = a_coordinates(e)
    pairs = _ordered_pairs(e)
    a_frames = {i: model.a_vec(a) for i, a in enumerate(charges, start=1)}
    abar_frames = {i: model.abar_vec(a) for i, a in enumerate(charges, start=1)}
    ex_z = expand(cs, PowerProduct(diffs=_frame_diffs(model, a_frames, pairs)), order)
    ex_zb = expand(
        cs,
        PowerProduct(diffs=_frame_diffs(model, abar_frames, pairs)),
        order,
        conjugate=True,
    )
    if ex_z.negative_pairs or ex_zb.negative_pairs:
        raise LatticeError("leaf-ordered factor with negative leading sign")
    seq = leaf_order(e)
    nu = sum(
        epsilon_exponent(charges[seq[i] - 1], charges[seq[j] - 1])
        for i in range(r)
        for j in range(i + 1, r)
    )
    return TreeExpansion(
        model, e, cs, ex_z.series * ex_zb.series, (nu % 2) * model.D, colored=False
    )


# ---------------------------------------------------------------------------
# Bootstrap verification


def _phase_error(model: NarainModel, k1: int, k2: int) -> float:
    """|exp(i pi k1/D) - exp(i pi k2/D)| in floating point."""
    return abs(model.phase(k1) - model.phase(k2))


def bootstrap_check(
    model: NarainModel, bd: BoundaryData, box: int, tol: float = 1e-12
) -> VerifyReport:
    """Exhaustively check the cocycle identities on the charge box.

    (1) sigma(0) = 1;
    (2) eps(a,b) sigma(a+b) exp(i pi (phi pbar a, p b))
        = sigma(a) sigma(b) eta(ta,tb);
    (3) eta(ta,tb) eta(tb,ta)^{-1} = exp(-i pi ((a,b) + (a, phi b)));
    plus the kernel property c(a,b) = 1 for a in ker t.

    Both sides are compared exactly, as integers mod 2D; only a pair
    that differs is evaluated in floating point, for the reported error.

    Every exponent but sigma's is bilinear in (a, b) mod 2D: eps(a, b) D
    = (m n2 mod 2) D is congruent to m n2 D, and the frame product
    (phi pbar a, p b) and the commutator are linear in b.  So each ``a``
    evaluates them once on b = (1, 0) and (0, 1), and the loop over b
    takes two multiply-adds per identity from a row (n2, m2, lin_b,
    sigma(b), t_b).  sigma_num over |n|, |m| <= 2 box is one flat list
    with lin = n w + m, so sigma(a + b) is ``flat[centre + lin_a + lin_b]``.
    The integers compared are congruent mod 2D to the per-pair ones, and
    ``model.phase`` depends only on k mod 2D, so the verdict and every
    error are the same bit for bit.
    """
    t0 = time.perf_counter()
    d = model.D
    two_d = 2 * d
    r = 2 * box  # sigma at every a, b and a + b
    w, centre, span = 2 * r + 1, r * (2 * r + 2), range(-r, r + 1)
    m11, m21, m22 = bd._sigma_form  # sigma_num's closed form, then its overrides
    flat = [
        -(n * (n - 1) // 2 * m11 + m * (m - 1) // 2 * m22 + n * m * m21) % two_d
        for n in span for m in span
    ]
    for (n, m), k in bd.sigma_table.items():
        if abs(n) <= r and abs(m) <= r:
            flat[centre + n * w + m] = k
    worst = _phase_error(model, flat[centre], 0)
    kernel_worst = 0.0
    rng_box = range(-box, box + 1)
    eta = {(k1, k2): bd.eta_num(k1, k2) for k1 in rng_box for k2 in rng_box}
    rows = [(n, m, n * w + m, flat[centre + n * w + m], bd.t_coeff((n, m))) for n in rng_box for m in rng_box]
    basis = ((1, 0), (0, 1))
    for n, m, lin_a, sigma_a, ta in rows:
        a = (n, m)
        phi_a = bd.phi_abar_vec(a)
        # (2) without sigma, and (3)'s commutator, at b = e1 and b = e2
        x1, x2 = [epsilon_exponent(a, e) * d + model.frame_product_num(phi_a, e) for e in basis]
        c1, c2 = [bd.commutator_num(a, e) for e in basis]
        in_kernel = ta == 0
        at_a = centre + lin_a
        for n2, m2, lin_b, sigma_b, tb in rows:
            eta_ab = eta[(ta, tb)]
            lhs2 = x1 * n2 + x2 * m2 + flat[at_a + lin_b]
            rhs2 = sigma_a + sigma_b + eta_ab
            if (lhs2 - rhs2) % two_d:
                worst = max(worst, _phase_error(model, lhs2, rhs2))
            lhs3 = eta_ab - eta[(tb, ta)]
            rhs3 = c1 * n2 + c2 * m2
            if (lhs3 - rhs3) % two_d:
                worst = max(worst, _phase_error(model, lhs3, rhs3))
            if in_kernel and rhs3 % two_d:
                kernel_worst = max(kernel_worst, _phase_error(model, rhs3, 0))
    worst = max(worst, kernel_worst)
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
    cs = a_coordinates(doubling(e))

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
            validate_halfplane_point(pt, r, s)
        except CoordError:
            return None
        doubled = phi_embedding(pt, r, s)
        memb = region_membership(cs, doubled)
        if not memb.in_u or memb.margin < margin_min:
            return None
        return tuple(pt)

    return _rejection_sample(
        propose, count, 1000, "open-region sampler failed; loosen the margin"
    )


# ---------------------------------------------------------------------------
# Consistency of per-tree expansions with the closed forms


PHASE_TOL = 1e-10  # inter-region phase tolerance


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
    prefactors predict.
    """
    colored = is_colored(trees[0])
    if colored and bd is None:
        raise LatticeError("colored expansion needs boundary data")
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
    t0 = time.perf_counter()
    rng = random.Random(seed)
    colored = is_colored(trees[0])
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
    increments (valid while single steps stay off the ratio cut)."""
    charges = [tuple(a) for a in charges]
    if (sum(n for n, _ in charges), sum(m for _, m in charges)) != tuple(dual):
        return 0j
    pts = [list(map(complex, p)) for p in path]
    npts = len(charges)
    logs = {}
    for i in range(npts):
        for j in range(i + 1, npts):
            logs[(i, j)] = cmath.log(pts[0][i] - pts[0][j])
    for step in range(1, len(pts)):
        for i in range(npts):
            for j in range(i + 1, npts):
                old = pts[step - 1][i] - pts[step - 1][j]
                new = pts[step][i] - pts[step][j]
                logs[(i, j)] += cmath.log(new / old)
    nu = 0
    total = 0j
    for i in range(npts):
        for j in range(i + 1, npts):
            nu += epsilon_exponent(charges[i], charges[j])
            aa = model.aa(charges[i], charges[j])
            bb = model.abarbar(charges[i], charges[j])
            total += float(aa) * logs[(i, j)] + float(bb) * logs[(i, j)].conjugate()
    return model.phase(nu * model.D) * cmath.exp(total)


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
    of the remaining points."""
    while True:
        pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(count)]
        mover, around = rng.sample(range(count), 2)
        radius = abs(pts[mover] - pts[around])
        ok = radius > 0.1
        for k in range(count):
            if k in (mover, around):
                continue
            if abs(abs(pts[k] - pts[around]) - radius) < 0.15 or abs(
                pts[k] - pts[around]
            ) < 0.1:
                ok = False
        if ok:
            return tuple(pts), mover, around


def single_valuedness_check(
    model: NarainModel, charges, n_samples: int, seed: int, tol: float = 1e-12
) -> VerifyReport:
    """A full numeric loop returns the bulk correlator to its value."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    charges = [tuple(a) for a in charges]
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
            measured = (end / model.phase(epsilon_exponent(alpha, beta) * d)) / (
                want / model.phase(epsilon_exponent(beta, alpha) * d)
            )
            pair_worst = max(
                pair_worst,
                abs(measured - (-1) ** (lattice_pairing(alpha, beta) % 2)),
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
