"""Labeled binary trees and 2-colored trees with their operad structure.

Plain trees are the objects of the magma operad: binary trees whose
leaves carry the labels {1, ..., r}, plus the distinguished empty tree.
Colored trees additionally carry closed/open leaf colors and the unary
color-change `Tau`; an o-colored tree is a binary combination of open
leaves and Tau-wrapped closed trees, with open labels increasing left
to right.  One walk, :func:`validate_colored`, types every tree: it
gives a plain tree the color "plain" and a colored one "c" or "o", and
:func:`validate_tree` only asks that color to be plain.  One partial
composition, :func:`compose`, grafts a tree into a leaf of a plain or
colored tree; the empty tree deletes the point.

All values are immutable; :func:`doubling` is memoized, so equal trees
double to the same object and every other operation returns fresh trees.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterator, Sequence, Union


class TreeError(ValueError):
    """Invalid tree structure, labels, or composition arguments."""


class ParseError(TreeError):
    """Syntax error in a tree expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Records.  Every opetree value type derives from Record; the bases live
# here because the other modules all import this one.


class Record:
    """A record with the fields named in ``_fields``, built positionally or
    by keyword; a field in ``_defaults`` may be omitted.  After
    construction ``__post_init__`` checks or normalizes the fields.  Equal
    when of the same class with equal field tuples; unhashable."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            try:  # complete args by keyword, then by default
                rest = [kwargs.pop(f) if f in kwargs else self._defaults[f] for f in fields[len(args):]]
            except KeyError as err:
                raise TypeError(f"{type(self).__name__}() missing field {err}") from None
            if kwargs or len(args) > len(fields):
                raise TypeError(f"{type(self).__name__}() takes {fields}, got {args} and {kwargs}")
            args += tuple(rest)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"


class Frozen(Record):
    """An immutable :class:`Record`, hashed as its field tuple."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._astuple()


class Stored(Frozen):
    """A :class:`Frozen` record with ``__slots__`` whose written-out
    ``__init__`` also keeps the field tuple in ``_key`` and its hash in
    ``_hash``: the hot memo and dict keys."""

    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash


# ---------------------------------------------------------------------------
# Node types.  Plain and colored trees share `Node`; :func:`validate_colored`
# types a tree by its leaves and Taus.  Trees key memos and dicts on hot
# paths, so nodes are Stored records.


class _Leaf(Stored):
    __slots__ = ("label", "_key", "_hash")
    _fields = ("label",)

    def __init__(self, label: int):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_key", (label,))
        object.__setattr__(self, "_hash", hash(self._key))

    def __repr__(self):
        return f"{type(self).__name__}({self.label})"


class Leaf(_Leaf):
    __slots__ = ()


class ClosedLeaf(_Leaf):
    __slots__ = ()


class OpenLeaf(_Leaf):
    __slots__ = ()


class Node(Stored):
    __slots__ = ("left", "right", "_key", "_hash")
    _fields = ("left", "right")

    def __init__(self, left: "Tree", right: "Tree"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_key", (left, right))
        object.__setattr__(self, "_hash", hash(self._key))

    def __repr__(self):
        return f"Node({self.left!r}, {self.right!r})"


class Tau(Stored):
    __slots__ = ("child", "_key", "_hash")
    _fields = ("child",)

    def __init__(self, child: "Tree"):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "_key", (child,))
        object.__setattr__(self, "_hash", hash(self._key))

    def __repr__(self):
        return f"Tau({self.child!r})"


class _Empty(Frozen):
    __slots__ = ()

    def __repr__(self):
        return "EMPTY"


EMPTY = _Empty()

Tree = Union[Leaf, ClosedLeaf, OpenLeaf, Node, Tau, _Empty]


# ---------------------------------------------------------------------------
# Validation


_COLOR = {Leaf: "plain", ClosedLeaf: "c", OpenLeaf: "o"}


def require_int(value, what: str, error=TreeError) -> int:
    """``value`` if it is an int (a bool is not); otherwise ``error`` naming
    it, so a label, slot, strand or power is never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{what} must be an int, got {value!r}")


def validate_colored(t: Tree) -> tuple[int, int, str]:
    """Type any tree in one walk; return (r, s, output color).

    A Leaf is "plain", a ClosedLeaf "c" and an OpenLeaf "o"; a Node joins
    two subtrees of equal color, and a Tau wraps a c-colored subtree into
    an "o" one.  So in an o-colored tree every closed leaf sits below
    exactly one Tau.  Labels are ints: the r plain or closed labels are
    exactly 1..r, the s open ones r+1..r+s, increasing left to right.  A
    plain tree gives (r, 0, "plain") and EMPTY gives (0, 0, "plain").
    """
    if isinstance(t, _Empty):
        return 0, 0, "plain"
    closed, opens = [], []  # plain or closed labels; open labels in order

    def walk(x, in_tau):
        if isinstance(x, Node):
            left, right = walk(x.left, in_tau), walk(x.right, in_tau)
            if left != right:
                raise TreeError(f"node joins mismatched colors {left!r} and {right!r}")
            return left
        if isinstance(x, Tau):
            if in_tau:
                raise TreeError("nested Tau")
            if walk(x.child, True) != "c":
                raise TreeError("Tau child must be c-colored")
            return "o"
        color = _COLOR.get(type(x))
        if color is None:
            raise TreeError(f"not a tree: {x!r}")
        if color == "o" and in_tau:
            raise TreeError("open leaf below a Tau")
        (opens if color == "o" else closed).append(require_int(x.label, "leaf label"))
        return color

    color = walk(t, False)
    r, s = len(closed), len(opens)
    if sorted(closed) != list(range(1, r + 1)):
        noun = "leaf" if color == "plain" else "closed"
        raise TreeError(f"{noun} labels {sorted(closed)} are not exactly 1..{r}")
    if opens != list(range(r + 1, r + s + 1)):
        raise TreeError(
            f"open labels {opens} must be r+1..r+s and increase left to right"
        )
    return r, s, color


def validate_tree(t: Tree) -> int:
    """Check that ``t`` is a plain tree (or EMPTY); return the leaf count r."""
    r, _, color = validate_colored(t)
    if color != "plain":
        raise TreeError(f"{color}-colored tree where a plain tree is needed")
    return r


# ---------------------------------------------------------------------------
# Parsing and formatting
#
# Grammar (whitespace between tokens is ignored):
#   tree := leaf | "(" tree tree ")" | tree tree      (root juxtaposition)
#   leaf := INT | "c" INT | "o" INT
#   tau  := "t(" tree ")"
# Digit runs are first read as single-digit leaves ("(5(23))" has leaves
# 2,3); if the resulting label set is not exactly {1..r} the input is
# reparsed with maximal multi-digit numbers (so "10 11" works for large
# trees).  Canonical output is compact for single-digit labels and
# space-separated otherwise.
#
# One _TOKEN match per token; whitespace between tokens matches nothing
# and is skipped.  Groups: 1 "t(" opens a Tau, 2 a parenthesis, 3 a
# leaf's "c"/"o" prefix ("" for a plain leaf) and 4 its decimal digit
# run, 5 a "c"/"o" with no label, 6 any other character.
_TOKEN = re.compile(r"(t\()|([()])|([co]?)(\d+)|([co])|(\S)")
_LEAF_KIND = {"": Leaf, "c": ClosedLeaf, "o": OpenLeaf}


def _tokenize(text: str, split_digits: bool) -> list:
    toks = []  # (kind, value, position); kind is "(", ")", "t(" or a leaf class
    for m in _TOKEN.finditer(text):
        tau, paren, prefix, digits, bare, other = m.groups()
        at = m.start()
        if digits:  # split_digits: one leaf per digit, at the prefix's position or its own
            kind = _LEAF_KIND[prefix]
            labels = digits if split_digits else (digits,)
            toks += [(kind, int(d), at if prefix else at + k) for k, d in enumerate(labels)]
        elif bare:
            raise ParseError(f"{bare!r} must be followed by a label", at)
        elif other:
            raise ParseError(f"unexpected character {other!r}", at)
        else:
            toks.append((tau or paren, None, at))
    return toks


MAX_NESTING = 256  # parentheses and Tau; far below the recursion limit


def _parse_tokens(toks: list, text_len: int) -> Tree:
    pos = 0
    depth = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None, text_len)

    def parse_item():
        nonlocal pos, depth
        kind, value, at = peek()
        if kind is None or kind == ")":
            raise ParseError("expected a leaf or '('", at)
        pos += 1
        if value is not None:
            return kind(value)
        depth += 1  # "(" or "t("
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", at)
        inner = parse_juxtaposition(")")
        if peek()[0] != ")":
            raise ParseError("missing ')' after Tau" if kind == "t(" else "missing ')'", peek()[2])
        pos += 1
        depth -= 1
        return Tau(inner) if kind == "t(" else inner

    def parse_juxtaposition(closer):
        nonlocal pos
        items = [parse_item()]
        while peek()[0] not in (closer, None):
            items.append(parse_item())
            if len(items) > 2:
                raise ParseError(
                    "more than two juxtaposed subtrees; parenthesize", peek()[2]
                )
        if len(items) == 1:
            return items[0]
        return Node(items[0], items[1])

    tree = parse_juxtaposition(None)
    if pos != len(toks):
        raise ParseError("trailing input", toks[pos][2])
    return tree


def parse_tree(text: str) -> Tree:
    """Parse a tree expression; returns EMPTY for blank input.

    Round-trips with :func:`format_tree`.  Raises :class:`ParseError`
    with a position on syntax errors, :class:`TreeError` on bad labels.
    """
    if not text.strip():
        return EMPTY
    first_err = None
    for split in (True, False):
        toks = _tokenize(text, split_digits=split)
        try:
            tree = _parse_tokens(toks, len(text))
            validate_colored(tree)
            return tree
        except TreeError as err:
            if first_err is None:
                first_err = err
    raise first_err


def format_tree(t: Tree) -> str:
    """Canonical text for a tree; outermost parentheses omitted."""
    if isinstance(t, _Empty):
        return ""
    wide = any(label > 9 for label in leaf_order(t))
    sep = " " if wide else ""

    def fmt(x, root=False):
        if isinstance(x, Leaf):
            return str(x.label)
        if isinstance(x, ClosedLeaf):
            return f"c{x.label}"
        if isinstance(x, OpenLeaf):
            return f"o{x.label}"
        if isinstance(x, Tau):
            return f"t({fmt(x.child, root=True)})"
        if isinstance(x, Node):
            body = fmt(x.left) + sep + fmt(x.right)
            return body if root else f"({body})"
        raise TreeError(f"not a tree: {x!r}")

    return fmt(t, root=True)


# ---------------------------------------------------------------------------
# Operad structure


def map_leaves(t: Tree, f) -> Tree:
    """Replace every leaf of a plain or colored tree by ``f(leaf)``, a leaf
    or a subtree, keeping the Node and Tau structure; a leaf mapped to
    None is erased: a Node keeps its other child, a Tau left empty goes
    too, and a tree with every leaf erased (or EMPTY) maps to EMPTY; an
    EMPTY below a Node or Tau is not a tree.  The one leaf walk behind
    relabeling, recoloring, composition and leaf order."""
    if isinstance(t, (Leaf, ClosedLeaf, OpenLeaf)):
        out = f(t)
        return EMPTY if out is None else out
    if isinstance(t, Tau) and not isinstance(t.child, _Empty):
        child = map_leaves(t.child, f)
        return EMPTY if child is EMPTY else Tau(child)
    if isinstance(t, Node) and not isinstance(t.left, _Empty) and not isinstance(t.right, _Empty):
        left, right = map_leaves(t.left, f), map_leaves(t.right, f)
        if left is EMPTY:
            return right
        return left if right is EMPTY else Node(left, right)
    if isinstance(t, _Empty):
        return EMPTY
    raise TreeError(f"not a tree: {t!r}")


def compose(a: Tree, p: int, b: Tree) -> Tree:
    """Partial composition: graft ``b`` into the leaf of ``a`` labeled p.

    The slot's leaf kind decides the argument.  A plain or closed slot
    takes a plain or c-colored ``b``, whose leaves take the slot's kind
    and count on from p; later leaves of that kind shift by m-1, where m
    is b's leaf count.  An open slot (labels r+1..r+s) takes an
    o-colored ``b``, whose closed leaves follow the r closed leaves of
    ``a``.  With b = EMPTY the slot leaf is erased (its Tau too, if left
    empty) and later labels of its kind decrement.  The open leaves of a
    colored result are numbered left to right after its closed leaves.
    """
    if isinstance(a, _Empty):
        raise TreeError("cannot compose into the empty tree")
    r, s, color = validate_colored(a)
    if not 1 <= require_int(p, "slot") <= r + s:
        raise TreeError(f"slot {p} out of range 1..{r + s}")
    kind = OpenLeaf if p > r else Leaf if color == "plain" else ClosedLeaf
    if isinstance(b, _Empty):
        m, sub = 0, None
    else:
        m, _, b_color = validate_colored(b)
        if (b_color == "o") != (kind is OpenLeaf):
            want = "an o-colored" if kind is OpenLeaf else "a plain or c-colored"
            raise TreeError(f"slot {p} needs {want} argument")
        if kind is OpenLeaf:  # open labels are renumbered below
            sub = map_leaves(b, lambda y: type(y)(y.label + r))
        else:
            sub = map_leaves(b, lambda y: kind(y.label + p - 1))

    def graft(x):
        if type(x) is not kind:
            return x
        if x.label == p:
            return sub
        return kind(x.label + m - 1) if x.label > p else x

    out = map_leaves(a, graft)
    if s:  # opens follow the r + m - 1 closed leaves, or r + m after an open slot
        opens = itertools.count(r + m + (kind is OpenLeaf))
        out = map_leaves(out, lambda x: OpenLeaf(next(opens)) if type(x) is OpenLeaf else x)
    return out


def permute(a: Tree, g: Sequence[int] | dict) -> Tree:
    """Relabel each leaf i by g(i); ``g`` is a permutation of {1..r}.

    Sequences are read as one-line notation: g[i-1] is the image of i.
    """
    r = validate_tree(a)
    if isinstance(a, _Empty):
        return a
    if isinstance(g, dict):
        mapping = dict(g)
    else:
        mapping = {i + 1: v for i, v in enumerate(g)}
    for v in (*mapping, *mapping.values()):
        require_int(v, "permutation entry")
    if sorted(mapping) != list(range(1, r + 1)) or sorted(mapping.values()) != list(
        range(1, r + 1)
    ):
        raise TreeError(f"not a permutation of 1..{r}: {mapping}")
    return map_leaves(a, lambda x: Leaf(mapping[x.label]))


def leaf_order(a: Tree) -> list[int]:
    """Labels read left to right ('forgetting the parenthesization')."""
    out = []
    map_leaves(a, lambda x: out.append(x.label))
    return out


# ---------------------------------------------------------------------------
# Doubling


@lru_cache(maxsize=4096)
def doubling(e: Tree) -> Tree:
    """Double the Tau blocks: each Tau subtree T becomes Node(T, T-bar).

    The result is a plain tree on 2r+s leaves with a fixed label
    convention: closed label k becomes 2k-1 (the point z_k) and 2k (its
    conjugate zbar_k), and open label r+j becomes 2r+j (the boundary
    point x_j).  EMPTY doubles to EMPTY.
    """
    if isinstance(e, _Empty):
        return EMPTY
    r, s, color = validate_colored(e)
    if color != "o":
        raise TreeError("doubling is defined for o-colored trees")

    def build(x):
        if isinstance(x, OpenLeaf):
            return Leaf(2 * r + (x.label - r))
        if isinstance(x, Tau):
            return Node(
                map_leaves(x.child, lambda lf: Leaf(2 * lf.label - 1)),
                map_leaves(x.child, lambda lf: Leaf(2 * lf.label)),
            )
        return Node(build(x.left), build(x.right))

    out = build(e)
    validate_tree(out)
    return out


# ---------------------------------------------------------------------------
# Enumeration (exhaustive tests and small searches)


def all_trees(labels: Sequence[int]) -> Iterator[Tree]:
    """All plain binary trees on the given label set (shapes x labelings)."""
    labels = tuple(labels)
    if not labels:
        yield EMPTY
        return
    if len(labels) == 1:
        yield Leaf(labels[0])
        return
    items = list(labels)
    n = len(items)
    for mask in range(1, 2 ** n - 1):
        left = tuple(items[i] for i in range(n) if mask >> i & 1)
        right = tuple(items[i] for i in range(n) if not mask >> i & 1)
        for lt in all_trees(left):
            for rt in all_trees(right):
                yield Node(lt, rt)


def _splits(seq):
    for i in range(len(seq) + 1):
        yield seq[:i], seq[i:]


def _subsets(seq):
    for mask in range(2 ** len(seq)):
        yield tuple(s for i, s in enumerate(seq) if mask >> i & 1), tuple(
            s for i, s in enumerate(seq) if not mask >> i & 1
        )


def all_colored_trees(r: int, s: int) -> Iterator[Tree]:
    """All o-colored trees with closed labels 1..r and open labels r+1..r+s."""

    def gen(closed, opens):
        if len(closed) + len(opens) == 0:
            return
        if not closed and len(opens) == 1:
            yield OpenLeaf(opens[0])
            return
        if not opens and closed:
            for ct in all_trees(closed):
                yield Tau(map_leaves(ct, lambda lf: ClosedLeaf(lf.label)))
        for cl, cr in _subsets(closed):
            for ol, orr in _splits(opens):
                if (not cl and not ol) or (not cr and not orr):
                    continue
                for lt in gen(cl, ol):
                    for rt in gen(cr, orr):
                        yield Node(lt, rt)

    yield from gen(tuple(range(1, r + 1)), tuple(range(r + 1, r + s + 1)))
