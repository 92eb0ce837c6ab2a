"""Tree-operad calculus for boundary CFT operator product expansions.

Subpackages by topic:

* :mod:`opetree.trees` -- labeled binary trees, 2-colored trees, one
  partial composition for both (the empty tree deletes a point) and the
  doubling map.
* :mod:`opetree.coords` -- tree-adapted coordinates on configuration
  space, polynomial inverses, admissible-radius certificates and
  convergence-region membership.
* :mod:`opetree.series` -- truncated multivariate generalized power
  series (rational exponents, log powers) and the expansion
  homomorphism from power products into tree coordinates.
* :mod:`opetree.braids` -- braid words, cabling/strand deletion, one
  braid-morphism type for plain and colored trees, and the five colored
  generators.
* :mod:`opetree.latticecft` -- the rank-one even unimodular lattice
  free-boson model: cocycles, closed-form correlators, per-tree
  expansions, and the bootstrap/consistency verification suites.
* :mod:`opetree.cli` -- command-line front end.

Submodules load on first use (PEP 562): ``import opetree`` runs no
submodule, and ``opetree.parse_tree`` or ``opetree.series`` imports only
the submodule that defines it (and what that one imports), then caches
the value here.  ``from opetree import *`` and ``dir(opetree)`` see every
name in ``__all__``.  One-shot CLI calls rely on this to compile only the
modules their subcommand uses.
"""

import importlib

# Public name -> the submodule that defines it; a submodule maps to itself.
_LAZY = {
    **dict.fromkeys(
        (
            "trees",
            "EMPTY",
            "ClosedLeaf",
            "Leaf",
            "Node",
            "OpenLeaf",
            "Tau",
            "compose",
            "doubling",
            "format_tree",
            "parse_tree",
            "permute",
        ),
        "trees",
    ),
    **dict.fromkeys(
        (
            "coords",
            "CoordSystem",
            "CoordValues",
            "a_coordinates",
            "admissibility_certificate",
            "pair_difference",
            "psi",
            "region_membership",
            "region_membership_open",
        ),
        "coords",
    ),
    **dict.fromkeys(
        ("series", "GenSeries", "PowerProduct", "evaluate_closed", "evaluate_series", "expand"),
        "series",
    ),
    **dict.fromkeys(
        ("braids", "BraidWord", "braid_permutation", "cable_compose", "mirror", "papb_generator"),
        "braids",
    ),
    **dict.fromkeys(("latticecft", "NarainModel", "build_boundary"), "latticecft"),
}

__all__ = [name for name, submodule in _LAZY.items() if name != submodule]


def __getattr__(name):
    try:
        submodule = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{submodule}")
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
