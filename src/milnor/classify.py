"""Classification procedures built on the invariant engine.

String links are classified up to link-homotopy by a normal form: a stacked
product of the commutator generators indexed by ordered injections, with
exponents measured level by level against partial products.  Links whose
repetition-bounded invariants vanish through length 2n-1 are classified up
to self-delta equivalence by their length-2n, repetition-2 invariants; a
Brunnian representative is assembled from the doubled generators, with the
palindromic families contributing a parity part and a halved integer part.

Each input's normal form or self-delta vector is computed once, cached on
the diagram, and read by every verdict on that input.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple

from . import invariants
from .diagram import (
    Diagram,
    _must_fit,
    cable,
    closure,
    power,
    reduced,
    stack_all,
    trivial_string_link,
)
from .multiindex import (
    Injection,
    Surjection,
    all_injections,
    ascending_surjections,
    format_index,
    injections,
    palindromic_partner,
    palindromic_surjections,
)
from .tangles import tree_tangle


def injection_generator(pi: Injection, exponent: int = 1) -> Diagram:
    """The commutator generator string link for an ordered injection: the
    tree tangle grasping pi(1), ..., pi(k).  Its own invariant equals the
    exponent, all other same-family invariants and everything shorter
    vanish."""
    return power(tree_tangle(pi.n, pi.values), exponent)


def surjection_generator(tau: Surjection, exponent: int = 1) -> Diagram:
    """The doubled generator string link for a surjection: the tree tangle
    grasping tau(1), ..., tau(m-2), k, k, with the odd-length palindromic
    family normalized against the paired even-length one."""
    base = tree_tangle(tau.n, tau.index())
    n = tau.n
    if tau.m == 2 * n - 1 and tau.k == n and tau.values == tau.values[::-1]:
        # normalize: the tree data pins invariants only through length m, so
        # stray values on the paired even-length family are cancelled by
        # measured correcting factors; the matched partner value stays odd
        etas = {eta.index(): eta for eta in ascending_surjections(2 * n, n, n)}
        strays = invariants.evaluate(base, etas)
        fixes = [(etas[i], -s) for i, s in strays.items()]
        base = _product(n, fixes, surjection_generator, [base])
    return power(base, exponent)


def _product(n: int, terms, generator, parts=()) -> Diagram:
    """``parts``, then ``generator(t, e)`` for each (t, e) of ``terms`` with
    e nonzero, stacked top to bottom: every stack of generator powers here."""
    return stack_all([*parts, *(generator(t, e) for t, e in terms if e)], n)


def milnor_link(n: int) -> Diagram:
    """The n-component chain link whose only nonvanishing invariant up to
    length n is the identity index, with value 1."""
    if n < 2:
        raise ValueError("need at least 2 components")
    return closure(tree_tangle(n, tuple(range(1, n + 1))))


def whitehead_link() -> Diagram:
    """Linking number zero, vanishing length-3 invariants, and
    invariant 1 on the index 1122."""
    return closure(tree_tangle(2, (1, 2, 2)))


# unused here; kept because perfbench/traced_child.py wraps it by name
def mu_of(l: Diagram, pi: Injection) -> int:
    return invariants.mu(l, pi.values)


class HomotopyNormalForm(namedtuple("HomotopyNormalForm", "n exponents")):
    """``exponents`` maps every ordered injection for n to an integer."""

    __slots__ = ()

    def ordered(self):
        return [(pi, self.exponents[pi]) for pi in all_injections(self.n)]

    def realize(self) -> Diagram:
        return _product(self.n, self.ordered(), injection_generator)

    def to_json(self):
        return [
            {"injection": list(pi.values), "exponent": e}
            for pi, e in self.ordered()
        ]


def homotopy_normal_form(l: Diagram) -> HomotopyNormalForm:
    """Exponents of the link-homotopy normal form of a string link.

    Level by level: the exponent of each arity-(i+1) injection is the
    string link's invariant minus the same invariant of the concretely
    rebuilt product of all lower levels.  The string link is read once, at
    depth n; each partial product, held only reduced, once at its level's
    depth.  The form is cached on the string link.
    """
    if l.closed:
        raise ValueError("normal forms are defined for string links")
    if "normal_form" in l._cache:
        return l._cache["normal_form"]
    n = l.n
    target = invariants.evaluate(l, [pi.values for pi in all_injections(n)])
    exponents: dict[Injection, int] = {}
    partial = trivial_string_link(n)
    for k in range(2, n + 1):
        level = injections(k, n)
        built = invariants.evaluate(partial, [pi.values for pi in level])
        for pi in level:
            exponents[pi] = target[pi.values] - built[pi.values]
        if k == n:
            break  # nothing reads the product of every level
        terms = [(pi, exponents[pi]) for pi in level]
        partial = reduced(_product(n, terms, injection_generator, [partial]))
    l._cache["normal_form"] = HomotopyNormalForm(n, exponents)
    return l._cache["normal_form"]


def link_homotopic(a: Diagram, b: Diagram) -> bool:
    """String links are link-homotopic iff their normal forms agree: the
    exponents are a complete link-homotopy invariant (Habegger-Lin, The
    classification of links up to link-homotopy, 1990)."""
    if a.n != b.n:
        raise ValueError("component counts differ")
    return homotopy_normal_form(a) == homotopy_normal_form(b)


def homotopy_classes_agree(a: Diagram, b: Diagram, k: int) -> bool:
    """Equality of all repetition-free invariants of length at most k; for
    k = n this decides link-homotopy, and in general it decides equivalence
    up to combined self-crossing changes and k-fold clasp moves."""
    if not 1 <= k <= a.n:
        raise ValueError(f"k={k} out of range 1..{a.n}")
    if a.closed or b.closed:
        raise ValueError("exact invariants are defined for string links")
    if a.n != b.n:
        raise ValueError("component counts differ")
    indices = list(invariants.indices_up_to(a.n, k, 1))
    return invariants.evaluate(a, indices) == invariants.evaluate(b, indices)


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNDECIDED = "undecided"


class SelfDeltaVector:
    """The nonzero residues of a closed link's invariants with repetition at
    most 2 and length at most 2n, which every self-delta verdict reads.

    The classification's hypothesis is that the values shorter than 2n
    vanish; when it holds, the length-2n values (each component used
    exactly twice), zeros included, are the classifying ``entries``, and the
    link is self-delta trivial iff no residue is nonzero.
    """

    def __init__(self, table: invariants.InvariantTable):
        n = self.n = table.n
        self.nonzero = table.nonzero()
        # the nonzero values shorter than 2n, and the classifying length-2n
        # values, reported only when the hypothesis holds
        self.failures = {i: r for i, r in self.nonzero.items() if len(i) < 2 * n}
        self.hypothesis_ok = not self.failures
        self.entries = {}
        if self.hypothesis_ok:
            self.entries = {i: r for i, r in table.entries.items() if len(i) == 2 * n}
        self.trivial = not self.nonzero

    def equivalent(self, other: SelfDeltaVector) -> Verdict:
        """No when the nonzero residues differ, else yes when the hypothesis
        holds and undecided when it does not: the verdict of comparing whole
        tables.  Two tables through 2n are equal iff their nonzero residues
        are, by induction on length, as each modulus is the gcd of the values
        and moduli of shorter residues.  Equal tables share ``hypothesis_ok``
        and ``entries``, and under the hypothesis the length-2n values
        classify."""
        if self.n != other.n:
            raise ValueError("component counts differ")
        if self.nonzero != other.nonzero:
            return Verdict.NO
        return Verdict.YES if self.hypothesis_ok else Verdict.UNDECIDED

    def to_json(self):
        data = {
            "components": self.n,
            "hypothesis_ok": self.hypothesis_ok,
            "entries": _residues_json(self.entries, self.n),
        }
        if self.failures:
            data["low_order_nonzero"] = _residues_json(self.failures, self.n)
        return data


def _residues_json(values: dict, n: int) -> dict:
    return {
        format_index(i, n): {"value": r.value, "modulus": r.modulus}
        for i, r in values.items()
    }


def selfdelta_vector(l: Diagram) -> SelfDeltaVector:
    """The self-delta vector of a closed link, from one table through length
    2n, cached on the link."""
    if not l.closed:
        raise ValueError("self-delta classification applies to closed links")
    if "selfdelta_vector" not in l._cache:
        l._cache["selfdelta_vector"] = SelfDeltaVector(invariants.table(l, 2 * l.n, 2))
    return l._cache["selfdelta_vector"]


def selfdelta_equivalent(a: Diagram, b: Diagram) -> Verdict:
    """Decide self-delta equivalence where the classification applies; see
    ``SelfDeltaVector.equivalent``."""
    return selfdelta_vector(a).equivalent(selfdelta_vector(b))


def selfdelta_trivial(l: Diagram) -> bool:
    """Self-delta equivalent to a trivial link iff every invariant with
    repetition at most 2 vanishes (length 2n suffices)."""
    return selfdelta_vector(l).trivial


def link_homotopy_trivial(l: Diagram) -> bool:
    """Link-homotopic to a trivial link iff every repetition-free invariant
    vanishes.

    The shortest nonzero value is exact (its indeterminacy is a gcd of
    shorter repetition-free values, all zero), so raw coefficients decide,
    and the decision stops at the first length with a nonzero value.  Each
    length k reads only the ordered injections: when every shorter value
    vanishes, the level-k exponents of the cut-open link's normal form
    (``homotopy_normal_form``) are exactly these values, and they vanish
    iff every repetition-free value of length k does (Habegger-Lin, The
    classification of links up to link-homotopy, 1990).  A length whose
    injections could not even be listed under the soft ``RLIMIT_AS`` is
    refused with ``MemoryError`` before any is listed.
    """
    if not l.closed:
        raise ValueError("this decision applies to closed links")
    for k in range(2, l.n + 1):
        # refuse a length whose list alone cannot fit: C(n, k) (k - 2)!
        # injections, each listed as at least a k-tuple
        need = math.comb(l.n, k) * math.factorial(k - 2) * sys.getsizeof((0,) * k)
        _must_fit(need, f"the {k}-entry injections of {l.n} components")
        indices = [pi.values for pi in injections(k, l.n)]
        if any(invariants.evaluate(l, indices).values()):
            return False
    return True


class BrunnianForm(namedtuple("BrunnianForm", "n parity doubled single")):
    """Exponents by surjection family: ``parity`` (palindromic, odd length) 0
    or 1; ``doubled`` (palindromic) and ``single`` (ascending), length 2n."""

    __slots__ = ()

    def realize(self) -> Diagram:
        families = (self.parity, self.doubled, self.single)
        terms = [kv for f in families for kv in sorted(f.items(), key=lambda kv: kv[0].values)]
        return _product(self.n, terms, surjection_generator)


def brunnian_representative(l: Diagram) -> BrunnianForm:
    """Exponents of the self-delta representative of a Brunnian link whose
    repetition-2 invariants vanish through length 2n-1.

    The caller asserts Brunnian-ness; the vanishing hypothesis is checked.
    Parity exponents come from the length-2n palindromic values matched
    through the odd-length palindromic family; the remaining exponents
    measure the difference against the concretely rebuilt parity part.
    """
    vec = selfdelta_vector(l)
    n = l.n
    if not vec.hypothesis_ok:
        raise ValueError(
            "low-order invariants do not vanish; the representative "
            "construction does not apply"
        )
    parity = {}
    for phi in palindromic_surjections(2 * n - 1, n, n):
        parity[phi] = vec.entries[palindromic_partner(phi).index()].value % 2
    # palindromic surjections come out lexicographically, realize's order
    base = _product(n, parity.items(), surjection_generator)
    doubled = {}
    taus = palindromic_surjections(2 * n, n, n)
    built = invariants.evaluate(base, [tau.index() for tau in taus])
    for tau in taus:
        diff = vec.entries[tau.index()].value - built[tau.index()]
        if diff % 2:
            raise ValueError(
                f"parity obstruction at {tau.values}: difference {diff} is odd"
            )
        doubled[tau] = diff // 2
    single = {}
    for eta in ascending_surjections(2 * n, n, n):
        single[eta] = vec.entries[eta.index()].value
    return BrunnianForm(n, parity, doubled, single)


def cabling_cross_check(l: Diagram) -> bool:
    """Two routes to triviality must agree: every repetition-2 invariant of
    the link vanishes iff its reduced 2-cable is link-homotopically trivial."""
    return selfdelta_vector(l).trivial == link_homotopy_trivial(reduced(cable(l, [2] * l.n)))
