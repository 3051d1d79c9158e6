"""Constructive Pfister decompositions with machine-checked certificates.

The functions here rewrite a formal sum of Pfister forms into a normal form
whose entries draw their slots from a fixed basis chain, merge entries that
share a common divisor of codimension one, and certify that every step
preserved the class of the sum in the degree-n symbol algebra.  Every
stage takes that algebra, k_n, which run_decomposition fetches once per
request under the caller's tensor cap.

The stratum of a sorted slot tuple is its number of leading 1 slots.  The
least tuple of a class, read off the class map of k_n, has the most of
the class; the certificate and the strata check of verify-paper count
tuples by stratum with strata_counts.

The engine works with the shifted slot vectors v = a + eps rather than the
slot classes a themselves, because the image of <<a_1,...,a_n>> in the
symbol algebra is the tensor of the shifted vectors and tensors are exactly
linear in each position.  Splitting a slot c into a basis factor x therefore
pairs it with the cofactor eps*x*c, and two entries differing in one slot
position merge into the entry carrying eps*c1*c2 there.  The sign carried by
eps is not optional: dropping it changes the residue by a tensor with an
eps factor, which is nonzero on any scheme of level above one.

Termination of the rewrite loop is a lexicographic measure: the number of
slots not equal to 1 never increases and strictly decreases whenever a
stratum rises, and between rises every expansion strictly reduces the
number of basis factors hidden in non-basic slots.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .bounds import profile_bounds
from .errors import InvalidInput, VerificationFailure
from .f2space import iter_bits
from .milnor import DEFAULT_TENSOR_CAP, SymbolAlgebra, SymbolVector, kn_space
from .scheme import Scheme, translate

REWRITE_STEP_CAP = 1 << 20


# ---------------------------------------------------------------------------
# basis chains


class BasisChain(NamedTuple):
    """A basis of the square class group adapted to the square-sum tower.

    The first ranks[m] vectors span the subgroup generated by +-D(2^m); the
    remaining vectors project to a basis of the quotient.  ranks is indexed
    up to the stabilization degree of the tower and clamps beyond it.
    coordinates[c] is the bitmask of basis positions whose sum is the
    class c.
    """

    basis: tuple[int, ...]
    ranks: tuple[int, ...]
    coordinates: tuple[int, ...]

    def rank(self, m: int) -> int:
        return self.ranks[min(m, len(self.ranks) - 1)]


def build_basis_chain(scheme: Scheme) -> BasisChain:
    """Basis of the class group with a prefix spanning each +-D(2^m).

    Each +-D(2^m), in class order, extends the basis by its members not
    yet spanned.  The span is a class mask, and grows by its translate by
    each class that joins the basis.  The first ranks[m] vectors then span
    exactly +-D(2^m), with no rank test needed: pm_d2m reads D(2^m), which
    invariants has checked is a subgroup; D u eps*D is the group generated
    by D and eps; and the chain is nested, as each step of sos_chain
    contains the one before.  Built once per table.
    """
    if scheme._basis_chain is not None:
        return scheme._basis_chain
    stab = scheme.invariants().stabilization
    basis: list[int] = []
    span = 1
    ranks: list[int] = []
    for m in range(stab + 1):
        for e in iter_bits(scheme.pm_d2m(m)):
            if not span >> e & 1:
                basis.append(e)
                span |= translate(span, e)
        ranks.append(len(basis))
    for c in range(1, scheme.size):
        if len(basis) == scheme.d:
            break
        if not span >> c & 1:
            basis.append(c)
            span |= translate(span, c)
    # the basis is a full basis, so the table covers every class
    coordinates = {0: 0}
    for i, v in enumerate(basis):
        for c, picked in list(coordinates.items()):
            coordinates[c ^ v] = picked | (1 << i)
    chain = BasisChain(tuple(basis), tuple(ranks),
                       tuple(coordinates[c] for c in range(scheme.size)))
    scheme._basis_chain = chain
    return chain


# ---------------------------------------------------------------------------
# formal sums of Pfister forms


class PfisterSum(NamedTuple):
    """A formal sum of n-fold Pfister forms, entries as sorted slot tuples."""

    degree: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.entries)

    def as_lists(self) -> list[list[int]]:
        return [list(slots) for slots in self.entries]


def entry_stratum(slots) -> int:
    """Number of leading slots equal to the class 1."""
    m = 0
    for a in slots:
        if a:
            break
        m += 1
    return m


def strata_counts(entries, n: int) -> tuple[int, ...]:
    """Counts of the sorted n-slot tuples in entries by stratum m = 0..n."""
    counts = [0] * (n + 1)
    for slots in entries:
        counts[entry_stratum(slots)] += 1
    return tuple(counts)


def make_sum(scheme: Scheme, n: int, entries) -> PfisterSum:
    if n < 2:
        raise InvalidInput("degree must be at least 2, got %d" % n)
    normalized = []
    for slots in entries:
        slots = tuple(slots)
        if len(slots) != n:
            raise InvalidInput(
                "entry %r has %d slots, expected %d" % (slots, len(slots), n)
            )
        for a in slots:
            if not 0 <= a < scheme.size:
                raise InvalidInput("slot %r is not one of the %d classes"
                                   % (a, scheme.size))
        normalized.append(tuple(sorted(slots)))
    normalized.sort()
    return PfisterSum(n, tuple(normalized))


def sum_residue(algebra: SymbolAlgebra, psum: PfisterSum) -> SymbolVector:
    """Class of the sum in the symbol algebra of its degree."""
    coords = 0
    for slots in psum.entries:
        coords ^= algebra.image_coords(slots)
    return SymbolVector(coords, algebra.dim)


# ---------------------------------------------------------------------------
# rewriting into the basis


def rewrite_to_basis(algebra: SymbolAlgebra, psum: PfisterSum) -> PfisterSum:
    """Rewrite a sum so every entry draws its non-1 slots from the chain.

    The output entries of stratum m have m leading 1 slots and the remaining
    slots are distinct elements of the quotient basis at level m; identical
    entries cancel in pairs.  The residue in the symbol algebra is preserved
    exactly, and the number of entries is bounded by the binomial bound of
    the profile.

    Slots behind m leading 1 slots move within their coset of +-D(2^m),
    unchecked: that needs the 2^m all-ones form to be round (<<1^m, -b>> has
    image 0 in k_{m+1} for each of its values b), as on the provided
    constructors.  On a hand-built table that breaks it, the certificate's
    residue check fails (exit code 3).
    """
    scheme = algebra.scheme
    chain = build_basis_chain(scheme)
    n = psum.degree
    d2m = scheme.invariants().chain
    # work items: (slots, settled); unsettled entries still need their
    # maximal-ones representative computed
    work = [(slots, False) for slots in psum.entries]
    parity: dict[tuple[int, ...], int] = {}
    # stratum 0 entries of one class share the first sorted slots seen in
    # this call, so the output does not depend on earlier calls
    zero_witness: dict[int, tuple[int, ...]] = {}
    # one projection per tuple and call: final entries repeat unsettled ones
    image_of = functools.cache(algebra.image_coords)
    steps = 0
    while work:
        steps += 1
        if steps > REWRITE_STEP_CAP:
            raise VerificationFailure("rewrite did not terminate within the step cap")
        slots, settled = work.pop()
        if not settled:
            image = image_of(slots)
            if not image:
                continue
            # the class's least tuple has its most leading 1 slots; in
            # stratum 0 the entry keeps its own sorted slots instead
            canonical = algebra.classes()[image]
            if not entry_stratum(canonical):
                canonical = zero_witness.setdefault(image, tuple(sorted(slots)))
            work.append((canonical, True))
            continue
        m = entry_stratum(slots)
        a_rank = chain.rank(m)
        d_mask = d2m[min(m, len(d2m) - 1)]
        for i in range(m, n):
            c = slots[i]
            coords = chain.coordinates[c]
            low = coords & ((1 << a_rank) - 1)
            high = coords >> a_rank
            if low == 0 and bin(high).count("1") == 1:
                continue
            # expand slot i: basis factors, a parity slot, and the absorbed
            # remainder from the subgroup part
            factors = [chain.basis[a_rank + j] for j in iter_bits(high)]
            for x in factors:
                work.append((slots[:i] + (x,) + slots[i + 1:], True))
            if len(factors) % 2 == 0:
                work.append((slots[:i] + (0,) + slots[i + 1:], False))
            w = 0
            for j in iter_bits(low):
                w ^= chain.basis[j]
            # w lies in +-D(2^m) = D u eps*D, the span of the first a_rank
            # basis vectors: if eps*w is not in D, then w is
            if w and (d_mask >> (scheme.eps ^ w)) & 1:
                # the slot reduces to 1: the stratum rises
                work.append((slots[:i] + (0,) + slots[i + 1:], False))
            # else the slot reduces to eps and the entry is hyperbolic
            break
        else:
            tail = sorted(slots[m:])
            repeated = next(
                (j for j in range(len(tail) - 1) if tail[j] == tail[j + 1]), None
            )
            if repeated is not None:
                # <<x,x>>-type pairs: the cross term x ox eps*x is a defining
                # relation of the symbol algebra, so the second copy becomes 1
                tail[repeated + 1] = 0
                work.append(((0,) * m + tuple(tail), False))
                continue
            final = (0,) * m + tuple(tail)
            if not image_of(final):
                continue
            parity[final] = parity.get(final, 0) ^ 1
    kept = sorted(slots for slots, odd in parity.items() if odd)
    return PfisterSum(n, tuple(kept))


# ---------------------------------------------------------------------------
# linkage merging


def _linked_pair(algebra: SymbolAlgebra, entries):
    """First pair of entries sharing an (n-1)-fold Pfister divisor.

    Returns (i, j, divisor slots, cofactor_i, cofactor_j) or None.  The
    divisors searched are the class map of k_{n-1}, each nonzero image's
    least sorted slot tuple in tuple order.  The images of <<X, c>> depend
    only on the image of X, and image 0 links no nonzero entry, so the
    first hit is the first over all slot multisets: entries linked through
    slots outside their own spans are found too.
    """
    images = [algebra.image_coords(slots) for slots in entries]
    # an isotropic entry (image 0) is in every row, at c = 1, yet links nothing
    nonzero = [i for i, image in enumerate(images) if image]
    # fewer than two nonzero entries link nothing: no class map is needed
    divisors = (algebra.scheme._kn[algebra.n - 2].classes()
                if len(nonzero) > 1 else {})
    for i, j in itertools.combinations(nonzero, 2):
        for x, divisor in divisors.items():
            row = algebra.last_slot_row(x)
            if images[i] in row and images[j] in row:
                return i, j, divisor, row.index(images[i]), row.index(images[j])
    return None


def find_linked_pair(scheme: Scheme, psum: PfisterSum):
    """_linked_pair of the sum's entries in the k_n of its degree."""
    return _linked_pair(kn_space(scheme, psum.degree), psum.entries)


def merge_linked(algebra: SymbolAlgebra, psum: PfisterSum) -> PfisterSum:
    """Merge linked entry pairs until none remain.

    Two entries isometric to <<X, c1>> and <<X, c2>> over a common divisor
    X sum to the residue of <<X, eps*c1*c2>>, so the pair collapses to one
    entry, or to nothing when the merged form is hyperbolic.
    """
    eps = algebra.scheme.eps
    entries = list(psum.entries)
    while (hit := _linked_pair(algebra, entries)) is not None:
        i, j, divisor, ci, cj = hit
        merged = tuple(sorted(divisor + (eps ^ ci ^ cj,)))
        del entries[j]
        del entries[i]
        if algebra.image_coords(merged):
            entries.append(merged)
        entries.sort()
    return PfisterSum(psum.degree, tuple(sorted(entries)))


# ---------------------------------------------------------------------------
# certificates


class DecompositionCertificate(NamedTuple):
    """Verification record tying an input sum to its decomposition."""

    degree: int
    input_sum: PfisterSum
    output_sum: PfisterSum
    residue_coords: int
    residue_dim: int
    residues_equal: bool
    strata_input: tuple[int, ...]
    strata_output: tuple[int, ...]
    strata_caps: tuple[int, ...]
    counts_ok: bool
    binomial_bound: int
    linked_bound: int
    length_ok: bool
    passed: bool

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "input": self.input_sum.as_lists(),
            "output": self.output_sum.as_lists(),
            "residue": {"coords": self.residue_coords, "dim": self.residue_dim},
            "residues_equal": self.residues_equal,
            "strata": {
                "input": list(self.strata_input),
                "output": list(self.strata_output),
                "caps": list(self.strata_caps),
            },
            "counts_ok": self.counts_ok,
            "bounds": {
                "binomial": self.binomial_bound,
                "linked": self.linked_bound,
            },
            "length_ok": self.length_ok,
            "passed": self.passed,
        }


def certify(algebra: SymbolAlgebra, input_sum: PfisterSum,
            output_sum: PfisterSum) -> DecompositionCertificate:
    """Check residue equality, per-stratum counts and the length bound.

    The stratum caps and the binomial and linked-power bounds are read from
    the memoized bound record of the scheme's profile (profile_bounds).
    """
    scheme, n = algebra.scheme, algebra.n
    if input_sum.degree != n or output_sum.degree != n:
        raise InvalidInput(
            "certificate degree %d does not match the sums (%d, %d)"
            % (n, input_sum.degree, output_sum.degree)
        )
    r_in = sum_residue(algebra, input_sum)
    r_out = sum_residue(algebra, output_sum)
    residues_equal = r_in == r_out
    record = profile_bounds(scheme.invariants(), n)
    caps = record.strata_caps
    strata_in = strata_counts(input_sum.entries, n)
    strata_out = strata_counts(output_sum.entries, n)
    counts_ok = all(strata_out[m] <= caps[m] for m in range(n + 1))
    binomial = record.value("binomial")
    linked = record.value("linked-power")
    length_ok = output_sum.length <= binomial
    return DecompositionCertificate(
        degree=n,
        input_sum=input_sum,
        output_sum=output_sum,
        residue_coords=r_in.coords,
        residue_dim=r_in.dim,
        residues_equal=residues_equal,
        strata_input=strata_in,
        strata_output=strata_out,
        strata_caps=caps,
        counts_ok=counts_ok,
        binomial_bound=binomial,
        linked_bound=linked,
        length_ok=length_ok,
        passed=residues_equal and counts_ok and length_ok,
    )


def run_decomposition(scheme: Scheme, psum: PfisterSum, merge: bool = True,
                      tensor_cap: int = DEFAULT_TENSOR_CAP):
    """Full pipeline: rewrite into the basis, optionally merge, certify.

    k_n is fetched once, under the caller's tensor cap, and every stage
    works in it; a refused degree fails before any rewriting.
    """
    algebra = kn_space(scheme, psum.degree, tensor_cap)
    rewritten = rewrite_to_basis(algebra, psum)
    final = merge_linked(algebra, rewritten) if merge else rewritten
    return final, certify(algebra, psum, final)
