"""Transport of resolutions along maps of LCM-lattices.

Two morphisms with the same number of columns are quasi-equivalent (under
a given column correspondence) when their coefficient matrices have the
same kernel: the induced surjections onto the images then agree up to a
choice of bases.  A degree map between the two lattices is compatible with
the pair when it sends each column degree to the corresponding one, and it
can transport a complex when it preserves the joins that actually occur as
generator degrees (``check_join_preserving`` reads that off the LCM-lattice
table ``phi.degree_index.lattice()``, not off the 2^e column subsets):
coefficients stay untouched, the degrees of generators above level 0 are
pushed through the map, level 0 and the presentation map are replaced by
the target morphism's, and the ``GradedComplex`` constructor checks
homogeneity of the recomputed shifts.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from . import degrees as deg
from .degrees import Multidegree
from .errors import DimensionError, FormatError, MissingKey, RankMismatch
from .linalg import kernel_basis
from .morphism import Morphism
from .systems import GradedComplex, presentation_labels


class RelabelMap:
    """A finite table of multidegrees to multidegrees; partial is fine.

    Lookups outside the table raise MissingKey; only the degrees actually
    queried need to be present.
    """

    def __init__(self, pairs):
        self.table: dict[Multidegree, Multidegree] = {}
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        for src, dst in items:
            key, val = tuple(src), tuple(dst)
            if key in self.table and self.table[key] != val:
                raise FormatError(f"duplicate key {key} with conflicting images")
            self.table[key] = val

    def apply(self, a: Sequence[int]) -> Multidegree:
        key = tuple(a)
        try:
            return self.table[key]
        except KeyError:
            raise MissingKey(key) from None


def _correspondence(phi: Morphism, phi2: Morphism, correspondence) -> list[int]:
    if phi.e != phi2.e:
        raise RankMismatch(f"source ranks differ: {phi.e} vs {phi2.e}")
    if correspondence is None:
        return list(range(1, phi.e + 1))
    corr = [int(c) for c in correspondence]
    if sorted(corr) != list(range(1, phi.e + 1)):
        raise DimensionError(f"correspondence {corr} is not a permutation of 1..{phi.e}")
    return corr


def check_quasi_equivalent(
    phi: Morphism, phi2: Morphism, correspondence: Sequence[int] | None = None
) -> bool:
    """Equal coefficient kernels under the column correspondence, read off
    the r x e matrices uv: C = B uv with B injective, so ker C = ker uv."""
    corr = _correspondence(phi, phi2, correspondence)
    uv1, uv2 = phi.coeff_data.uv, phi2.coeff_data.uv
    permuted = uv2.submatrix(range(uv2.rows), [c - 1 for c in corr])
    return kernel_basis(uv1) == kernel_basis(permuted)


def check_qe_compatible(
    f: RelabelMap,
    phi: Morphism,
    phi2: Morphism,
    correspondence: Sequence[int] | None = None,
) -> bool:
    """f sends each column degree of phi to the corresponding one of phi2."""
    corr = _correspondence(phi, phi2, correspondence)
    return all(
        f.apply(phi.source_degrees[i]) == phi2.source_degrees[corr[i] - 1]
        for i in range(phi.e)
    )


def check_join_preserving(
    f: RelabelMap,
    phi: Morphism,
    phi2: Morphism,
    min_size: int,
    correspondence: Sequence[int] | None = None,
):
    """f commutes with joins of every column subset of at least min_size.

    Read off ``phi.degree_index.lattice()``: the subsets of join a lie in
    I_a, one of them I_a, so only degrees with |I_a| >= min_size matter,
    and there f(a) must be b, the join of phi2's corresponding degrees over
    I_a.  A subset of join a whose image misses b_k lies in T_k, the columns
    of I_a below b_k in phi2's coordinate k, so (joins being monotone) one
    exists iff some T_k has min_size columns and join a.  The empty subset
    has no join, so a min_size below 1 answers as 1.  Returns (True, None) or
    (False, the first failing degree in lattice order); MissingKey at the
    first degree needed that f lacks."""
    min_size = max(min_size, 1)
    corr = _correspondence(phi, phi2, correspondence)
    d2 = [phi2.source_degrees[c - 1] for c in corr]
    for a, mask in phi.degree_index.lattice().items():
        if mask.bit_count() < min_size:
            continue
        cols = phi.columns(mask)
        b = deg.join_all(d2[j - 1] for j in cols)
        if f.apply(a) != b:
            return False, a
        for k, top in enumerate(b):
            low = [j for j in cols if d2[j - 1][k] < top]
            if len(low) >= min_size and phi.face_degree(low) == a:
                return False, a
    return True, None


def relabel(f: RelabelMap, x: GradedComplex, phi2: Morphism) -> GradedComplex:
    """Transport x along f onto the target morphism.

    Level 0 becomes the target's free module and the presentation entries
    are the target morphism's; degrees at levels 1 and up are mapped
    through f with coefficients unchanged and labels kept (DimensionError
    across fields, or when an image is not a multidegree of phi2; the
    constructor raises NegativeShift on a negative recomputed shift).
    """
    if x.field != phi2.field:
        raise DimensionError(f"complex over {x.field.name}, target morphism over {phi2.field.name}")
    if len(x.levels) < 2 or len(x.levels[1]) != phi2.e:
        raise DimensionError(
            "level 1 of the complex does not match the target morphism's source rank"
        )
    seen = dict.fromkeys(d for level in x.levels[1:] for d in level)
    image = {d: deg.as_degree(f.apply(d), phi2.n) for d in seen}
    levels = [phi2.target_degrees, *([image[d] for d in level] for level in x.levels[1:])]
    for j, d in enumerate(x.levels[1]):
        if image[d] != phi2.source_degrees[j]:
            raise DimensionError(
                f"f sends level-1 degree {d} to {image[d]}, "
                f"but the target column {j + 1} has degree {phi2.source_degrees[j]}"
            )
    labels = [presentation_labels(phi2)[0], *x.labels[1:]]
    diffs = [phi2.coeff_data.matrix, *x.diffs[1:]]
    return GradedComplex(phi2.field, phi2.n, levels, diffs, labels, var_names=phi2.var_names)
