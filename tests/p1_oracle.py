"""Reference splitting type on the projective line by section counts,
for oracle tests.

splitting_type_by_profile finds the type a second, independent way, as a
cross-check on the column reduction of bundles.splitting_type_p1: it counts
h0(E(m)) for every twist m in a range wide enough that both ends are in
the stable regime, one ReducedEchelon per twist, and fits the splitting
tuple from h0(E(m)) = sum_i max(0, j_i + m + 1).  Its section-degree caps
are heuristic; ProfileInconsistent means they were too small.
"""

from typing import Dict, Tuple

from localsurfaces.laurent import Q
from localsurfaces.linalg import ReducedEchelon
from localsurfaces.polymatrix import PolyMatrix


class ProfileInconsistent(AssertionError):
    """No splitting tuple matches the computed section-count profile."""


def _section_count(T: PolyMatrix, twist: int, degree_cap: int) -> int:
    """dim of global sections of E(twist) on the projective line, where E
    has the u-free transition T: vectors of polynomials s_U with
    T * z^-twist * s_U free of positive z-powers."""
    r = T.size
    echelon = ReducedEchelon()
    for slot in range(r):
        for deg in range(degree_cap + 1):
            vec: Dict[Tuple[int, int], Q] = {}
            for i in range(r):
                entry = T.entries[i][slot]
                for mono, coeff in entry.items():
                    e = mono.z_exp + deg - twist
                    if e > 0:
                        key = (i, e)
                        acc = vec.get(key, Q(0)) + coeff
                        if acc:
                            vec[key] = acc
                        else:
                            vec.pop(key, None)
            echelon.add(vec)
    return r * (degree_cap + 1) - echelon.rank


def splitting_type_by_profile(T: PolyMatrix) -> Tuple[int, ...]:
    """Splitting type (j_1 >= ... >= j_r) of the u-free bundle T on the
    projective line, recovered from the profile of section counts
    h0(E(m)) = sum_i max(0, j_i + m + 1) over a twist range wide enough
    that both ends are in the stable regime."""
    r = T.size
    for row in T.entries:
        for p in row:
            if not p.is_zero and p.max_u_exp() > 0:
                raise ValueError("splitting_type_p1 needs u-free entries")
    _, det_exp = T.unit_det()
    span = 1
    for row in T.entries:
        for p in row:
            if not p.is_zero:
                span = max(span, abs(p.min_z_exp()), abs(p.max_z_exp()))
    reach = r * span + 2
    counts_h: Dict[int, int] = {}
    for m in range(-reach - 2, reach + 1):
        # section degrees propagate through row reduction, adding up to
        # 2*span per rank level
        degree_cap = abs(m) + (2 * r - 1) * span + 2
        counts_h[m] = _section_count(T, m, degree_cap)
    multiplicity: Dict[int, int] = {}
    for c in range(-reach, reach + 1):
        cnt = counts_h[-c] - 2 * counts_h[-c - 1] + counts_h[-c - 2]
        if cnt < 0:
            raise ProfileInconsistent(f"negative multiplicity at degree {c}")
        if cnt:
            multiplicity[c] = cnt
    split: list[int] = []
    for c in sorted(multiplicity, reverse=True):
        split.extend([c] * multiplicity[c])
    if len(split) != r or sum(split) != -det_exp:
        raise ProfileInconsistent(
            f"profile fits {split}, expected rank {r} and degree {-det_exp} "
            f"(window too small)"
        )
    for m, h in counts_h.items():
        if h != sum(max(0, ji + m + 1) for ji in split):
            raise ProfileInconsistent(
                f"section count at twist {m} disagrees with {split}"
            )
    return tuple(split)
