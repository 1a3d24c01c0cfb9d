"""The positivity criterion by the route the library took before it read
scaled integer vertices, for tests.

Each polytope's edge directions from its first vertex are taken in
Fraction arithmetic, wrapped in a `SubspaceFamily` over Q, and ranked by
the public `linear_rank`; the type vector is then tested against every
subset's rank, one sum per subset.  Nothing here scales vertices to
integers or reads the rank walk's table directly.
"""

from __future__ import annotations

from multidegree.polymatroid import SubspaceFamily, linear_rank


def positivity_oracle(polytopes, n):
    """V(K; n) > 0 iff |n| = d and n(J) <= dim(sum_{j in J} K_j) for
    every nonempty J; the polytopes share one ambient dimension d and n
    has one natural number per polytope."""
    d = polytopes[0].d
    p = len(polytopes)
    if sum(n) != d:
        return False
    directions = [
        [[x - y for x, y in zip(v, k.vertices[0])] for v in k.vertices[1:]]
        for k in polytopes
    ]
    r = linear_rank(SubspaceFamily(d, directions))
    return all(
        sum(n[j] for j in range(p) if mask >> j & 1) <= r.of_mask(mask)
        for mask in range(1, 1 << p)
    )
