"""Minimal non-faces by exhaustive search, the oracle for
`SimplicialComplex.minimal_nonfaces`.

Every vertex subset up to the largest facet size plus one is a
candidate, tried in order of size and then lexicographically; a
candidate is a minimal non-face when it lies in no facet and each of its
subsets one smaller lies in some facet.  No budget applies.
"""

from itertools import combinations


def minimal_nonfaces_oracle(complex_):
    facets = [set(f) for f in complex_.facets]

    def is_face(subset):
        return any(set(subset) <= f for f in facets)

    vertices = range(1, complex_.nverts + 1)
    return [
        candidate
        for size in range(1, max(map(len, facets)) + 2)
        for candidate in combinations(vertices, size)
        if not is_face(candidate)
        and all(is_face(candidate[:k] + candidate[k + 1 :]) for k in range(size))
    ]
