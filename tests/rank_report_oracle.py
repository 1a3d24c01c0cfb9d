"""Oracle for `validate_rank_function`: the direct walk over every subset
T and every element or pair outside it, in mask-major order.

It builds the same `RankReport` as the library, violations in the same
order with the same details, from about 2^p * C(p, 2) Python steps.
"""

from multidegree.polymatroid import RankFunction, RankReport, RankViolation, _mask_to_set


def validate_rank_oracle(r: RankFunction) -> RankReport:
    """Oracle: normalization, then monotonicity by (T, j), then
    submodularity r(T+i) + r(T+j) >= r(T+i+j) + r(T) by (T, i, j)."""
    violations: list[RankViolation] = []
    if r.values[0] != 0:
        violations.append(
            RankViolation(
                "normalization", ((),), f"rank of the empty set is {r.values[0]}, not 0"
            )
        )
    full = r.full_mask
    for mask in range(full + 1):
        for j in range(r.p):
            bit = 1 << j
            if mask & bit:
                continue
            if r.values[mask] > r.values[mask | bit]:
                violations.append(
                    RankViolation(
                        "monotonicity",
                        (_mask_to_set(mask), _mask_to_set(mask | bit)),
                        f"rank drops from {r.values[mask]} to {r.values[mask | bit]}",
                    )
                )
    for mask in range(full + 1):
        for i in range(r.p):
            if mask >> i & 1:
                continue
            for j in range(i + 1, r.p):
                if mask >> j & 1:
                    continue
                a, b = mask | 1 << i, mask | 1 << j
                lhs = r.values[a] + r.values[b]
                rhs = r.values[a | b] + r.values[mask]
                if lhs < rhs:
                    violations.append(
                        RankViolation(
                            "submodularity",
                            (_mask_to_set(a), _mask_to_set(b)),
                            f"r(T1) + r(T2) = {lhs} < {rhs} = r(T1 u T2) + r(T1 n T2)",
                        )
                    )
    return RankReport(valid=not violations, violations=tuple(violations))
