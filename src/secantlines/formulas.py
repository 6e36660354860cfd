"""Closed-form dimensions, defect, and case classification for secant lines of
varieties of reducible plane curves.

Everything in this module is exact integer arithmetic. Several quantities have
two independent derivations; where that happens both are computed and a
disagreement raises DerivationMismatchError, under ``python -O`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb

from .partitions import DerivedQuantities, Partition, derived


class NegativeDegreeError(ValueError):
    """A graded piece was requested at a negative degree."""


class DerivationMismatchError(RuntimeError):
    """Two independent derivations of one closed-form quantity disagree."""


def _check_agreement(name: str, partition: Partition, first, second) -> None:
    if first != second:
        raise DerivationMismatchError(
            f"{name}{partition}: the two derivations give {first} and {second}"
        )


# Each closed form is written once, in a private helper that takes the
# quantities it depends on as arguments. `classify` computes every quantity
# once through them and hands it on; each public per-quantity function reads
# its field off `classify`, so it runs every check.


def _dim_variety(partition: Partition, q: DerivedQuantities) -> int:
    value = sum(comb(di + 2, 2) for di in partition.parts) - partition.r
    _check_agreement("dim_variety", partition, value, q.N - q.D)
    return value


def dim_variety(partition: Partition) -> int:
    """Dimension of the variety of plane curves splitting with the given factor
    degrees: sum_i [C(d_i + 2, 2) - 1], checked against C(d+2,2) - D - 1."""
    return classify(partition).dim_X


def _expected_dim_sigma2(q: DerivedQuantities, dim_X: int) -> int:
    return min(q.N, 2 * dim_X + 1)


def expected_dim_sigma2(partition: Partition) -> int:
    """Parameter-count bound min{N, 2*dim_X + 1} for the secant line variety."""
    return classify(partition).exp_dim_sigma2


def hilbert_function_theory(partition: Partition, j: int) -> int:
    """Hilbert function at degree j of the plane quotient by the ideal generated
    by the all-but-one factor products of a general factored form.

    Stabilizes at D for j >= d - 2; below that it equals
    C(j+2,2) - sum_i C(max{j - d + d_i, -1} + 2, 2). The two branches overlap at
    j in {d-2, d-1} and are checked to agree there.
    """
    if j < 0:
        raise NegativeDegreeError(f"degree must be >= 0, got {j}")
    q = derived(partition)
    if j >= q.d:
        return q.D
    value = comb(j + 2, 2) - sum(
        comb(max(j - q.d + di, -1) + 2, 2) for di in partition.parts
    )
    if j >= q.d - 2:
        _check_agreement("hilbert_function_theory", partition, value, q.D)
    return value


def _is_defective(partition: Partition, q: DerivedQuantities) -> bool:
    return partition.parts[0] >= q.s and q.two_p_minus_three_s > 0


def is_defective(partition: Partition) -> bool:
    """Whether the secant line variety falls short of its expected dimension.

    True exactly when the partition is unbalanced (d1 >= s) and 2p - 3s > 0.
    """
    return classify(partition).defective


def _unbalanced_dim_IZ(partition: Partition, q: DerivedQuantities) -> int:
    # C(d1 - s + 2, 2), for d1 >= s - 1 only.
    return comb(partition.parts[0] - q.s + 2, 2)


def _defect(
    partition: Partition, q: DerivedQuantities, defective: bool, exp_dim_IZ: int
) -> int:
    if not defective:
        return 0
    unbalanced = _unbalanced_dim_IZ(partition, q)
    min_form = min(unbalanced, q.two_p_minus_three_s)
    # exp_dim_IZ > 0 exactly when C(d+2,2) - 2D > 0.
    branch_form = q.two_p_minus_three_s if exp_dim_IZ > 0 else unbalanced
    _check_agreement("defect", partition, min_form, branch_form)
    return min_form


def defect(partition: Partition) -> int:
    """Dimension shortfall of the secant line variety; 0 when not defective.

    For defective partitions this is min{C(d1 - s + 2, 2), 2p - 3s}, which must
    coincide with the branch form: 2p - 3s when C(d+2,2) - 2D > 0, else
    C(d1 - s + 2, 2). Both are computed and checked equal.
    """
    return classify(partition).delta2


def _expected_dim_IZ(q: DerivedQuantities) -> int:
    return max(q.N + 1 - 2 * q.D, 0)


def expected_dim_IZ(partition: Partition) -> int:
    """Expected dimension max{C(d+2,2) - 2D, 0} of the degree-d forms through
    the union of the two point sets cut out by two general factored forms."""
    return classify(partition).exp_dim_IZ


def _dim_IZ(
    partition: Partition, q: DerivedQuantities, exp_dim_IZ: int, delta2: int
) -> int:
    value = exp_dim_IZ + delta2
    if partition.parts[0] >= q.s - 1 and q.two_p_minus_three_s > 0:
        _check_agreement(
            "dim_IZ_theory", partition, value, _unbalanced_dim_IZ(partition, q)
        )
    return value


def dim_IZ_theory(partition: Partition) -> int:
    """Actual dimension of the degree-d forms through the union of the two point
    sets: expected value plus the defect.

    In the unbalanced-positive regime (d1 >= s - 1 and 2p - 3s > 0) this must
    collapse to the closed form C(d1 - s + 2, 2); checked.
    """
    return classify(partition).dim_IZ


def _dim_sigma2(
    partition: Partition, exp_dim_sigma2: int, delta2: int, dim_X: int, dim_IZ: int
) -> int:
    value = exp_dim_sigma2 - delta2
    _check_agreement("dim_sigma2_theory", partition, value, 2 * dim_X + 1 - dim_IZ)
    return value


def dim_sigma2_theory(partition: Partition) -> int:
    """Dimension of the secant line variety: expected dimension minus defect.

    Must agree with the span-of-two-tangent-spaces form
    2*dim_X + 1 - dim_IZ; checked.
    """
    return classify(partition).dim_sigma2


def _fills_ambient(partition: Partition, q: DerivedQuantities, dim_sigma2: int) -> bool:
    flag = q.two_p_minus_three_s <= 0 or partition.parts == (2, 2, 2, 1)
    _check_agreement("fills_ambient", partition, flag, dim_sigma2 == q.N)
    return flag


def fills_ambient(partition: Partition) -> bool:
    """Whether the secant line variety is all of projective N-space.

    True iff 3s - 2p >= 0 or the partition is exactly [2,2,2,1]; must agree with
    dim_sigma2_theory == N, checked.
    """
    return classify(partition).fills_ambient


class CaseLabel(str, Enum):
    """Closed family list partitioning all partitions by the sign of 2p - 3s.

    The first block has 2p - 3s <= 0 (never defective); the second block has
    2p - 3s > 0 (defective exactly when additionally d1 >= s).
    """

    R2 = "r2"
    R3_PAIR_A1 = "r3_pair_a1"
    R3_PAIR_22 = "r3_pair_22"
    R3_PAIR_32 = "r3_pair_32"
    R3_PAIR_42 = "r3_pair_42"
    R3_PAIR_52 = "r3_pair_52"
    R3_PAIR_62 = "r3_pair_62"
    R3_PAIR_33 = "r3_pair_33"
    R4_TAIL_111 = "r4_tail_111"
    R4_TAIL_211 = "r4_tail_211"
    R4_TAIL_311 = "r4_tail_311"
    R4_TAIL_411 = "r4_tail_411"
    R5_ALL_ONES_TAIL = "r5_all_ones_tail"

    R3_D3EQ2_D2GE7 = "r3_d3eq2_d2ge7"
    R3_D3EQ3_D2GE4 = "r3_d3eq3_d2ge4"
    R3_D3GE4 = "r3_d3ge4"
    R4_D3GE2 = "r4_d3ge2"
    R4_D2GE5 = "r4_d2ge5"
    R5_D2GE2 = "r5_d2ge2"
    R6PLUS = "r6plus"

    @property
    def defective_side(self) -> bool:
        """True for the families where 2p - 3s > 0."""
        return self in _DEFECTIVE_SIDE


_DEFECTIVE_SIDE = frozenset(
    {
        CaseLabel.R3_D3EQ2_D2GE7,
        CaseLabel.R3_D3EQ3_D2GE4,
        CaseLabel.R3_D3GE4,
        CaseLabel.R4_D3GE2,
        CaseLabel.R4_D2GE5,
        CaseLabel.R5_D2GE2,
        CaseLabel.R6PLUS,
    }
)

_R3_SMALL_PAIRS = {
    2: CaseLabel.R3_PAIR_22,
    3: CaseLabel.R3_PAIR_32,
    4: CaseLabel.R3_PAIR_42,
    5: CaseLabel.R3_PAIR_52,
    6: CaseLabel.R3_PAIR_62,
}

_R4_ONES_TAILS = (
    CaseLabel.R4_TAIL_111,
    CaseLabel.R4_TAIL_211,
    CaseLabel.R4_TAIL_311,
    CaseLabel.R4_TAIL_411,
)


def _case_label(partition: Partition, q: DerivedQuantities) -> CaseLabel:
    parts = partition.parts
    r = partition.r
    if r == 2:
        label = CaseLabel.R2
    elif r == 3:
        d2, d3 = parts[1], parts[2]
        if d3 == 1:
            label = CaseLabel.R3_PAIR_A1
        elif d3 == 2:
            label = _R3_SMALL_PAIRS.get(d2, CaseLabel.R3_D3EQ2_D2GE7)
        elif d3 == 3:
            label = CaseLabel.R3_PAIR_33 if d2 == 3 else CaseLabel.R3_D3EQ3_D2GE4
        else:
            label = CaseLabel.R3_D3GE4
    elif r == 4:
        d2, d3 = parts[1], parts[2]
        if d3 >= 2:
            label = CaseLabel.R4_D3GE2
        elif d2 >= 5:
            label = CaseLabel.R4_D2GE5
        else:
            label = _R4_ONES_TAILS[d2 - 1]
    elif r == 5:
        label = (
            CaseLabel.R5_D2GE2 if parts[1] >= 2 else CaseLabel.R5_ALL_ONES_TAIL
        )
    else:
        label = CaseLabel.R6PLUS
    _check_agreement(
        "classify_case", partition, label.defective_side, q.two_p_minus_three_s > 0
    )
    return label


def classify_case(partition: Partition) -> CaseLabel:
    """Which family the partition belongs to; exactly one label applies.

    The family is determined by r and the tail (d2, ..., dr) alone, and its side
    of the enumeration agrees with the sign of 2p - 3s (checked).
    """
    return classify(partition).case_label


@dataclass(frozen=True)
class ClassificationReport:
    """Every theory-side number for one partition."""

    partition: Partition
    d: int
    D: int
    N: int
    s: int
    p: int
    two_p_minus_three_s: int
    dim_X: int
    exp_dim_sigma2: int
    exp_dim_IZ: int
    defective: bool
    delta2: int
    dim_sigma2: int
    dim_IZ: int
    fills_ambient: bool
    case_label: CaseLabel

    def to_dict(self) -> dict:
        return {
            "lambda": list(self.partition.parts),
            "r": self.partition.r,
            "d": self.d,
            "D": self.D,
            "N": self.N,
            "s": self.s,
            "p": self.p,
            "two_p_minus_three_s": self.two_p_minus_three_s,
            "dim_X": self.dim_X,
            "exp_dim_sigma2": self.exp_dim_sigma2,
            "exp_dim_IZ": self.exp_dim_IZ,
            "defective": self.defective,
            "delta2": self.delta2,
            "dim_sigma2": self.dim_sigma2,
            "dim_IZ": self.dim_IZ,
            "fills_ambient": self.fills_ambient,
            "case_label": self.case_label.value,
        }


def classify(partition: Partition) -> ClassificationReport:
    """Evaluate every closed-form quantity for one partition, each once, and
    check every quantity that has two derivations."""
    q = derived(partition)
    dim_X = _dim_variety(partition, q)
    exp_dim_sigma2 = _expected_dim_sigma2(q, dim_X)
    exp_dim_IZ = _expected_dim_IZ(q)
    defective = _is_defective(partition, q)
    delta2 = _defect(partition, q, defective, exp_dim_IZ)
    dim_IZ = _dim_IZ(partition, q, exp_dim_IZ, delta2)
    dim_sigma2 = _dim_sigma2(partition, exp_dim_sigma2, delta2, dim_X, dim_IZ)
    return ClassificationReport(
        partition=partition,
        d=q.d,
        D=q.D,
        N=q.N,
        s=q.s,
        p=q.p,
        two_p_minus_three_s=q.two_p_minus_three_s,
        dim_X=dim_X,
        exp_dim_sigma2=exp_dim_sigma2,
        exp_dim_IZ=exp_dim_IZ,
        defective=defective,
        delta2=delta2,
        dim_sigma2=dim_sigma2,
        dim_IZ=dim_IZ,
        fills_ambient=_fills_ambient(partition, q, dim_sigma2),
        case_label=_case_label(partition, q),
    )
