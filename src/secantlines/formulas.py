"""Closed-form dimensions, defect, and case classification for secant lines of
varieties of reducible plane curves.

Two functions make the API: `classify` gives every quantity for one
partition (`ClassificationReport` states each closed form), and
`hilbert_function_theory` the Hilbert function at one degree. Everything in
this module is exact integer arithmetic. Several quantities have two
independent derivations; where that happens both are computed and a
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


# Each closed form is written once, in `classify` or in a private helper that
# takes the quantities it depends on as arguments; `classify` computes every
# quantity once and hands it on.


def hilbert_function_theory(partition: Partition, j: int) -> int:
    """Hilbert function at degree j of the plane quotient by the ideal generated
    by the all-but-one factor products of a general factored form.

    Stabilizes at D for j >= d - 2; below that it equals
    C(j+2,2) - sum_i C(max{j - d + d_i, -1} + 2, 2). The two branches overlap at
    j in {d-2, d-1} and are checked to agree there.
    """
    if j < 0:
        raise NegativeDegreeError(f"degree must be >= 0, got {j}")
    d = partition.d
    if j >= d:
        return derived(partition).D
    value = comb(j + 2, 2) - sum(comb(max(j - d + di, -1) + 2, 2) for di in partition.parts)
    if j >= d - 2:
        _check_agreement("hilbert_function_theory", partition, value, derived(partition).D)
    return value


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
    _check_agreement("delta2", partition, min_form, branch_form)
    return min_form


def _dim_IZ(
    partition: Partition, q: DerivedQuantities, exp_dim_IZ: int, delta2: int
) -> int:
    value = exp_dim_IZ + delta2
    if partition.parts[0] >= q.s - 1 and q.two_p_minus_three_s > 0:
        _check_agreement("dim_IZ", partition, value, _unbalanced_dim_IZ(partition, q))
    return value


def _dim_sigma2(
    partition: Partition, exp_dim_sigma2: int, delta2: int, dim_X: int, dim_IZ: int
) -> int:
    value = exp_dim_sigma2 - delta2
    _check_agreement("dim_sigma2", partition, value, 2 * dim_X + 1 - dim_IZ)
    return value


def _fills_ambient(partition: Partition, q: DerivedQuantities, dim_sigma2: int) -> bool:
    flag = q.two_p_minus_three_s <= 0 or partition.parts == (2, 2, 2, 1)
    _check_agreement("fills_ambient", partition, flag, dim_sigma2 == q.N)
    return flag


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
        "case_label", partition, label.defective_side, q.two_p_minus_three_s > 0
    )
    return label


@dataclass(frozen=True)
class ClassificationReport:
    """Every theory-side number for one partition; its record is `to_dict`, and
    `json_line` is that record in compact JSON from one fixed template.

    d, D, N, s, p and two_p_minus_three_s are `derived`'s. The closed forms,
    and the check on each field that has two derivations:
    - dim_X, the dimension of the variety of split curves:
      sum_i [C(d_i + 2, 2) - 1], checked against C(d+2,2) - D - 1.
    - exp_dim_sigma2, the parameter-count bound for the secant line variety:
      min{N, 2*dim_X + 1}.
    - exp_dim_IZ, the expected dimension of the degree-d forms through the
      union of the two point sets cut out by two general factored forms:
      max{C(d+2,2) - 2D, 0}.
    - defective, whether the secant line variety falls short of
      exp_dim_sigma2: exactly when d1 >= s and 2p - 3s > 0.
    - delta2, the defect: 0 unless defective, else
      min{C(d1 - s + 2, 2), 2p - 3s}, checked against the branch form:
      2p - 3s when C(d+2,2) - 2D > 0, else C(d1 - s + 2, 2).
    - dim_IZ, the actual dimension of those forms: exp_dim_IZ + delta2,
      checked against C(d1 - s + 2, 2) where d1 >= s - 1 and 2p - 3s > 0.
    - dim_sigma2, the dimension of the secant line variety:
      exp_dim_sigma2 - delta2, checked against the span of two tangent
      spaces, 2*dim_X + 1 - dim_IZ.
    - fills_ambient, whether the secant line variety is all of P^N:
      3s - 2p >= 0 or the partition is exactly [2,2,2,1], checked against
      dim_sigma2 == N.
    - case_label, the one family of the case list that applies: set by r and
      the tail (d2, ..., dr) alone, its side checked against the sign of
      2p - 3s.
    """

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

    def json_line(self) -> str:
        """`to_dict` in compact JSON, keys in the same order, and a newline."""
        parts = self.partition.parts
        return (
            f'{{"lambda":[{",".join(map(str, parts))}],"r":{len(parts)},'
            f'"d":{self.d},"D":{self.D},"N":{self.N},"s":{self.s},"p":{self.p},'
            f'"two_p_minus_three_s":{self.two_p_minus_three_s},"dim_X":{self.dim_X},'
            f'"exp_dim_sigma2":{self.exp_dim_sigma2},"exp_dim_IZ":{self.exp_dim_IZ},'
            f'"defective":{"true" if self.defective else "false"},"delta2":{self.delta2},'
            f'"dim_sigma2":{self.dim_sigma2},"dim_IZ":{self.dim_IZ},'
            f'"fills_ambient":{"true" if self.fills_ambient else "false"},'
            f'"case_label":"{self.case_label.value}"}}\n'
        )


def classify(partition: Partition) -> ClassificationReport:
    """Evaluate every closed-form quantity for one partition, each once, and
    check every quantity that has two derivations."""
    q = derived(partition)
    parts = partition.parts
    N, D, two_p_minus_three_s = q.N, q.D, q.two_p_minus_three_s
    # sum_i C(d_i + 2, 2) - r, against the point count C(d+2,2) - 1 - D.
    dim_X = -len(parts)
    for di in parts:
        dim_X += (di + 2) * (di + 1) // 2
    _check_agreement("dim_X", partition, dim_X, N - D)
    exp_dim_sigma2 = min(N, 2 * dim_X + 1)
    exp_dim_IZ = max(N + 1 - 2 * D, 0)
    defective = parts[0] >= q.s and two_p_minus_three_s > 0
    delta2 = _defect(partition, q, defective, exp_dim_IZ)
    dim_IZ = _dim_IZ(partition, q, exp_dim_IZ, delta2)
    dim_sigma2 = _dim_sigma2(partition, exp_dim_sigma2, delta2, dim_X, dim_IZ)
    # One dict update: the frozen __init__'s object.__setattr__ per field
    # costs ten times as much. Keyword order must be field order.
    report = object.__new__(ClassificationReport)
    vars(report).update(
        partition=partition,
        d=q.d,
        D=D,
        N=N,
        s=q.s,
        p=q.p,
        two_p_minus_three_s=two_p_minus_three_s,
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
    return report
