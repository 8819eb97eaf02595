"""Entropic functionals on labeled states: conditional entropy, mutual and
coherent information, and the Holevo quantity of an ensemble."""

from __future__ import annotations

from typing import Iterable

from .errors import ValidationError
from .states import CqState, DensityMatrix, partial_trace, purify, von_neumann_entropy


def _label_set(labels) -> set:
    if isinstance(labels, str):
        return {labels}
    return set(labels)


def _entropy_of(rho: DensityMatrix, labels: set) -> float:
    if set(rho.layout.labels) == labels:
        return von_neumann_entropy(rho)
    return von_neumann_entropy(partial_trace(rho, labels))


def conditional_entropy(rho: DensityMatrix, a, b) -> float:
    """H(A|B) = H(AB) - H(B); ``a`` and ``b`` are labels or label sets."""
    a, b = _label_set(a), _label_set(b)
    if a & b:
        raise ValidationError(f"conditional_entropy label sets overlap: {sorted(a & b)}")
    if not b:
        return _entropy_of(rho, a)
    return _entropy_of(rho, a | b) - _entropy_of(rho, b)


def coherent_information(rho: DensityMatrix, a, b) -> float:
    """I(A>B) = -H(A|B)."""
    return -conditional_entropy(rho, a, b)


def mutual_information(rho: DensityMatrix, a, b) -> float:
    """I(A;B) = H(A) + H(B) - H(AB)."""
    a, b = _label_set(a), _label_set(b)
    if a & b:
        raise ValidationError(f"mutual_information label sets overlap: {sorted(a & b)}")
    return _entropy_of(rho, a) + _entropy_of(rho, b) - _entropy_of(rho, a | b)


def conditional_mutual_information(rho: DensityMatrix, a, b, c) -> float:
    """I(A;B|C) = H(A|C) - H(A|BC); nonnegative by strong subadditivity."""
    a, b, c = _label_set(a), _label_set(b), _label_set(c)
    if (a & b) or (a & c) or (b & c):
        raise ValidationError("conditional_mutual_information label sets must be pairwise disjoint")
    if not c:
        return mutual_information(rho, a, b)
    return (
        _entropy_of(rho, a | c)
        + _entropy_of(rho, b | c)
        - _entropy_of(rho, a | b | c)
        - _entropy_of(rho, c)
    )


def channel_coherent_information(rho_in: DensityMatrix, ch) -> float:
    """Coherent information of a channel at a fixed input.

    Purifies the input against a reference, pushes the original half through
    the channel, and evaluates I(reference > output).
    """
    psi = purify(rho_in)
    ref = psi.layout.labels[0]
    original = list(psi.layout.labels[1:])
    joint = psi.to_density()
    if len(original) > 1:
        joint = joint.merge_labels([(ref, [ref]), ("in", original)])
        target = "in"
    else:
        target = original[0]
    out = ch.apply_to(joint, target)
    return coherent_information(out, {ref}, set(ch.out_layout.labels))


def holevo_information(cq: CqState, q_labels: Iterable[str] | None = None) -> float:
    """Mutual information between the classical label and the quantum part.

    Equals H(average state) - sum_x p(x) H(rho_x); evaluated through the
    block-diagonal embedding so the same entropy engine serves both variables.
    """
    embedded = cq.embed()
    if q_labels is None:
        q_labels = cq.quantum_layout.labels
    return mutual_information(embedded, {embedded.layout.labels[0]}, _label_set(q_labels))
