"""Finite certificates for decay claims along geometric schedules.

A limit statement like "the remainder is o(norm of the perturbation)" cannot
be decided by finitely many evaluations.  The strongest finitely checkable
surrogate, used throughout this package, fixes a geometric schedule of
perturbation sizes and requires the measured sequence to become monotone
non-increasing and to fall at a fixed geometric rate from its early peak and
over its second half.  Values that reach the noise floor of the arithmetic
are treated as converged rather than compared.  Bound claims, a measured
value against an analytic limit, are judged only by `cli.judge`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NOISE_FLOOR",
    "Certificate",
    "GapTable",
    "RemainderTable",
    "certify_decay",
    "halving",
]

NOISE_FLOOR = 1e-12
# The fall a decay claim asks for, and the rise per row a non-increasing
# tail may still show (see `certify_decay`).
FINAL_FRACTION = 1e-3
MONOTONE_SLACK = 1.05


def halving(count: int) -> np.ndarray:
    """Scale factors 1, 1/2, ..., 2^-count for geometric schedules."""
    if count < 3:
        raise ValueError("schedules need at least three halvings to say anything")
    return 0.5 ** np.arange(count + 1)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of a decay check on one measured sequence.

    reference_row: the row that the final entry was compared with, of the
        two comparisons the one closer to failing (see `certify_decay`).
    final_limit: the bound that final_over_reference was compared with.
    """

    passed: bool
    reason: str
    values: np.ndarray
    tail_start: int
    reference_row: int = 0
    final_limit: float = FINAL_FRACTION

    @property
    def final_over_initial(self) -> float:
        v = self.values
        return float(v[-1] / v[0]) if v[0] > 0 else 0.0

    @property
    def final_over_reference(self) -> float:
        v = self.values
        ref = v[self.reference_row]
        return float(v[-1] / ref) if ref > 0 else 0.0

    @property
    def judged(self) -> tuple:
        """(measured, limit) of the relation the verdict judged: a table's
        largest value against NOISE_FLOOR when all are at the floor."""
        if np.all(self.values <= NOISE_FLOOR):
            return float(self.values.max()), NOISE_FLOOR
        return self.final_over_reference, self.final_limit


def certify_decay(values) -> Certificate:
    """Check that a sequence decays: eventually non-increasing, and falling
    at a geometric rate from its early peak and over its second half.

    On a geometric schedule with n + 1 entries, "the final entry is at most
    FINAL_FRACTION times the first" asks for an average fall by the factor
    rate = FINAL_FRACTION^(1/n) per row.  This check asks for that rate,
    not for the total fall, over the rows where the sequence should already
    be in its asymptotic regime.  With h = (n + 1) // 2, and entries at or
    below NOISE_FLOOR counting as equal:

    - monotone: some tail starting at a row <= h is non-increasing (up to
      the factor MONOTONE_SLACK per row);
    - from the peak: the final entry is at most rate^(n - k) times the peak
      v[k], the largest entry of rows 0..h (up to the floor).  When the
      first entry is the peak this is exactly final <= FINAL_FRACTION *
      first.  Rows before the peak do not count against the sequence: a
      correct remainder may rise over its first rows before its asymptotic
      regime starts;
    - over the second half: the final entry is at most rate^(n - h) times
      v[h] (up to the floor).  A sequence that levels off at a nonzero
      value fails this however far it fell before.

    A geometric sequence passes exactly when its own rate is at most rate,
    as under the rule "FINAL_FRACTION of the first entry"; the two rules
    differ only on sequences whose rate changes along the schedule.  Of the
    two comparisons, the certificate reports the one closer to failing.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 4:
        raise ValueError("need a one dimensional sequence with at least four entries")
    if np.any(~np.isfinite(v)) or np.any(v < 0):
        raise ValueError("sequence entries must be finite and nonnegative")
    if np.all(v <= NOISE_FLOOR):
        return Certificate(True, "all values at the noise floor", v, 0)
    clipped = np.maximum(v, NOISE_FLOOR)
    n, half = v.size - 1, v.size // 2
    tail_start = -1
    for k0 in range(half + 1):
        tail = clipped[k0:]
        if np.all(tail[1:] <= MONOTONE_SLACK * tail[:-1]):
            tail_start = k0
            break
    monotone = tail_start >= 0
    peak_row = int(np.argmax(v[: half + 1]))
    checks = [(row, FINAL_FRACTION ** ((n - row) / n)) for row in (peak_row, half)]
    small_final = all(v[-1] <= limit * v[row] + NOISE_FLOOR for row, limit in checks)
    ref, limit = max(checks, key=lambda c: v[-1] / (c[1] * clipped[c[0]]))
    initial = v[-1] / v[0] if v[0] > 0 else 0.0
    ratios = f"final/initial = {initial:.3e}, final/row {ref} = {v[-1] / clipped[ref]:.3e}"
    if not monotone:
        reason = "no non-increasing tail starting in the first half"
    elif not small_final:
        slow = ": the second half falls too slowly" if ref == half != peak_row else ""
        reason = f"{ratios} exceeds {limit:.3e}{slow}"
    else:
        reason = f"non-increasing from row {tail_start}, {ratios} <= {limit:.3e}"
    return Certificate(monotone and small_final, reason, v, tail_start, ref, limit)


def _decreasing_positive(scales: np.ndarray) -> None:
    if scales.ndim != 1 or scales.size < 2:
        raise ValueError("need at least two schedule rows")
    if np.any(scales <= 0) or np.any(np.diff(scales) >= 0):
        raise ValueError("schedule scales must be positive and strictly decreasing")


@dataclass(frozen=True, eq=False)
class RemainderTable:
    """Rows (perturbation size, remainder size) ordered by decreasing size."""

    scales: np.ndarray
    remainders: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float)
        rems = np.asarray(self.remainders, dtype=float)
        _decreasing_positive(scales)
        if rems.shape != scales.shape:
            raise ValueError("one remainder per scale required")
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "remainders", rems)

    @property
    def ratios(self) -> np.ndarray:
        return self.remainders / self.scales

    def certificate(self) -> Certificate:
        """The small-o check: remainder-to-size ratios must decay."""
        return certify_decay(self.ratios)

    def as_rows(self):
        return [
            (float(s), float(r), float(r / s))
            for s, r in zip(self.scales, self.remainders)
        ]


@dataclass(frozen=True, eq=False)
class GapTable:
    """Rows (input gap, output gap) for continuity probes along a schedule."""

    input_gaps: np.ndarray
    output_gaps: np.ndarray

    def __post_init__(self):
        ins = np.asarray(self.input_gaps, dtype=float)
        outs = np.asarray(self.output_gaps, dtype=float)
        _decreasing_positive(ins)
        if outs.shape != ins.shape:
            raise ValueError("one output gap per input gap required")
        object.__setattr__(self, "input_gaps", ins)
        object.__setattr__(self, "output_gaps", outs)

    def certificate(self) -> Certificate:
        """The continuity check: output gaps must decay with the input gaps."""
        return certify_decay(self.output_gaps)

    def as_rows(self):
        return [(float(i), float(o)) for i, o in zip(self.input_gaps, self.output_gaps)]
