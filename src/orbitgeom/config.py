"""Numerical tolerances: one policy for the whole package.

The frozen module-level ``tolerances`` instance is the only source of every
threshold, fixed at import: no routine or flag overrides it. Matrix-valued
residuals default to 1e-10 absolute. The eight fields are:

- ``matrix_residual``: reconstruction and rotation-group defects (max-norm),
  and, scaled by ``sum(s)`` (each band in ``boundary`` is a tolerance times
  the scale of its own inputs), the band of the Thompson hull inequalities
  that decide ``thompson_membership``;
- ``boundary_band``: the |radial - 1| band counting as "on the curve";
- ``certificate_residual``: the largest accepted certificate mismatch;
- ``tie_gap``: the relative singular-value gap treated as tied;
- ``degenerate_rank``: sv_min <= tol * sv_max marks a degenerate shape; a
  homotopy's end shape is judged against max(sv_max, |M|_F), the Frobenius
  norm of its matrices;
- ``off_span_tol``: a component off a degenerate span treated as unreachable;
- ``bisection_gtol``: the |radial - 1| at which the homotopy's crossing
  search stops, read on the curve that yields the witness (the planar
  search runs its cheap trials on to the radial's roundoff floor, and goes
  on on the curves themselves when their gap exceeds this);
- ``max_bisection_iter``: the iteration budget of the one bracketing
  root-finder (``ellipsoids._bracket_root``), used by every root search.

The two bisection names predate the false-position root-finder; they are
kept because they are keys of the ``tolerances`` object in every JSON
report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Tolerances:
    matrix_residual: float = 1e-10
    boundary_band: float = 1e-8
    certificate_residual: float = 1e-8
    tie_gap: float = 1e-9
    degenerate_rank: float = 1e-10
    off_span_tol: float = 1e-8
    bisection_gtol: float = 1e-12
    max_bisection_iter: int = 200

    def as_dict(self) -> dict:
        return asdict(self)


tolerances = Tolerances()
