"""Exception hierarchy.

CLI exit-code mapping: input problems (malformed files, broken axioms,
violated preconditions) map to exit 2, internal invariant breaches to
exit 3, and an 'eliminated' obstruction verdict to exit 10.
"""


class FusionRingError(Exception):
    """Base class for all library errors."""


class MalformedRingError(FusionRingError):
    """Input data has the wrong shape or type (rejected before axiom checks)."""


class NotAFusionRingError(FusionRingError):
    """An operation requiring a verified fusion ring received one that fails
    its axioms; carries the violation report."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"fusion ring axioms violated: {lines}{more}")


class NotTwoOrbitError(FusionRingError):
    """The basis does not split into exactly two orbits under the invertibles."""


class ThetaInconsistentError(FusionRingError):
    """The coset involution disagrees across the noninvertible orbit where the
    theory asserts agreement; signals a non-fusion-ring input."""


class HypothesisError(FusionRingError):
    """A structured-family operation was called outside its hypotheses; the
    message names the failed hypothesis."""


class InternalInvariantError(FusionRingError):
    """A consistency check that should be unconditionally true failed; always
    a bug in this library."""
