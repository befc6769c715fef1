"""Exception types shared across the toolkit."""


class ConstructaError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ConstructaError):
    """Scenario file is not valid JSON or a field has the wrong type."""


class SchemaError(ConstructaError):
    """Scenario content violates a structural invariant."""


class TimeOutOfRange(ConstructaError):
    """Requested time lies outside the control horizon."""


class MissingMeasurements(ConstructaError):
    """Operation needs ranges but the scenario carries none."""


class DegenerateInput(ConstructaError):
    """Geometry falls outside a closed form's construction; use the generic solver."""


class MixedAnchors(ConstructaError):
    """Single-anchor analysis invoked on a schedule with several anchors."""


class NonPositiveInput(ConstructaError):
    """A length or radius that must be positive is not."""


class EmptyDomain(ConstructaError):
    """No rotation angle admits the requested circle intersection."""


class PathologicalConfiguration(ConstructaError):
    """Ambiguity cannot be resolved by any placement of the next point."""


class NoAmbiguity(ConstructaError):
    """Critical lines requested for a prefix that is already unambiguous."""


class ZeroRange(ConstructaError):
    """Measurement point coincides with its anchor."""


class InconsistentControls(ConstructaError):
    """Controls do not reproduce the scenario's trajectory points."""
