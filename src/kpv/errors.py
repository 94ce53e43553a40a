"""Exception types shared across the package."""


class KpvError(Exception):
    """Base class for all package-specific errors."""


class InputError(KpvError):
    """Malformed or inconsistent input data (bad schema, mismatched sizes)."""


class GeometryError(KpvError):
    """Geometric preconditions violated (degenerate hull, duplicate sites,
    infeasible polyhedral set, general-position failure)."""


class NumericalError(KpvError):
    """A numerical procedure failed its accuracy or conditioning target
    (quadrature that does not converge, ill-conditioned power fit,
    inequalities still failing at the top of a threshold grid)."""
