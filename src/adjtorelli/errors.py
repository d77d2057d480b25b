"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Operands belong to different coefficient fields."""


class VariableCountMismatchError(ValueError):
    """Operands are defined over different numbers of variables."""


class HomogeneityError(ValueError):
    """A homogeneous polynomial was required."""


class GradeError(ValueError):
    """Exterior-form grade out of range for the requested operation."""


class NonEulerNullError(ValueError):
    """The form is not annihilated by the Euler contraction."""


class NonDivisibleError(ValueError):
    """No consistent quotient by the fundamental form exists."""


class NoDecompositionError(ValueError):
    """The form has no decomposition over the syzygy forms."""


class RankOneConditionError(ValueError):
    """Offset vectors are not all proportional to one module generator."""


class NotSmoothError(ValueError):
    """The hypersurface is singular."""


class DependentSystemError(ValueError):
    """The chosen one-forms are linearly dependent."""


class DegenerateBundleError(ValueError):
    """The bundle has vanishing base polynomial; results are meaningless."""


class HypothesisViolationError(ValueError):
    """An explicit precondition of a theorem-level routine failed."""


class FieldConstraintError(ValueError):
    """The coefficient field violates a divisibility guard."""


class ParseError(ValueError):
    """Syntax or semantic error in an input expression, problem file or flag;
    the message names a source position only when the caller passes one."""

    def __init__(self, message, line=None, column=1):
        where = "" if line is None else f" (line {line}, column {column})"
        super().__init__(message + where)
        self.message = message
        self.line = line
        self.column = column
