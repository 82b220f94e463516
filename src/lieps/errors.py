"""Exception taxonomy.

Domain errors derive from LiepsError (CLI exit code 1); document/parse
errors derive from DocumentError (CLI exit code 2).
"""


class LiepsError(Exception):
    """Base class for domain errors."""


class NoSolution(LiepsError):
    """Linear system has no solution (b outside the column space)."""


class NotASubalgebra(LiepsError):
    """Candidate subspace is not closed under the bracket.

    Carries a witness pair of basis vectors whose bracket escapes.
    """

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotAnAutomorphism(LiepsError):
    """Generator matrix does not preserve the bracket."""


class GeneratorMovesH(LiepsError):
    """Generator matrix does not preserve the isotropy subalgebra."""


class NotInH(LiepsError):
    """Vector expected in the isotropy subalgebra is not."""


class NotInAnnihilator(LiepsError):
    """Covector expected in the annihilator of h is not."""


class NotAnRMatrix(LiepsError):
    """Bivector has a nonvanishing Yang-Baxter tensor."""


class JacobiFailure(LiepsError):
    """Jacobi (or closure/morphism) failed where a theorem guarantees it.

    Surfaced, never swallowed: indicates an implementation bug or a broken
    precondition upstream.
    """


class ClosureFailure(LiepsError):
    """Leaf algebra failed the bracket-closure check (bug surface)."""


class RadicalMismatch(LiepsError):
    """Radical of the supplied 2-form differs from the isotropy subalgebra."""


class NotACocycle(LiepsError):
    """Supplied 2-form violates the cocycle identity."""


class NotClosed(LiepsError):
    """Supplied subspace is not closed under the bracket."""


class NotInvariant(LiepsError):
    """Supplied pair is not stable/invariant under the isotropy action."""


class NotReductive(LiepsError):
    """Declared complement is not stable under the isotropy action."""


class NotAnFConnection(LiepsError):
    """Connection does not vanish on the kernel of the anchor."""


class DocumentError(Exception):
    """Malformed algebra document; carries the offending field path."""

    def __init__(self, path, msg):
        super().__init__(f"{path}: {msg}")
        self.path = path
        self.msg = msg
