"""Exception hierarchy for lattice, state, s-map and observable validation.

Every validation error carries a ``witness`` attribute with the offending
elements (as labels where a lattice is available, ids otherwise), so callers
can report exactly which axiom instance failed.

A validation error names in ``stage`` the axiom group whose check failed
("C1", "s3", "orthomodular", ...; ``None`` for other errors).  An
``InputError`` is input that cannot be read or served as asked, not one that
fails an axiom: exit code 2 in the CLI.
"""


class OmlError(Exception):
    """Base class for all domain errors."""

    stage = None

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InputError(OmlError):
    """Malformed input, an unknown label, or a value not printable as asked."""


# --- lattice construction -------------------------------------------------

class LatticeInputError(InputError):
    """Malformed construction input (duplicate labels, partial ortho map...)."""


class NotAPoset(OmlError):
    """Reflexive-transitive closure of the order violates antisymmetry."""

    stage = "poset"


class NotALattice(OmlError):
    """Some pair of elements lacks a join, or the bounds are missing."""

    stage = "lattice"


class NotAnOrtholattice(OmlError):
    """The orthocomplementation fails order reversal or a∨a⊥=1."""

    stage = "ortholattice"


class NotOrthomodular(OmlError):
    """The orthomodular law fails; witness is a pair (a, b) with a ≤ b."""

    stage = "orthomodular"


class NotAConditionalSystem(OmlError):
    """A member set is not closed under join or relative orthocomplement."""


# --- states ----------------------------------------------------------------

class NotNormalized(OmlError):
    """State fails m(0)=0 or m(1)=1."""

    stage = "normalized"


class NotAdditive(OmlError):
    """State fails additivity on an orthogonal pair (the witness)."""

    stage = "additive"


class C1Violation(OmlError):
    """Some section f(., a) of a conditional state is not a state."""

    stage = "C1"


class C2Violation(OmlError):
    """f(a, a) != 1 for some condition a."""

    stage = "C2"


class C3Violation(OmlError):
    """Mixing law fails for an orthogonal family; witness is (b, family)."""

    stage = "C3"


class NotOrthogonalFamily(OmlError):
    """Builder input atoms are not mutually orthogonal."""


class AlphaNotConcentrated(OmlError):
    """Builder state alpha_i does not assign 1 to its atom."""


class WeightsNotNormalized(OmlError):
    """Builder weights do not sum to 1 or leave [0, 1]."""


class ZeroMassCondition(OmlError):
    """Some multi-atom subfamily has total weight 0."""


class PreconditionFCA(OmlError):
    """Independence query with f(c, a) != 1."""


class ConditionOutsideCS(OmlError):
    """A conditioning element is not in the conditional system."""


# --- s-maps ----------------------------------------------------------------

class S1Violation(OmlError):
    """An entry p(a,b) is missing or outside [0, 1], or p(1,1) != 1; witness
    is the pair (a, b), or None when a dense table is not total."""

    stage = "s1"


class S2Violation(OmlError):
    """p(a,b) != 0 for an orthogonal pair."""

    stage = "s2"


class S3Violation(OmlError):
    """Additivity in one argument fails; witness is (c, (a, b), side)."""

    stage = "s3"


class SupportNotConditionalSystem(OmlError):
    """The support {b : p(b,b) != 0} is not a conditional system."""


class DomainTooSmall(OmlError):
    """Conditional state lacks conditions required for s-map conversion."""


# --- observables -----------------------------------------------------------

class NotAPartition(OmlError):
    """Observable elements are not mutually orthogonal with join 1."""

    stage = "partition"


class DuplicateValue(OmlError):
    """Observable spectrum contains a repeated value."""

    stage = "partition"


class NoSolution(OmlError):
    """No candidate conditional expectation satisfies f(x,b)=f(z,b)."""


class AtomOutsideCS(OmlError):
    """A subalgebra atom is outside the conditional-state domain."""


# --- file handling ---------------------------------------------------------

class ParseError(InputError):
    """Input file is not valid JSON or not a rational literal."""


class SchemaError(InputError):
    """JSON document does not match the documented schema."""


class NoExactDecimal(InputError, ValueError):
    """A rational has no terminating decimal and approximation is not allowed."""
