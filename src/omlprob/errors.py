"""Exception hierarchy for lattice, state, s-map and observable validation.

Every validation error carries a ``witness`` attribute with the offending
elements (as labels where a lattice is available, ids otherwise), so callers
can report exactly which axiom instance failed.
"""


class OmlError(Exception):
    """Base class for all domain errors."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# --- lattice construction -------------------------------------------------

class LatticeInputError(OmlError):
    """Malformed construction input (duplicate labels, partial ortho map...)."""


class NotAPoset(OmlError):
    """Reflexive-transitive closure of the order violates antisymmetry."""


class NotALattice(OmlError):
    """Some pair of elements lacks a unique meet or join, or bounds missing."""


class NotAnOrtholattice(OmlError):
    """The orthocomplementation fails involution, order reversal or a∨a⊥=1."""


class NotOrthomodular(OmlError):
    """The orthomodular law fails; witness is a pair (a, b) with a ≤ b."""


class ZeroGenerated(OmlError):
    """Conditional-system closure produced the zero element."""


class NotAConditionalSystem(OmlError):
    """A member set is not closed under join or relative orthocomplement."""


# --- states ----------------------------------------------------------------

class NotNormalized(OmlError):
    """State fails m(0)=0 or m(1)=1."""


class NotAdditive(OmlError):
    """State fails additivity on an orthogonal pair (the witness)."""


class C1Violation(OmlError):
    """Some section f(., a) of a conditional state is not a state."""


class C2Violation(OmlError):
    """f(a, a) != 1 for some condition a."""


class C3Violation(OmlError):
    """Mixing law fails for an orthogonal family; witness is (b, family)."""


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
    """p(1,1) != 1."""


class S2Violation(OmlError):
    """p(a,b) != 0 for an orthogonal pair."""


class S3Violation(OmlError):
    """Additivity in one argument fails; witness is (c, (a, b), side)."""


class SupportNotConditionalSystem(OmlError):
    """The support {b : p(b,b) != 0} is not a conditional system."""


class DomainTooSmall(OmlError):
    """Conditional state lacks conditions required for s-map conversion."""


# --- observables -----------------------------------------------------------

class NotAPartition(OmlError):
    """Observable elements are not mutually orthogonal with join 1."""


class DuplicateValue(OmlError):
    """Observable spectrum contains a repeated value."""


class NoSolution(OmlError):
    """No candidate conditional expectation satisfies f(x,b)=f(z,b)."""


class AtomOutsideCS(OmlError):
    """A subalgebra atom is outside the conditional-state domain."""


# --- file handling ---------------------------------------------------------

class ParseError(OmlError):
    """Input file is not valid JSON or not a rational literal."""


class SchemaError(OmlError):
    """JSON document does not match the documented schema."""


class NoExactDecimal(OmlError, ValueError):
    """A rational has no terminating decimal and approximation is not allowed."""
