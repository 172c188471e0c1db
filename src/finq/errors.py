"""Error classes shared across the package.

Every error that reports a counterexample carries it both in the message and
as attributes, so callers can rebuild witness reports without parsing text.
"""


class FinqError(Exception):
    """Base class for all package errors.

    exit_code is the command line's exit status for the error: 1 for a
    failed mathematical check (the default), 2 for bad input or a budget
    refusal, 3 for a defect in the library.
    """

    exit_code = 1


class ParseError(FinqError):
    """Input file or literal could not be parsed."""

    exit_code = 2


class ValidationFailed(FinqError):
    """Input violates a structural contract (shape, range, declared laws)."""

    exit_code = 2


class InvariantViolated(FinqError):
    """A fact the library derives from a theorem failed on actual tables.

    This is a defect in the library, not in its input; the witness locates
    the first disagreement.
    """

    exit_code = 3

    def __init__(self, what, witness=None):
        self.what = what
        self.witness = witness
        super().__init__(
            f"internal invariant violated: {what} (witness: {witness})")


class BudgetExceeded(FinqError):
    """A search-space or materialization budget was exceeded."""

    exit_code = 2

    def __init__(self, estimate, budget, what="candidates"):
        self.estimate = estimate
        self.budget = budget
        self.what = what
        super().__init__(f"budget exceeded: {estimate} {what} > {budget}")


class CycleDetected(FinqError):
    """The cover relation contains a cycle."""

    def __init__(self, node):
        self.node = node
        super().__init__(f"cover relation has a cycle through element {node}")


class NotBounded(FinqError):
    """The poset lacks a global bottom or top."""

    def __init__(self, which):
        self.which = which
        super().__init__(f"poset has no global {which}")


class NotALattice(FinqError):
    """Some pair of elements has no least upper / greatest lower bound."""

    def __init__(self, x, y, kind):
        self.x = x
        self.y = y
        self.kind = kind
        super().__init__(f"elements {x}, {y} have no {kind}")


class NotSupPreserving(FinqError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"map is not sup-preserving (witness: {witness})")


class NotMeetPreserving(FinqError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"map is not meet-preserving (witness: {witness})")


class NotMonotone(FinqError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"map is not monotone (witness: {witness})")


class NotAssociative(FinqError):
    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z
        super().__init__(f"multiplication not associative at ({x}, {y}, {z})")


class NotDistributive(FinqError):
    """Multiplication fails to distribute over a binary join on one side."""

    def __init__(self, side, x, y, z):
        self.side = side
        self.x, self.y, self.z = x, y, z
        super().__init__(
            f"multiplication not {side}-distributive at ({x}, {y}, {z})")


class BottomNotAbsorbed(FinqError):
    def __init__(self, x, side):
        self.x = x
        self.side = side
        super().__init__(f"bottom not absorbed: element {x}, {side} side")


class NotDualizing(FinqError):
    def __init__(self, zero, witness=None):
        self.zero = zero
        self.witness = witness
        super().__init__(
            f"element {zero} is not dualizing (witness: {witness})")


class CoincidenceFailed(FinqError):
    """The four expressions for the dual multiplication disagree."""

    def __init__(self, x, y, values):
        self.x, self.y = x, y
        self.values = values
        super().__init__(
            f"dual multiplication expressions disagree at ({x}, {y}): {values}")


class NotInjective(FinqError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"map is not injective (witness: {witness})")


class NotADuality(FinqError):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(f"maps do not form an inverse antitone pair: {reason}")


class NotANucleus(FinqError):
    def __init__(self, law, witness=None):
        self.law = law
        self.witness = witness
        super().__init__(f"not a nucleus, {law} fails (witness: {witness})")


class NotSerreGC(FinqError):
    def __init__(self, flag, witness=None):
        self.flag = flag
        self.witness = witness
        super().__init__(
            f"not a Serre Galois connection, {flag} fails (witness: {witness})")


class NotSerreDualityOnQuotient(FinqError):
    def __init__(self, flag, witness=None):
        self.flag = flag
        self.witness = witness
        super().__init__(
            f"not a Serre duality on the quotient, {flag} fails "
            f"(witness: {witness})")


class NotAssociativeRelation(FinqError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"relation is not associative (witness: {witness})")


class NotWeaklySymmetric(FinqError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"relation is not weakly symmetric (witness: {witness})")


class NotTight(FinqError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"map is not tight (witness: {witness})")


class NotDistinctAtoms(FinqError):
    exit_code = 2

    def __init__(self, reason):
        self.reason = reason
        super().__init__(f"generator parameters invalid: {reason}")
