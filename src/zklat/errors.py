"""Exception types shared across the package."""


class ZklatError(Exception):
    pass


class BudgetExceeded(ZklatError):
    """An enumeration ran out of its node / codeword budget.

    The result is "unknown", never a silent truncation.  `used` is the
    work counted when the overrun was detected and `budget` the limit.
    """

    def __init__(self, what: str, used: int, budget: int):
        super().__init__(what, used, budget)
        self.used = used
        self.budget = budget

    def __str__(self) -> str:
        return f"{self.args[0]}: {self.used} used, budget {self.budget}"


class NotSelfDual(ZklatError):
    pass


class SkewViolation(ZklatError):
    pass


class CongruenceViolation(ZklatError):
    pass


class MembershipViolation(ZklatError):
    """A vector that should lie in a lattice does not.

    Raised only on internal-consistency failures; should never fire when
    documented preconditions hold.
    """


class NotOdd(ZklatError):
    pass


class BadDimension(ZklatError):
    pass


class PreconditionViolation(ZklatError):
    pass


class UnknownId(ZklatError):
    pass


class OutOfRange(ZklatError):
    pass
