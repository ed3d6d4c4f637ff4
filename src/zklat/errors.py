"""Exception types shared across the package: one per thing a caller does.

- `ZklatError`: the base of the others.  The CLI prints any of them but
  `BudgetExceeded` as an `error:` line and exits 1.
- `PreconditionViolation`: an input broke a rule, checked once, in the
  constructor or function that owns it (a basis with dependent rows, an
  entry that is not an integer, a code that is not self-dual, a seed
  with MM^T != mI, a length past the bound table, ...).  The message
  names the rule, and the caller fixes its input.
- `BudgetExceeded`: a walk or a search ran out of its budget, so the
  verdict is "unknown", never a truncated answer: the CLI exits 2.
- `UnknownId`: a token names no catalog entry, and the CLI then reads
  it as a file; or a file's header names no format.
- `MembershipViolation`: an internal fault, not an input rule: a vector
  that should lie in a lattice does not (a found frame failed its
  membership recheck).  It never fires while the input rules hold.
"""


class ZklatError(Exception):
    pass


class PreconditionViolation(ZklatError):
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


class UnknownId(ZklatError):
    pass


class MembershipViolation(ZklatError):
    pass
