"""Exception types and the working-memory budget shared across the package."""

#: Bytes one operation may hold in its working tables, checked before allocating.
MEMORY_BUDGET = 2**30


class GroupMismatchError(ValueError):
    """Operands live on different groups / phase spaces / windows."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


def check_memory(nbytes: int, what: str) -> None:
    if nbytes > MEMORY_BUDGET:
        raise PreconditionError(f"{what} needs {nbytes:,} bytes of working memory, over "
                                f"the budget of {MEMORY_BUDGET:,} ({MEMORY_BUDGET / 2**30:g} GiB)")
