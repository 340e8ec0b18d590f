"""The errors linlog raises on purpose.

Every exception class of the package derives from `LinlogError`, so a
caller can tell a rejected input or a failed precondition from a fault in
the program.  The classes that more than one module raises live here; the
others stay beside the code that raises them.
"""


class LinlogError(Exception):
    """Base class of every error linlog raises on purpose."""


class SortViolation(LinlogError):
    """A term or expression is not of the sort a transformation needs."""


class EnumerationMismatch(LinlogError):
    """An enumeration of variables does not match a term's free variables."""


class NotWithSeq(LinlogError):
    """A type is not a with-sequence type where one is needed."""
