"""Exception hierarchy shared by all privkit modules.

Most validation errors raised by the library derive from PrivkitError.
Some range checks in ``anonymize``, ``assoc``, ``dataset``, ``dpcheck`` and
``smc`` raise a plain ValueError instead, so callers (including the CLI) that
separate data/validation failures from bugs catch both. The field type
checks of ``Attribute``, ``Schema``, ``Interval``, ``MaskedText`` and the
generalization strategies, and ``load_csv``'s check of its source, raise
TypeError; the CLI reports them through the schema or pipeline step that
named them. A ``Dataset`` cell of the wrong type for its attribute's kind
raises KindMismatch when the dataset is built.

Which values an argument takes is decided by the rules in ``_value.py``: an
int that is not a bool, a number that is not a bool, a collection that is
not a bare str or bytes, and JSON that parses (malformed or too deeply
nested JSON is a data error naming the input). A filter, permanent response
or report must hold ``params.k`` bits (``rappor._check_length``). Each
module raises its own class from this list (or ValueError or TypeError)
with a message that names the argument.
"""


class PrivkitError(Exception):
    """Base class for all privkit errors."""


# --- dataset ---------------------------------------------------------------

class HeaderMismatch(PrivkitError):
    """CSV header row does not match the schema attribute names in order."""


class ArityError(PrivkitError):
    """A CSV row has a different number of cells than the schema."""


class ParseError(PrivkitError):
    """A cell could not be parsed under its schema kind."""


class UnknownAttribute(PrivkitError):
    """An attribute name does not exist in the schema."""


class KindMismatch(PrivkitError):
    """A cell is not of its attribute's kind, or an operation was applied
    to an attribute or cell of the wrong kind."""


class TooManyDigits(PrivkitError):
    """A cell holds an integer with more digits than the interpreter will
    write as text (``sys.set_int_max_str_digits``)."""


# --- anonymize --------------------------------------------------------------

class EmptyQiList(PrivkitError):
    """Quasi-identifier list must be non-empty."""


class EmptyDataset(PrivkitError):
    """Metric requires at least one record."""


class InvalidSpec(PrivkitError):
    """Noise specification violates its invariants."""


class VacuousRule(PrivkitError):
    """Generalization rule would not change any value in the column."""


class TooManySwaps(PrivkitError):
    """Requested more disjoint swaps than the record count allows."""


class DatasetTooSmall(PrivkitError):
    """Too few records for the requested group size."""


class BadGrouping(PrivkitError):
    """Explicit record groups do not form a partition of the dataset: the
    groups are not iterable, a group is empty, holds something other than an
    integer index, or the groups do not cover each record exactly once."""


class ValueOutOfRange(PrivkitError):
    """A value is too large for the float arithmetic an operation needs."""


# --- rappor -----------------------------------------------------------------

class InvalidParams(PrivkitError):
    """Randomized-response parameters, or the bits and counts they are
    applied to, violate their invariants."""


class DomainError(PrivkitError):
    """Privacy formula is undefined at the given parameters."""


class LengthMismatch(PrivkitError):
    """Report bit length differs from the configured filter size."""


class DegenerateParams(PrivkitError):
    """Estimator denominator is zero (no signal survives randomization)."""


class ReportFormatError(PrivkitError):
    """Serialized report is malformed or bound to different parameters."""


# --- dpcheck ----------------------------------------------------------------

class FilterTooLarge(PrivkitError):
    """Exact enumeration is capped; the filter exceeds the cap."""


class SpaceMismatch(PrivkitError):
    """Two distributions do not share the same outcome space."""


# --- smc --------------------------------------------------------------------

class BadModulus(PrivkitError):
    """Modulus is not prime or too small for the reachable sums."""


class DuplicateX(PrivkitError):
    """Interpolation points must have pairwise distinct x coordinates."""


# --- assoc ------------------------------------------------------------------

class UnknownItem(PrivkitError):
    """Itemset contains an item outside the transaction universe."""


class DisjointnessViolation(PrivkitError):
    """Rule antecedent and consequent share an item."""


class ZeroSupportAntecedent(PrivkitError):
    """Certainty is undefined when the antecedent never occurs."""


class BadThreshold(PrivkitError):
    """Mining threshold or enumeration bound is out of range, or is not a
    number (a bool threshold, a fractional or bool bound)."""


# --- cli --------------------------------------------------------------------

class UsageError(PrivkitError):
    """Command line arguments do not match any subcommand grammar."""


class ConfigError(PrivkitError):
    """Pipeline configuration failed fail-fast validation."""
