"""Exception types shared across the package."""


class CvcKitError(Exception):
    """Base class for all package-specific errors."""


class InputError(CvcKitError, ValueError):
    """Invalid caller input: bad vertices, disconnected graph where a
    connected one is required, malformed parameters, missing variables."""


class DimacsError(InputError):
    """Malformed DIMACS text; the message names the offending line."""


class SizeCapError(InputError):
    """Instance exceeds a hard size cap of an exhaustive routine."""


class ContractError(CvcKitError, RuntimeError):
    """A documented precondition between internal components was violated."""


def shown(value) -> str:
    """repr(value) as a refusal message quotes it.

    An int past Python's int-to-str digit limit has no repr; it is named
    by its sign and digit count instead ("an int of 5001 digits"), and
    any other value whose repr raises ValueError, such as a tuple holding
    such an int, by its type and the reason.
    """
    try:
        return repr(value)
    except ValueError as exc:
        if not isinstance(value, int):
            return f"a {type(value).__name__} with no repr ({exc})"
        size = abs(value)
        # a lower bound on the digits, as 0.301029995 < log10(2)
        digits = (size.bit_length() - 1) * 301029995 // 10**9 + 1
        while size >= 10**digits:
            digits += 1
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"
