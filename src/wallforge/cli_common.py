"""Input plumbing shared by the command-line front door and its job modules.

``wallforge.cli`` runs as ``__main__`` under ``python -m wallforge.cli``, so
a job module that imported it by name would load a second copy of it.  What
both sides need lives here instead.  Loading this module loads no other
wallforge module; ``_matrix_from_json`` imports ``linalg`` when it is called.
"""

from __future__ import annotations

SCHEMA = "wallforge/1"


class _InputError(ValueError):
    """Job inputs that are missing, mistyped or out of the job's range."""


class _RecordedInputs(dict):
    """A dump's recorded inputs, where a missing field is an input error."""

    def __missing__(self, key):
        raise _InputError(f"missing field {key!r}")


def _parsed(builder, data, what: str):
    """Run a from_json style builder, folding shape errors into ValueError."""
    try:
        return builder(data)
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"malformed {what}: {exc!r}") from exc


def _matrix_from_json(data):
    from wallforge.linalg import RationalMatrix

    return _parsed(RationalMatrix.from_json, data, "matrix")


def _as_int(value, what: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _InputError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _InputError(f"{what} must be at least {minimum}, got {value}")
    return value


def _as_bool(value, what: str) -> bool:
    if type(value) is not bool:
        raise _InputError(f"{what} must be true or false, got {value!r}")
    return value


def _check_prime(p: int) -> int:
    _as_int(p, "p", minimum=2)
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise _InputError(f"p must be prime, got {p}")
        d += 1
    return p


def _dim_list(dims: dict[int, int], hi: int) -> list[int]:
    return [dims.get(n, 0) for n in range(hi + 1)]
