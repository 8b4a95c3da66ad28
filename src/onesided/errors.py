"""Exception types shared across the toolkit, and the reader of JSON configs: each
config object has one field table, key -> kind (``opt(kind, default)`` for a field that
may be absent), which ``read_object`` reads in one call, refusing any other key; a
dataclass's table is its fields, each with its own default (``read_fields``)."""

import collections
import contextlib
import dataclasses


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation
    (endpoint outside the window, negative weight sample, vanishing
    leading coefficient, ...)."""


class GridMismatchError(ValueError):
    """Two sampled functions that must share a grid do not."""


class ConfigError(ValueError):
    """A search / quadrature configuration is unusable (window too small
    for the requested interval lengths, gamma out of range, ...)."""


_REQUIRED = dataclasses.MISSING     # as a dataclass field without a default
# a field table entry for a field that may be absent: read as ``kind``, else ``default``
opt = collections.namedtuple("opt", "kind default")


def read(obj: dict, key: str, kind, default=_REQUIRED, path: str = ""):
    """``obj[key]`` checked against ``kind``, or ``default`` when absent (a
    field whose default is None may also be null).

    ``kind`` is float or int (a JSON number, not a bool or NaN, integral
    and in the int64 range for int), str, dict, ``[kind]`` (an array of
    such), a tuple of kinds (an array of exactly those, read as a tuple), or a function
    of (object, path) that builds a sub-config.  Every failure is a ConfigError that
    starts with the field's path, e.g. ``search.n_grid:`` or ``g.values[3]:``.
    """
    where = f"{path}.{key}" if path else key
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required field")
        return default
    if obj[key] is None and default is None:
        return None
    return _check(obj[key], kind, where)


def read_object(obj: dict, fields: dict, path: str = "") -> list:
    """The fields of ``obj`` in the order of the table ``fields`` (key -> kind, or
    ``opt``), each as ``read`` gives it; then the first key outside the table is
    refused, since a misspelled field would otherwise run at its default."""
    values = [read(obj, key, *((k.kind, k.default) if isinstance(k, opt) else (k,)), path=path)
              for key, k in fields.items()]
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{f'{path}.{key}' if path else key}: no such field "
                              f"(the fields are {', '.join(sorted(fields))})")
    return values


def read_fields(cls, obj: dict, kinds: dict, path: str = ""):
    """``cls`` built from ``obj`` by ``read_object``: its fields in order, each read as
    ``kinds[name]`` with the field's own default (required when it has none)."""
    table = {f.name: opt(kinds[f.name], f.default) for f in dataclasses.fields(cls)}
    return cls(*read_object(obj, table, path))


def _check(v, kind, where: str):
    if isinstance(kind, (list, tuple)):
        if not isinstance(v, list) or (isinstance(kind, tuple) and len(v) != len(kind)):
            size = f" of {len(kind)}" if isinstance(kind, tuple) else ""
            raise ConfigError(f"{where}: expected a list{size}, got {v!r:.60}")
        if kind == [float] and set(map(type, v)) <= {int, float}:
            with contextlib.suppress(OverflowError):    # then name the int past the float range
                floats = list(map(float, v))   # long sample arrays, checked at C speed
                total = sum(floats)
                if total == total:             # else the element path names the NaN
                    return floats
        kinds = kind if isinstance(kind, tuple) else kind * len(v)
        return type(kind)(_check(x, k, f"{where}[{i}]") for i, (x, k) in enumerate(zip(v, kinds)))
    if kind in (int, float):
        if (isinstance(v, bool) or not isinstance(v, (int, float)) or v != v
                or (kind is int and isinstance(v, float) and not v.is_integer())):
            raise ConfigError(f"{where}: expected {kind.__name__}, got {v!r:.60}")
        if kind is int and not -2 ** 63 <= v < 2 ** 63:     # exact: float(10**400) would raise
            raise ConfigError(f"{where}: {v!r:.60} lies outside the int64 range")
        try:
            return kind(v)
        except OverflowError:       # float() of an int past the float range
            raise ConfigError(f"{where}: an integer of {len(str(abs(v)))} digits lies "
                              "outside the float range") from None
    if kind in (str, dict):
        if not isinstance(v, kind):
            raise ConfigError(f"{where}: expected {'a string' if kind is str else 'an object'}, "
                              f"got {v!r:.60}")
        return v
    if not isinstance(v, dict):
        raise ConfigError(f"{where}: expected an object, got {v!r:.60}")
    try:
        return kind(v, where)
    except (ConfigError, DomainError) as exc:
        if str(exc).startswith((f"{where}.", f"{where}[", f"{where}:")):
            raise
        raise ConfigError(f"{where}: {exc}") from exc
