"""Exception types shared across the toolkit, and the reader that checks
JSON config fields and names the path of each malformed one."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation
    (endpoint outside the window, negative weight sample, vanishing
    leading coefficient, ...)."""


class GridMismatchError(ValueError):
    """Two sampled functions that must share a grid do not."""


class ConfigError(ValueError):
    """A search / quadrature configuration is unusable (window too small
    for the requested interval lengths, gamma out of range, ...)."""


_REQUIRED = object()


def read(obj: dict, key: str, kind, default=_REQUIRED, path: str = ""):
    """``obj[key]`` checked against ``kind``, or ``default`` when absent (a
    field whose default is None may also be null).

    ``kind`` is float or int (a JSON number, not a bool or NaN, integral
    and in the int64 range for int), str, dict, ``[kind]`` (an array of
    such), a tuple of kinds (an array of exactly those), or a function of
    (object, path) that builds a sub-config.  Every failure is a ConfigError that starts with the
    field's path, e.g. ``search.n_grid:`` or ``g.values[3]:``.
    """
    where = f"{path}.{key}" if path else key
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required field")
        return default
    if obj[key] is None and default is None:
        return None
    return _check(obj[key], kind, where)


def _check(v, kind, where: str):
    if isinstance(kind, (list, tuple)):
        if not isinstance(v, list) or (isinstance(kind, tuple) and len(v) != len(kind)):
            size = f" of {len(kind)}" if isinstance(kind, tuple) else ""
            raise ConfigError(f"{where}: expected a list{size}, got {v!r:.60}")
        if kind == [float] and set(map(type, v)) <= {int, float}:
            return list(map(float, v))     # long sample arrays, checked at C speed
        kinds = kind if isinstance(kind, tuple) else kind * len(v)
        return [_check(x, k, f"{where}[{i}]") for i, (x, k) in enumerate(zip(v, kinds))]
    if kind in (int, float):
        if (isinstance(v, bool) or not isinstance(v, (int, float)) or v != v
                or (kind is int and isinstance(v, float) and not v.is_integer())):
            raise ConfigError(f"{where}: expected {kind.__name__}, got {v!r:.60}")
        if kind is int and not -2 ** 63 <= v < 2 ** 63:     # exact: float(10**400) would raise
            raise ConfigError(f"{where}: {v!r:.60} lies outside the int64 range")
        return kind(v)
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
