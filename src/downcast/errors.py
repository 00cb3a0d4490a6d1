"""Error types shared across the package, the field checks of the config
dataclasses, and the CSV field parser that raises one."""


class DimensionError(ValueError):
    """Shapes or extents of the operands do not line up."""


class ContractError(ValueError):
    """An input violates a documented precondition."""


class CsvParseError(ValueError):
    """A delimited input file is malformed; message carries the line number."""


_RULES = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    "a probability": lambda v: 0 <= v <= 1,
}


def require(config, rule: str, *names: str) -> None:
    """Check that each named field of `config` is `rule` (a key of `_RULES`).

    The ContractError's message starts with the field name, so a caller can
    prefix the block it read the field from.
    """
    for name in names:
        value = getattr(config, name)
        if not _RULES[rule](value):
            raise ContractError(f"{name}: must be {rule}, got {value!r}")


def require_one_of(config, name: str, choices: tuple[str, ...]) -> None:
    value = getattr(config, name)
    if value not in choices:
        raise ContractError(f"{name}: must be one of {sorted(choices)}, got {value!r}")


def parse_csv_field(path, lineno: int, name: str, token: str, parse):
    """`parse(token)`; a ValueError becomes CsvParseError naming the file, line and field."""
    try:
        return parse(token)
    except ValueError:
        raise CsvParseError(f"{path}: line {lineno}: field {name!r}: cannot read {token!r}") from None
