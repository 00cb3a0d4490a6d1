"""Error types shared across the package, and the CSV field parser that raises one."""


class DimensionError(ValueError):
    """Shapes or extents of the operands do not line up."""


class ContractError(ValueError):
    """An input violates a documented precondition."""


class CsvParseError(ValueError):
    """A delimited input file is malformed; message carries the line number."""


def parse_csv_field(path, lineno: int, name: str, token: str, parse):
    """`parse(token)`; a ValueError becomes CsvParseError naming the file, line and field."""
    try:
        return parse(token)
    except ValueError:
        raise CsvParseError(f"{path}: line {lineno}: field {name!r}: cannot read {token!r}") from None
