"""Exception types shared across the pipeline."""


class FolkrecError(Exception):
    """Base class for all folkrec errors."""


class EmptyDatasetError(FolkrecError):
    """Raised when an input or a preprocessing result contains no data."""


class FormatError(FolkrecError):
    """Raised when an input file does not look like a tag-assignment dump."""


class ConfigError(FolkrecError):
    """Raised for invalid run configuration, including unknown algorithm tags."""


class NoProfileError(FolkrecError):
    """Raised when a user has no training profile to compute from."""


def is_integer(value: object) -> bool:
    """An int and not a bool (YAML's true and false load as bools, which subclass int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """An int or a float and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
