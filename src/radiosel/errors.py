"""Exception hierarchy shared across the toolkit.

CLI exit codes: DataError -> 3, NumericError -> 4, argparse usage -> 2;
an OSError from the filesystem (an --out-dir that is a file, an input that
is a directory) -> 3, with the path in the message.
"""


class RadioselError(Exception):
    """Base class for all toolkit errors."""


class DataError(RadioselError):
    """Malformed input data: bad CSV, invariant violations, schema mismatch."""


class ModelFormatError(DataError):
    """Model file cannot be parsed or fails structural validation."""


class NumericError(RadioselError):
    """Non-finite intermediate or other numerical breakdown."""
