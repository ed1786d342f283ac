"""Exception taxonomy shared by every module: one class per CLI exit code,
UsageError -> 1, DataFormatError -> 2, NumericError -> 3. The container
classes stay apart, as subclasses of DataFormatError (exit 2), because the
persistence gate of the acceptance tests tells a bad manifest, a corrupt
payload and a newer format version apart by class.
"""


class UsageError(Exception):
    """Caller violated a documented precondition or gave a bad setting."""


class DataFormatError(Exception):
    """An input file does not match its documented format."""


class ContainerFormatError(DataFormatError):
    """Model container with an unrecognized magic tag or manifest."""


class ContainerCorruptionError(DataFormatError):
    """Model container failed checksum or length validation."""


class ContainerVersionError(DataFormatError):
    """Model container written by a newer format version."""


class NumericError(Exception):
    """A computation produced a non-finite value."""
