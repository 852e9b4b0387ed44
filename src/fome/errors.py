"""Exception hierarchy shared by all fome modules, and the file helpers.

Every file this package reads or writes goes through `read_file`,
`write_file` or `make_dirs`, so a refused file operation is always an
`IoError` naming the path; `decode_text` turns bytes into text and invalid
UTF-8 into a `FormatError`.
"""

import os


class FomeError(Exception):
    """Base class for every error raised by this package."""


class FormatError(FomeError):
    """A file does not conform to its declared on-disk format."""


class DataError(FomeError):
    """Sample values violate a data contract (NaN/Inf, bad labels, ...)."""


class IoError(FomeError):
    """The underlying filesystem refused a read or write."""


class SpecError(FomeError):
    """A synthetic-signal specification is unrealizable."""


class ConfigError(FomeError):
    """A configuration value is out of its valid range."""


class EmptyError(FomeError):
    """An operation received too little signal to produce any output."""


class ShapeError(FomeError):
    """Tensor operands have incompatible shapes."""


class ContractError(FomeError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


class CapacityError(FomeError):
    """Input exceeds a configured model capacity (e.g. too many patches)."""


class TrainError(FomeError):
    """Training failed mid-run (e.g. non-finite gradient)."""


def read_file(path) -> bytes:
    """The whole content of the file at `path`."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_file(path, payload) -> None:
    """Replace the file at `path` with `payload`; a str is written as UTF-8."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def make_dirs(path) -> None:
    """Create the directory `path` and its parents, unless it exists."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory {path}: {exc}") from exc


def decode_text(payload: bytes, source) -> str:
    """`payload` as UTF-8 text; `source` names it in the error."""
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{source}: invalid UTF-8 at byte {exc.start}") from None
