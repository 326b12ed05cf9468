"""Output files: each one is written whole or not at all."""

from __future__ import annotations

import os
import secrets
import tempfile

from .errors import UsageError


def _directory(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))


def _unwritable(path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def check_writable(path: str) -> None:
    """Raise the UsageError that ``atomic_write`` would for a missing or
    read-only directory or a path that is a directory, so a long run can
    fail before its work."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: Is a directory")
    try:
        tempfile.TemporaryFile(dir=_directory(path)).close()
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def atomic_write(path: str, text: str) -> None:
    """Write text to path as given (no newline translation) through a
    temporary file in the same directory, so a failed write leaves no
    partial file.  The file gets the mode of any new file under the umask
    (``mkstemp`` would make it 0600).  Any OSError, such as a missing or
    read-only directory or a path that is a directory, is a UsageError
    that names path."""
    tmp = os.path.join(_directory(path), f".ctreg-{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
