"""The --out file of a command, written atomically; `cli.emit` imports this only when --out is given."""
from __future__ import annotations

import os
import stat
import tempfile


def write_atomically(path: str, text: str) -> None:
    """Replace the file at path, or a symlink's resolved target, by renaming a temporary file over it.

    An existing target that is not a regular file is refused.  A new file gets
    mode 0o666 less the umask; a replaced file keeps its mode.
    """
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        os.umask(umask := os.umask(0))  # reading the umask sets it
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(mode):
            raise OSError(0, "not a regular file", target)
    folder = os.path.dirname(target)
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=folder, prefix=".ncgq-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
