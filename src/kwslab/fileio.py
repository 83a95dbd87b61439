"""Files that are either complete or not there."""

import contextlib
import os


@contextlib.contextmanager
def replace_on_success(path: str, mode: str = "w", **open_kwargs):
    """Open a temporary file next to `path` for writing; when the block ends
    without an error, one `os.replace` puts it at `path`. A reader never sees
    a half-written `path`, and a process killed mid-write leaves `path` as it
    was. On any error the temporary file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
