"""Output files: atomic writes and the JSON layout every command writes."""

from __future__ import annotations

import json
import os


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory.

    The temporary file replaces path only once it is complete, so a write
    that fails leaves neither a partial path nor the temporary file.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def json_text(payload: object) -> str:
    """The JSON layout of every output file: indented, sorted keys, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
