"""Pinned output of `cdkripke separate` on every table of arity 1 to 3.

For each of the 276 tables, in all_tables order, `separate` runs in
process on a one-connective signature file; its exit code, stdout and
stderr are hashed, one sha256 digest per output format. A change to the
separator, its verifier or their rendering that alters a single byte of
any of these outputs changes a digest.

After an intended output change, print the new digests with
``PYTHONPATH=src python tests/test_separate_pinned.py`` and review the
per-table diff of the outputs before updating them.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from cdkripke.cli import main
from cdkripke.truthfn import all_tables

DIGESTS = {
    "human": "d3edac7830ab6fed780fecb5889500dc5345e6a2263ff6d8822eed92cd33fd4c",
    "json": "8271c89d4f8cb327a523986ad919251b70a2e2b67c8d0804cfb0c226bff984ee",
}


def transcript(argv) -> str:
    """'exit: <code>', then stdout, then stderr after a marker line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit: {code}\n{out.getvalue()}--stderr--\n{err.getvalue()}"


def digest(fmt: str, directory: Path) -> str:
    h = hashlib.sha256()
    sig = directory / "sig.txt"
    for arity in (1, 2, 3):
        for table in all_tables(arity):
            sig.write_text(f"conn c {arity} {table.bits()}\n")
            h.update(transcript(["separate", "--sig", str(sig), "--format", fmt]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("fmt", sorted(DIGESTS))
def test_separate_output_is_pinned(fmt, tmp_path):
    assert digest(fmt, tmp_path) == DIGESTS[fmt]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for fmt in sorted(DIGESTS):
            print(f'    "{fmt}": "{digest(fmt, Path(d))}",')
