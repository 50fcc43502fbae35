"""Pinned output of `cdkripke separate` on every table of arity 1 to 3
and on a seeded sample of arity-4 tables.

For each of the 276 tables of arity 1 to 3, in all_tables order, and for
each of ARITY4_SAMPLE tables of arity 4 drawn by random.Random(7),
`separate` runs in process on a one-connective signature file; its exit
code, stdout and stderr are hashed, one sha256 digest per table set and
output format. A change to the separator, its verifier or their
rendering that alters a single byte of any of these outputs changes a
digest.

After an intended output change, print the new digests with
``PYTHONPATH=src python tests/test_separate_pinned.py`` and review the
per-table diff of the outputs before updating them.
"""

import contextlib
import hashlib
import io
import random
import tempfile
from pathlib import Path

import pytest

from cdkripke.cli import main
from cdkripke.truthfn import all_tables

DIGESTS = {
    "human": "d3edac7830ab6fed780fecb5889500dc5345e6a2263ff6d8822eed92cd33fd4c",
    "json": "8271c89d4f8cb327a523986ad919251b70a2e2b67c8d0804cfb0c226bff984ee",
}

ARITY4_SAMPLE = 300

ARITY4_DIGESTS = {
    "human": "6cb49c011702c10ebdae197e2abffe2fb817ef9e0be408cc601a6b68a95d36de",
    "json": "f00d9035d6bfedef99cfd1e0da17261d76a2662a916ca5c8cdc58a3866a303a7",
}


def transcript(argv) -> str:
    """'exit: <code>', then stdout, then stderr after a marker line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit: {code}\n{out.getvalue()}--stderr--\n{err.getvalue()}"


def small_tables() -> list:
    """(arity, bits) of every table of arity 1 to 3, in all_tables order."""
    return [(arity, table.bits()) for arity in (1, 2, 3) for table in all_tables(arity)]


def arity4_sample() -> list:
    """(4, bits) of ARITY4_SAMPLE distinct arity-4 tables drawn by
    random.Random(7), in draw order."""
    codes = random.Random(7).sample(range(2 ** 16), ARITY4_SAMPLE)
    return [(4, format(code, "016b")) for code in codes]


def digest(fmt: str, directory: Path, tables=None) -> str:
    h = hashlib.sha256()
    sig = directory / "sig.txt"
    for arity, bits in small_tables() if tables is None else tables:
        sig.write_text(f"conn c {arity} {bits}\n")
        h.update(transcript(["separate", "--sig", str(sig), "--format", fmt]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("fmt", sorted(DIGESTS))
def test_separate_output_is_pinned(fmt, tmp_path):
    assert digest(fmt, tmp_path) == DIGESTS[fmt]


@pytest.mark.parametrize("fmt", sorted(ARITY4_DIGESTS))
def test_separate_arity4_sample_is_pinned(fmt, tmp_path):
    assert digest(fmt, tmp_path, arity4_sample()) == ARITY4_DIGESTS[fmt]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for name, digests, tables in (("DIGESTS", DIGESTS, None),
                                      ("ARITY4_DIGESTS", ARITY4_DIGESTS, arity4_sample())):
            print(f"{name}:")
            for fmt in sorted(digests):
                print(f'    "{fmt}": "{digest(fmt, Path(d), tables)}",')
