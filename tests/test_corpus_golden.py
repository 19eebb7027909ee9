"""Every corpus script prints the verdict, value and witness lines on record.

The record is perfbench/expected/corpus.txt, which the benchmark also checks
against; this test only reads it. A deliberate change of corpus output means
regenerating that file from `nambu run` on each script. The record must also
hold under `python -O`, which strips bare asserts: internal cross-checks have
to be explicit raises to keep running there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nambu.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
EXPECTED = ROOT / "perfbench" / "expected" / "corpus.txt"
VERDICTS = ("PASS", "FAIL", "ERROR", "VERIFIED_ON_FAMILY", "REFUTED")


def read_expected() -> dict:
    """{script path relative to corpus/: (exit code, expected lines)}."""
    out, cur = {}, None
    for ln in EXPECTED.read_text().splitlines():
        if ln.startswith("## "):
            rel, _, code = ln[3:].rpartition(" exit=")
            cur = out[rel] = (int(code), [])
        elif cur is not None and ln:
            cur[1].append(ln)
    return out


def report_lines(stdout: str) -> list[str]:
    """Verdict, value and witness lines, without warnings and the summary."""
    return [
        ln for ln in stdout.splitlines()
        if ln.split("  ", 1)[0] in VERDICTS or ln.startswith(("    = ", "    witness: "))
    ]


SCRIPTS = sorted(p.relative_to(CORPUS).as_posix() for p in CORPUS.rglob("*.nmb"))


def test_every_script_is_on_record():
    assert SCRIPTS == sorted(read_expected())


@pytest.mark.parametrize("rel", SCRIPTS)
def test_corpus_output_matches_record(rel, capsys):
    code, lines = read_expected()[rel]
    assert main(["run", str(CORPUS / rel)]) == code
    assert report_lines(capsys.readouterr().out) == lines


def test_corpus_output_matches_record_under_optimize_flag():
    script = (
        "import contextlib, io, json, sys\n"
        "from nambu.cli import main\n"
        "out = {}\n"
        "for rel in sys.argv[2:]:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(['run', sys.argv[1] + '/' + rel])\n"
        "    out[rel] = [code, buf.getvalue()]\n"
        "print(json.dumps(out))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, str(CORPUS), *SCRIPTS],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    for rel, (code, lines) in read_expected().items():
        assert (got[rel][0], report_lines(got[rel][1])) == (code, lines), rel
