"""The report, estimate, sweep and series output bytes against a committed golden file.

A change that moves an output byte fails here; one that means to move
bytes regenerates the golden file from the checkout root with

    OPENBLAS_NUM_THREADS=1 python tools/report_digest.py --section report \\
        --section estimate --section sweep --section series --out /tmp/bytes.txt
    gzip -9 -n -c /tmp/bytes.txt > tests/golden/output_bytes.txt.gz

and lists the moved lines in CHANGES.md.  OpenBLAS runs on one thread
because the bytes of n = 256 inputs depend on its thread count.
"""

import gzip
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "output_bytes.txt.gz"
# Labels a mismatch prints.
_SHOWN = 5


def _label(line: str) -> str:
    """The label a digest line starts with: the text before its JSON or CSV row."""
    head = line.split(" {", 1)[0]
    label, _, last = head.rpartition(" ")
    return label if "," in last else head


def test_output_bytes_match_the_golden_file(tmp_path):
    out = tmp_path / "bytes.txt"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    res = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py"), "--section", "report",
         "--section", "estimate", "--section", "sweep", "--section", "series",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=600)
    assert res.returncode == 0, res.stderr
    got = out.read_text().splitlines()
    want = gzip.decompress(GOLDEN.read_bytes()).decode().splitlines()
    differ = [i for i in range(max(len(got), len(want)))
              if i >= len(got) or i >= len(want) or got[i] != want[i]]
    labels = dict.fromkeys(_label((want if i < len(want) else got)[i]) for i in differ)
    assert not differ, (f"{len(differ)} of {len(want)} golden lines differ ({len(got)} "
                        "produced); first labels:\n" + "\n".join(list(labels)[:_SHOWN]))
