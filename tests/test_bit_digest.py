"""scripts/bit_digest.py: one fresh interpreter prints the three digests."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bit_digest_prints_three_digest_lines():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bit_digest.py"),
                           "--epochs", "1"], capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["trace", "params", "generations"]
    assert all(re.fullmatch(r"\w+ [0-9a-f]{64}", line) for line in lines)
    assert "30 trace rows, 60 generations" in proc.stderr
