"""Importing the CLI stays light: none of the heavy standard-library
modules that would dominate a short command's start-up is loaded."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_skips_heavy_modules():
    # -S keeps site (and any .pth file it runs) from loading modules on
    # its own, so only what glicci itself imports is counted.
    probe = (
        "import sys, glicci.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
