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


# Every public name, sorted; adding or removing one changes this list on purpose.
PUBLIC_NAMES = [
    "Chain", "ClaimRecord", "CurveFamily", "DescentEntry", "DivisorClass", "HVector",
    "LinkMove", "P3_GUARANTEED_MAX", "PerrinEntry", "ReachabilityOracle", "SPACES",
    "SurfaceModel", "biliaison_curve", "bordiga_eleven_seven", "bordiga_ten_six",
    "build_oracle", "cubic_surface_type", "decompose_biliaison", "dg_of", "entry_bound",
    "enumerate_hvectors", "liaison_target", "liaison_total", "min_genus", "min_genus_formula",
    "p3_descending_moves", "perrin_m", "perrin_table", "plan", "plane_curve_family",
    "quadric_family", "records_as_dicts", "render_text", "run_suite", "s_zero",
    "small_degree_acm_pairs", "small_degree_descents", "summarize", "surface",
    "surface_names", "validate_chain", "verify_all", "verify_bordiga", "verify_catalog",
    "verify_deg20", "verify_rao",
]


def test_public_names_are_pinned():
    import glicci

    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 46
    assert glicci.__all__ == PUBLIC_NAMES
