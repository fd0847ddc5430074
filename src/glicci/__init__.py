"""Exact-arithmetic toolkit for Gorenstein liaison computations.

Three layers, all pure integer arithmetic on immutable values:

  * lattices: divisor classes on rational surfaces with intersection
    pairing, degree, adjunction genus, anticanonical twists, and a
    general-position effectiveness heuristic (:mod:`glicci.picard`,
    :mod:`glicci.catalog`);
  * h-vectors: degree/genus extraction, entry bounds, minimal-genus
    values with witnesses, brute-force enumeration
    (:mod:`glicci.hvector`);
  * moves and planners: liaison/biliaison arithmetic on point counts
    and on curve (degree, genus) pairs, validated reduction chains for
    general points in the plane, on a quadric, on a cubic surface, and
    in 3-space, plus a breadth-first reachability oracle and the claim
    suites re-deriving every recorded numeric value
    (:mod:`glicci.moves`, :mod:`glicci.planner`, :mod:`glicci.claims`).
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from . import errors
from .catalog import (
    CurveFamily,
    DescentEntry,
    PerrinEntry,
    bordiga_eleven_seven,
    bordiga_ten_six,
    cubic_surface_type,
    perrin_m,
    perrin_table,
    plane_curve_family,
    quadric_family,
    small_degree_acm_pairs,
    small_degree_descents,
    surface,
    surface_names,
)
from .claims import (
    ClaimRecord,
    records_as_dicts,
    render_text,
    run_suite,
    summarize,
    verify_all,
    verify_bordiga,
    verify_catalog,
    verify_deg20,
    verify_rao,
)
from .hvector import (
    HVector,
    dg_of,
    entry_bound,
    enumerate_hvectors,
    min_genus,
    min_genus_formula,
    s_zero,
)
from .moves import (
    Chain,
    LinkMove,
    biliaison_curve,
    decompose_biliaison,
    liaison_target,
    liaison_total,
    validate_chain,
)
from .picard import DivisorClass, SurfaceModel
from .planner import (
    P3_GUARANTEED_MAX,
    SPACES,
    ReachabilityOracle,
    build_oracle,
    p3_descending_moves,
    plan,
)

# The public names above; the submodules stay importable but are not re-exported.
__all__ = [
    name for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
