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

The names are lazy: ``import glicci`` loads no submodule, and a public
name (or a submodule, such as ``glicci.errors``) imports its submodule
when it is first read, so a command pays only for the layers it uses.
"""

__version__ = "0.1.0"

# The public names each submodule defines; the submodules stay importable
# but are not re-exported.
_EXPORTS = {
    "catalog": "CurveFamily DescentEntry PerrinEntry bordiga_eleven_seven bordiga_ten_six"
               " cubic_surface_type perrin_m perrin_table plane_curve_family quadric_family"
               " small_degree_acm_pairs small_degree_descents surface surface_names",
    "claims": "ClaimRecord records_as_dicts render_text run_suite summarize verify_all"
              " verify_bordiga verify_catalog verify_deg20 verify_rao",
    "hvector": "HVector dg_of entry_bound enumerate_hvectors min_genus min_genus_formula s_zero",
    "moves": "Chain LinkMove biliaison_curve decompose_biliaison liaison_target liaison_total"
             " validate_chain",
    "picard": "DivisorClass SurfaceModel",
    "planner": "P3_GUARANTEED_MAX SPACES ReachabilityOracle build_oracle p3_descending_moves plan",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    # Called only for a name not yet bound here (PEP 562); binding it
    # makes the next read an ordinary one.
    from importlib import import_module
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS or name == "errors":
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
