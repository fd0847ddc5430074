"""Output checks for the benchmark, written apart from the library.

Every check takes plain data (the ``to_dict()`` form of a chain, the
``--json`` envelope of the CLI, claim records as dicts) and returns
``None`` when the output is right or a one-line reason when it is not.
The arithmetic here is re-derived from the paper's formulas with its own
code, so a defect in the library cannot hide behind the same defect in
its checker.  Nothing here is timed.
"""

from __future__ import annotations

import json

# Recorded cubic-surface chains (point sequences) from the source paper.
RECORDED_CUBIC = {
    18: [18, 20, 28, 22, 16, 13, 7, 5, 3, 1],
    54: [54, 55, 53, 56, 52, 40, 35, 27, 23, 15, 12, 8, 6, 7, 5, 3, 1],
    2: [2, 6, 7, 5, 3, 1],
}

# The two documented discrepancies that the claim suites must flag.
FLAGGED_IDS = ("bordiga.23.complement-indexing", "deg20.03.resolution-display")

# Exit codes of the CLI: success, input error, open case.
EXIT_OK, EXIT_INPUT, EXIT_OPEN = 0, 1, 2


def check_chain(data: dict, space: str, n: int) -> str | None:
    """Replay a serialized chain with integer arithmetic: linkage from n,
    liaison totals n + n' = m*d - (2g - 2), biliaison drops
    n' = n - h*d, terminal 1, and the recorded cubic sequences."""
    if data.get("space") != space:
        return f"space {data.get('space')!r} != {space!r}"
    if data.get("start") != n:
        return f"start {data.get('start')} != {n}"
    cur = n
    seq = [n]
    for i, step in enumerate(data["steps"]):
        n_from, n_to = step["from"], step["to"]
        if n_from != cur:
            return f"step {i}: starts at {n_from} but the chain sits at {cur}"
        d, g = step["carrier"]["d"], step["carrier"]["g"]
        if step["kind"] == "liaison":
            if n_from + n_to != step["m"] * d - (2 * g - 2):
                return f"step {i}: {n_from} + {n_to} != {step['m']}*{d} - (2*{g} - 2)"
        elif step["kind"] == "biliaison":
            if n_to != n_from - step["h"] * d:
                return f"step {i}: {n_to} != {n_from} - {step['h']}*{d}"
        else:
            return f"step {i}: unknown kind {step['kind']!r}"
        cur = n_to
        seq.append(cur)
    if cur != 1:
        return f"chain ends at {cur}, not 1"
    if data.get("terminal") != cur:
        return f"terminal field {data.get('terminal')} != {cur}"
    if space == "cubic-surface" and n in RECORDED_CUBIC and seq != RECORDED_CUBIC[n]:
        return f"cubic chain for {n} is {seq}, recorded {RECORDED_CUBIC[n]}"
    return None


def check_claims(records: list[dict]) -> str | None:
    """Zero failures and exactly the two documented flags."""
    if len(records) < 40:
        return f"only {len(records)} claim records"
    failed = [r["id"] for r in records if r["status"] == "fail"]
    if failed:
        return f"failing claims: {failed}"
    flagged = sorted(r["id"] for r in records if r["status"] == "flagged")
    if flagged != sorted(FLAGGED_IDS):
        return f"flagged claims {flagged} != {sorted(FLAGGED_IDS)}"
    return None


def min_genus_closed_form(d: int) -> int:
    """(s-1)d - C(s+2,3) - C(s+2,4) + 1 with C(s+2,3) <= d < C(s+3,3)."""
    def c3(k):
        return k * (k - 1) * (k - 2) // 6

    def c4(k):
        return k * (k - 1) * (k - 2) * (k - 3) // 24

    s = 2
    while c3(s + 3) <= d:
        s += 1
    return (s - 1) * d - c3(s + 2) - c4(s + 2) + 1


def check_min_genus(d: int, genus: int, witness: list[int], formula: int) -> str | None:
    """The greedy minimum equals the library's closed form and ours, and
    its witness h-vector encodes (d, genus)."""
    if genus != formula:
        return f"min_genus({d}) = {genus} != min_genus_formula = {formula}"
    if genus != min_genus_closed_form(d):
        return f"min_genus({d}) = {genus} != closed form {min_genus_closed_form(d)}"
    wd = sum(witness)
    wg = sum((i - 1) * c for i, c in enumerate(witness) if i >= 2)
    if (wd, wg) != (d, genus):
        return f"witness {witness} encodes ({wd},{wg}), not ({d},{genus})"
    return None


# ---------------------------------------------------------------------------
# Lattices of the seven registered surfaces, restated from the paper:
# plane blow-ups pair by diag(1, -1, ..., -1) with K = (-3; -1, ..., -1).

BLOWUP_H = {
    "scroll": (2, 1),
    "delpezzo": (3, 1, 1, 1, 1, 1),
    "castelnuovo": (4, 2) + (1,) * 7,
    "bordiga": (4,) + (1,) * 10,
    "cubic": (3,) + (1,) * 6,
}
ABSTRACT = {
    # name: (gram, H, K)
    "quadric": (((0, 1), (1, 0)), (1, 1), (-2, -2)),
    "det10": (((10, 10), (10, 5)), (1, 0), (0, 1)),
}
RANKS = {**{k: len(v) for k, v in BLOWUP_H.items()}, "quadric": 2, "det10": 2}


def _pair(name: str, x: tuple, y: tuple) -> int:
    if name in BLOWUP_H:
        return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))
    gram = ABSTRACT[name][0]
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def expected_divisor(name: str, coeffs: tuple) -> tuple:
    """(degree, genus or "odd", effective or None) for a class given by
    its coefficients; None stands for "not a blow-up"."""
    if name in BLOWUP_H:
        H = BLOWUP_H[name]
        K = (-3,) + (-1,) * (len(H) - 1)
    else:
        _, H, K = ABSTRACT[name]
    degree = _pair(name, coeffs, H)
    twice = _pair(name, coeffs, coeffs) + _pair(name, coeffs, K)
    genus = "odd" if twice % 2 else twice // 2 + 1
    effective = None
    if name in BLOWUP_H:
        a = coeffs[0]
        core = [max(b, 0) for b in coeffs[1:]]
        effective = a >= 0 and a * (a + 3) // 2 - sum(b * (b + 1) // 2 for b in core) >= 0
    return degree, genus, effective


def check_divisor(name: str, coeffs: tuple, got: tuple) -> str | None:
    want = expected_divisor(name, coeffs)
    if got != want:
        return f"{name} {coeffs}: got {got}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# Families each space registers, restated from the paper, as
# (d, g, linsys_dim) triples.  p3 carriers are table rows with no
# linear-system dimension.

P3_TABLE = ((1, 0), (2, 0), (3, 0), (4, 1), (5, 2), (6, 3), (7, 5), (8, 7), (9, 9), (10, 11))


def is_registered(space: str, d: int, g: int, linsys) -> bool:
    """True when (d, g, linsys_dim) is a family the space registers."""
    if space == "p2":
        return d >= 1 and (g, linsys) == ((d - 1) * (d - 2) // 2, d * (d + 3) // 2)
    if space == "quadric":
        if (d, g, linsys) == (1, 0, 1):
            return True
        a, r = divmod(d, 2)
        if a < 1:
            return False
        if r == 0:
            return (g, linsys) == ((a - 1) ** 2, a * a + 2 * a)
        return (g, linsys) == (a * (a - 1), a * a + 3 * a + 1)
    if space == "cubic-surface":
        for a in range(max(1, (d - 1) // 3), d // 3 + 2):
            for dd, gg in (
                (3 * a - 2, (3 * a * a - 7 * a + 4) // 2),
                (3 * a - 1, (3 * a * a - 5 * a + 2) // 2),
                (3 * a, (3 * a * a - 3 * a) // 2),
                (3 * a, (3 * a * a - 3 * a + 2) // 2),
            ):
                if (d, g, linsys) == (dd, gg, dd + gg - 1):
                    return True
        return False
    if space == "p3":
        return (d, g) in P3_TABLE and linsys is None
    return False


def check_verdict(expect_reject: bool, error: BaseException | None,
                  invalid_move: type) -> str | None:
    """A chain from outside: a forged chain must be rejected with the
    typed InvalidMove, a genuine one must be accepted."""
    if expect_reject:
        if error is None:
            return "forged chain accepted"
        if not isinstance(error, invalid_move):
            return f"forged chain rejected with {type(error).__name__}, not InvalidMove"
        return None
    if error is not None:
        return f"genuine chain rejected: {type(error).__name__}: {error}"
    return None


# ---------------------------------------------------------------------------
# CLI outputs.

def check_exit(code: int, expected: int) -> str | None:
    if code != expected:
        return f"exit code {code}, expected {expected}"
    return None


def _envelope(stdout: str, command: str) -> tuple[dict | None, str | None]:
    try:
        env = json.loads(stdout)
    except ValueError as exc:
        return None, f"--json output does not parse: {exc}"
    if not isinstance(env, dict) or set(env) != {"command", "inputs", "result", "version"}:
        return None, "--json output is not a {command, inputs, result, version} envelope"
    if env["command"] != command:
        return None, f"envelope command {env['command']!r} != {command!r}"
    return env, None


def check_envelope(stdout: str, command: str, result) -> str | None:
    """The ``--json`` envelope parses and its result equals the library's."""
    env, error = _envelope(stdout, command)
    if error is None and env["result"] != result:
        error = f"{command} --json result differs from the library's"
    return error


def hvector_result(stdout: str) -> tuple[dict | None, str | None]:
    env, error = _envelope(stdout, "hvector")
    return (env["result"] if env else None), error


def parse_class(text: str) -> tuple:
    """Inverse of the run-length class string, ``"6;2^3,1"``."""
    head, _, tail = text.partition(";")
    coeffs = [int(head)]
    for term in tail.split(",") if tail else ():
        value, _, count = term.partition("^")
        coeffs.extend([int(value)] * int(count or 1))
    return tuple(coeffs)


def check_divisor_json(stdout: str, name: str, coeffs: tuple) -> str | None:
    """``divisor --json`` numbers against the lattice arithmetic above."""
    env, error = _envelope(stdout, "divisor")
    if error:
        return error
    res = env["result"]
    H = BLOWUP_H.get(name) or ABSTRACT[name][1]
    K = (-3,) + (-1,) * (len(H) - 1) if name in BLOWUP_H else ABSTRACT[name][2]
    down = tuple(c - h for c, h in zip(coeffs, H))
    degree, genus, effective = expected_divisor(name, coeffs)
    down_effective = expected_divisor(name, down)[2]

    def word(flag):
        return "n/a (abstract model)" if flag is None else ("yes" if flag else "no")

    want = {
        "surface": name,
        "class": coeffs,
        "degree": degree,
        "genus": genus,
        "C2": _pair(name, coeffs, coeffs),
        "CK": _pair(name, coeffs, K),
        "C_minus_H": down,
        "effective_general": word(effective),
        "C_minus_H_effective_general": word(down_effective),
    }
    got = dict(res)
    try:
        got["class"] = parse_class(res["class"])
        got["C_minus_H"] = parse_class(res["C_minus_H"])
    except (KeyError, ValueError):
        return f"divisor {name}: unreadable class fields in {res}"
    if got != want:
        bad = sorted(k for k in want if got.get(k) != want[k])
        return f"divisor {name} {coeffs}: fields {bad} differ"
    return None


def check_plan_text(stdout: str, sequence: list[int]) -> str | None:
    """Text ``plan`` output: one ``a -> b [...]`` line per move, walking
    the library's point sequence, then the terminal line."""
    lines = stdout.splitlines()
    moves = [ln for ln in lines if " -> " in ln]
    walked = [sequence[0]] if sequence else []
    for ln in moves:
        a, _, rest = ln.partition(" -> ")
        b = rest.split(" ", 1)[0]
        if not walked or int(a) != walked[-1]:
            return f"text line {ln!r} breaks the walk"
        walked.append(int(b))
    if walked != sequence:
        return f"text walk {walked} != {sequence}"
    if not lines or not lines[-1].startswith("terminal: 1"):
        return "text output lacks the terminal line"
    return None
