"""Independent reference results for every benchmark op.

Nothing here imports the program under test.  Generated problems are drawn
again from the stream definition that powertriad.zoo documents (Philox keyed
by the seed; chunk i of 65536 samples comes from Philox(key=seed).jumped(i)),
so the oracle holds the same doubles the program reads.

Reference sums are taken in an error basis, after Chan, Golub & LeVeque
(Am. Stat. 1983): with d = z - x, every statistic of an estimate v = c*z is a
combination of a few math.fsum sums over (x, d).  That keeps the reference
exact on high-power, accurate data, where sums of raw powers cancel.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ElementTree

import numpy as np

CHUNK = 1 << 16
REL_TOL = 1e-8
BALANCE_TOL = 1e-6

# Fields whose values depend on how accurately the sums are formed; a miss on
# them for an input marked ``cancellation`` is the known raw-sum defect, as
# long as its relative error is finite and below KNOWN_DEFECT_MAX_REL: about
# ten times the worst mse error the raw sums gave on that input over seeds
# 0-29 and 1000-1029 (2.7e3; median 7e2).
ACCURACY_FIELDS = ("mse", "coupling", "bias", "mse_at_star", "final_mse")
KNOWN_DEFECT_MAX_REL = 3e4

DIAGNOSE_KEYS = ["bias", "error_variance", "power_ratio", "mse", "coupling", "regime", "verdict"]
VERDICT_KEYS = ["regime", "coupling", "bound", "satisfied", "degenerate", "negative_coupling"]
SCALE_KEYS = ["t_star", "mse_at_star", "orthogonality_residual", "power_at_star",
              "conservation_margin", "collinear"]
PATH_KEYS = ["t_star", "t_balance", "converged", "steps_to_converge", "max_overshoot",
             "forbidden_steps", "iterates"]
MAP_JSON_KEYS = ["map", "balance_line", "penalty_line", "singularity", "ideal_path",
                 "safe_region", "forbidden_region"]
MAP_CSV_HEADER = "label,power_ratio,coupling_norm,coupling_raw,regime"
PATH_CSV_HEADER = "k,t,mse,regime"
TRACK_CSV_HEADER = "k,t_true,t_tracked,tracking_error,regime"
ZOO_LISTING = ["problem kinds:", "  gaussian_shrinkage", "  deterministic_parameter",
               "  heavy_tail", "  step_change", "  drifting_power", "estimator kinds:",
               "  zero", "  identity", "  scale", "  empirical_mmse", "  amplifier"]


class OracleError(RuntimeError):
    """The oracle cannot vouch for a reference value; the run is invalid."""


def signal_power(kind: str, k: np.ndarray, params: dict) -> np.ndarray:
    sp = params.get("signal_power", 1.0)
    if kind == "step_change":
        return np.where(k < params.get("change_index", 1000), sp,
                        sp * params.get("change_factor", 4.0))
    if kind == "drifting_power":
        amplitude = params.get("drift_amplitude", 0.5)
        period = params.get("drift_period", 2000.0)
        return sp * (1.0 + amplitude * np.sin(2.0 * np.pi * k / period))
    return np.full(k.shape, sp, dtype=np.float64)


def draw(kind: str, seed: int, n: int, **params) -> tuple[np.ndarray, np.ndarray]:
    """The (x, z) pairs a generated problem yields for this seed and n."""
    noise = math.sqrt(params.get("noise_power", 1.0))
    x = np.empty(n)
    z = np.empty(n)
    for i in range((n + CHUNK - 1) // CHUNK):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        lo = i * CHUNK
        s = signal_power(kind, np.arange(lo, lo + CHUNK), params)
        if kind == "deterministic_parameter":
            xc = np.full(CHUNK, math.sqrt(params.get("signal_power", 1.0)))
        elif kind == "heavy_tail":
            xc = rng.laplace(0.0, np.sqrt(s / 2.0))
        else:
            xc = np.sqrt(s) * rng.standard_normal(CHUNK)
        zc = xc + noise * rng.standard_normal(CHUNK)
        hi = min(n, lo + CHUNK)
        x[lo:hi] = xc[: hi - lo]
        z[lo:hi] = zc[: hi - lo]
    return x, z


def _exact(terms: list[float], what: str) -> float:
    """fsum of a short combination, refusing one that cancels too far to trust."""
    total = math.fsum(terms)
    scale = math.fsum(abs(t) for t in terms)
    if scale > 0.0 and abs(total) < 1e-6 * scale:
        raise OracleError(f"reference {what} cancels below 1e-6 of its terms")
    return total


class Reference:
    """fsum'd sums of one input in the error basis (x, d = z - x).

    ``cancellation`` marks inputs whose raw power sums lose most digits, so
    misses on ACCURACY_FIELDS there are attributed to the known defect.
    """

    def __init__(self, x: np.ndarray, z: np.ndarray, *, cancellation: bool = False):
        d = z - x
        self.n = int(x.size)
        self.sxx = math.fsum(x * x)
        self.sdd = math.fsum(d * d)
        self.sxd = math.fsum(x * d)
        self.sx = math.fsum(x)
        self.sd = math.fsum(d)
        self.cancellation = cancellation
        picks = sorted({0, self.n // 2, self.n - 1})
        self.rows = {i: (float(x[i]), float(z[i])) for i in picks}

    # statistics of the estimate v = c*z, with e = v - x = (c-1)x + c*d
    def sum_ee(self, c: float) -> float:
        return _exact([(c - 1.0) ** 2 * self.sxx, 2.0 * c * (c - 1.0) * self.sxd,
                       c * c * self.sdd], "sum e^2")

    def sum_xe(self, c: float) -> float:
        return math.fsum([(c - 1.0) * self.sxx, c * self.sxd])

    def mse(self, c: float = 1.0) -> float:
        return self.sum_ee(c) / self.n

    def coupling(self, c: float = 1.0) -> float:
        return _exact([self.sum_xe(c), self.sum_ee(c)], "coupling") / self.n

    def mean_e(self, c: float = 1.0) -> float:
        return _exact([(c - 1.0) * self.sx, c * self.sd], "mean error") / self.n

    def ex2(self) -> float:
        return self.sxx / self.n

    def gap(self, c: float = 1.0) -> float:
        """ev2 - ex2 of the estimate c*z."""
        return math.fsum([2.0 * self.sum_xe(c), self.sum_ee(c)]) / self.n

    def regime(self, c: float = 1.0) -> str:
        return regime_of(self.gap(c), self.ex2())

    def power_ratio(self, c: float = 1.0) -> float:
        return 1.0 + self.gap(c) / self.ex2()

    def t_star(self) -> float:
        return _exact([self.sxx, self.sxd], "exz") / _exact(
            [self.sxx, 2.0 * self.sxd, self.sdd], "ez2")


def regime_of(gap: float, ex2: float) -> str:
    band = BALANCE_TOL * ex2
    if abs(gap) <= band:
        return "power_balance"
    return "power_dominant" if gap > band else "power_conservative"


class Check:
    """Collects the misses of one op against the oracle."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.misses: list[tuple[str, str, float]] = []  # field, detail, relative error
        self.rel_errors: dict[str, float] = {}

    def fail(self, field: str, detail: str, rel_error: float = math.inf) -> None:
        self.misses.append((field, detail, rel_error))

    def equal(self, field: str, got, want) -> None:
        if got != want:
            self.fail(field, f"got {got!r}, want {want!r}")

    def close(self, field: str, got, want: float, rel: float = REL_TOL) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            self.fail(field, f"got non-number {got!r}")
            return
        err = abs(got - want) / abs(want) if want else (0.0 if got == want else math.inf)
        if math.isnan(err):
            err = math.inf
        self.rel_errors[field] = max(err, self.rel_errors.get(field, 0.0))
        if not abs(got - want) <= rel * abs(want):
            self.fail(field, f"got {got!r}, want {want!r} (relative error {err:.3g})", err)

    def verdict(self) -> str:
        """'ok', 'known_defect' (bounded accuracy misses on a cancellation
        input) or 'failed'."""
        if not self.misses:
            return "ok"
        bounded = all(f in ACCURACY_FIELDS and err < KNOWN_DEFECT_MAX_REL
                      for f, _, err in self.misses)
        if bounded and self.ref.cancellation:
            return "known_defect"
        return "failed"


def load_json(chk: Check, text: str, keys: list[str]):
    """Parse a JSON document and check its top-level key order.

    Nested objects stay lists of (key, value) pairs so their order can be
    checked too.
    """
    try:
        pairs = json.loads(text, object_pairs_hook=list)
    except ValueError as exc:
        chk.fail("json", f"does not parse: {exc}")
        return None
    chk.equal("key_order", [k for k, _ in pairs], keys)
    return dict(pairs)


# Checks take the op's outcome: its exit_code, stdout and, for API ops, value.
# The mse of t*z is mse(c=t), so a scale t needs no formula of its own.

def check_diagnose(c: float, chk: Check, out) -> None:
    """`diagnose` of the estimate c*z: exit 3 exactly when power dominant."""
    ref = chk.ref
    regime = ref.regime(c)
    chk.equal("exit", out.exit_code, 3 if regime == "power_dominant" else 0)
    doc = load_json(chk, out.stdout, DIAGNOSE_KEYS)
    if doc is None:
        return
    chk.equal("verdict_key_order", [k for k, _ in doc.get("verdict", [])], VERDICT_KEYS)
    chk.equal("regime", doc.get("regime"), regime)
    chk.close("mse", doc.get("mse"), ref.mse(c))
    chk.close("coupling", doc.get("coupling"), ref.coupling(c))
    chk.close("bias", doc.get("bias"), ref.mean_e(c))


def check_scale(chk: Check, out) -> None:
    chk.equal("exit", out.exit_code, 0)
    doc = load_json(chk, out.stdout, SCALE_KEYS)
    if doc is None:
        return
    chk.close("t_star", doc.get("t_star"), chk.ref.t_star())
    chk.close("mse_at_star", doc.get("mse_at_star"), chk.ref.mse(chk.ref.t_star()))


def check_path(chk: Check, out) -> None:
    chk.equal("exit", out.exit_code, 0)
    head, sep, tail = out.stdout.partition("{")
    lines = head.splitlines()
    if not sep or not lines:
        chk.fail("output", "expected CSV rows followed by a JSON summary")
        return
    chk.equal("csv_header", lines[0], PATH_CSV_HEADER)
    doc = load_json(chk, sep + tail, PATH_KEYS)
    if doc is None:
        return
    chk.equal("iterates", doc.get("iterates"), len(lines) - 1)
    chk.close("t_star", doc.get("t_star"), chk.ref.t_star())
    _, t, mse, _ = lines[-1].split(",")
    chk.close("final_mse", float(mse), chk.ref.mse(float(t)))


def check_csv_rows(chk: Check, path, header: str, rows: int) -> list[str]:
    """Header, final newline and row count of a CSV file; returns its data rows."""
    lines = path.read_bytes().decode().split("\n")
    chk.equal("csv_final_newline", lines[-1], "")
    chk.equal("csv_header", lines[0], header)
    body = lines[1:-1]
    chk.equal("csv_rows", len(body), rows)
    return body


def check_zoo_run(path, n: int, chk: Check, out) -> None:
    chk.equal("exit", out.exit_code, 0)
    body = check_csv_rows(chk, path, "x,v", n)
    for i, (x, z) in chk.ref.rows.items():
        if i < len(body):
            xs, _, zs = body[i].partition(",")
            chk.equal(f"row_{i}", (float(xs), float(zs)), (x, z))


def check_track(path, n: int, chk: Check, out) -> None:
    """`track --input --out`: no reference optimum, so t_true is nan."""
    chk.equal("exit", out.exit_code, 0)
    body = check_csv_rows(chk, path, TRACK_CSV_HEADER, n)
    if not body:
        return
    _, t_true, t_tracked, _, _ = body[0].split(",")
    x0, z0 = chk.ref.rows[0]
    chk.close("t_tracked_0", float(t_tracked), x0 / z0, rel=1e-12)
    chk.equal("t_true_0", t_true, "nan")
    chk.equal("last_k", body[-1].split(",")[0], str(n - 1))


def check_map(prefix, labels: list[tuple[str, float]], chk: Check, out) -> None:
    """Files of `map --out PREFIX --format all`; labels pairs each row with its c."""
    chk.equal("exit", out.exit_code, 0)
    ref = chk.ref
    for side in ("left", "right"):
        csv_path = prefix.with_name(f"{prefix.name}_{side}.csv")
        json_path = prefix.with_name(f"{prefix.name}_{side}.json")
        svg_path = prefix.with_name(f"{prefix.name}_{side}.svg")
        text = csv_path.read_text()
        rows = text.splitlines()
        chk.equal("map_csv_header", rows[0], MAP_CSV_HEADER)
        chk.equal("map_rows", len(rows) - 1, len(labels) + 1)
        for row, (label, c) in zip(rows[1:], labels):
            fields = row.split(",")
            chk.equal("map_label", fields[0], label)
            chk.equal("map_regime", fields[-1], ref.regime(c))
            chk.close("map_power_ratio", float(fields[1]), ref.power_ratio(c))
        chk.equal("map_optimum", rows[-1].split(",")[0], "optimum")
        doc = load_json(chk, json_path.read_text(), MAP_JSON_KEYS)
        if doc is not None:
            chk.equal("map_kind", doc.get("map"), side)
        try:
            root = ElementTree.fromstring(svg_path.read_bytes())
            chk.equal("svg_root", root.tag.rsplit("}", 1)[-1], "svg")
        except ElementTree.ParseError as exc:
            chk.fail("svg", f"does not parse: {exc}")
