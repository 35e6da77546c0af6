"""Experiment drivers that measure the theorem-level inequalities.

Each driver produces a CertificationRecord with the measured left side,
the weighted bound on the right side, and their ratio.  Implicit constants
are never asserted against fixed values: campaigns track running suprema
of ratios, while the exact per-cube inequalities live in their own modules
and are asserted there.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DomainError,
    DyadicCube,
    GridFunction,
    Inequality,
    check_resolution,
    dilate_products,
    root_cube,
    weighted_norm,
)
from .kernels import H2Report, check_h2, hilbert_kernel, hilbert_transform
from .oscillation import lerner_decompose
from .sparse import (
    CarlesonSequence,
    SparseFamily,
    dominate,
    dyadic_maximal,
    eval_sparse_A,
)
from .weights import WeightTuple, ap_constant, multi_ap_constant, power_weight
from . import samples


def beta_exponent(pbar, p0: float) -> float:
    """max(1, (p_i/p0)'/p) over i, with 1/p = sum 1/p_i."""
    pbar = tuple(float(p) for p in pbar)
    if not pbar:
        raise DomainError("need at least one exponent")
    if not 1 <= p0 < min(pbar):
        raise DomainError(f"p0 = {p0} must satisfy 1 <= p0 < min p_i")
    p = 1.0 / sum(1.0 / q for q in pbar)
    best = 1.0
    for q in pbar:
        a = q / p0
        best = max(best, (a / (a - 1.0)) / p)
    return best


def _non_finite_field(obj, path: str = "") -> str | None:
    """Dotted path of the first non-finite float in a JSON-ready object, in key order."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for key, val in items:
        found = _non_finite_field(val, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def dumps_finite(obj, **kwargs) -> str:
    """Strict JSON text of obj; a NaN or infinite float raises DomainError naming its field."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:
        field = _non_finite_field(obj)
        if field is None:
            raise
        raise DomainError(f"non-finite value in output field {field!r}") from None


@dataclass
class CertificationRecord:
    experiment: str
    params: dict
    lhs: float
    rhs: float
    constants: dict = field(default_factory=dict)
    seed: int | None = None
    sweep_key: str | None = None  # set by sweep: names the record's config, point and trial

    @property
    def ratio(self) -> float:
        return Inequality(self.lhs, self.rhs).ratio

    @property
    def degenerate(self) -> bool:
        return Inequality(self.lhs, self.rhs).degenerate

    def key(self) -> str:
        if self.sweep_key is not None:
            return self.sweep_key
        canon = json.dumps({"experiment": self.experiment, "params": self.params},
                           sort_keys=True)
        return hashlib.sha1(canon.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "key": self.key(),
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": None if self.degenerate else self.ratio,
            "constants": self.constants,
            "seed": self.seed,
            "degenerate": self.degenerate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CertificationRecord":
        """The record that ``to_dict`` wrote, keeping its stored key."""
        try:
            return cls(d["experiment"], d["params"], float(d["lhs"]), float(d["rhs"]),
                       d["constants"], d["seed"], sweep_key=d["key"])
        except (KeyError, TypeError, ValueError):
            raise DomainError(f"not a certification record: {d!r:.80}") from None


def _weighted_record(experiment: str, t: WeightTuple, fs, u: GridFunction, params: dict,
                     constants: dict) -> CertificationRecord:
    """||u||_{L^p(nu)} against [w]^beta prod_i ||f_i||_{L^{p_i}(w_i)}, with [w] the tuple's
    constant at r = p0; the tuple's shape joins ``params`` and [w], beta join ``constants``."""
    lhs = weighted_norm(u, t.p, t.nu())
    const = multi_ap_constant(t, r=t.p0).value
    beta = beta_exponent(t.exponents, t.p0)
    rhs = const**beta
    for f, p_i, w in zip(fs, t.exponents, t.weights):
        rhs *= weighted_norm(f, p_i, w)
    return CertificationRecord(
        experiment,
        {"m": t.m, "p0": t.p0, "p": list(t.exponents), "L": t.level, "n": t.dim, **params},
        lhs, rhs,
        constants={"multi_ap": const, "beta": beta, **constants},
    )


def certify_theorem_b(S: SparseFamily, t: WeightTuple, fs) -> CertificationRecord:
    """Sparse-form bound: ||A_S f||_{L^p(nu)} against [w]^beta prod ||f_i||_{L^{p_i}(w_i)}."""
    for f in fs:
        if np.any(f.values < 0):
            raise DomainError("certification inputs must be nonnegative")
    if len(fs) != t.m:
        raise DomainError("tuple arity does not match the weights")
    return _weighted_record("theorem-b", t, fs, eval_sparse_A(S, 0, t.p0, fs),
                            {"family_size": len(S)}, {})


def certify_theorem_a(a: CarlesonSequence, k: int, p0: float, fs, p: float,
                      w: GridFunction | None = None, seed: int = 0,
                      cstar: float | None = None) -> CertificationRecord:
    """Complexity collapse: ||A^k f|| against (k+1) ||sum_l A^0_{S_l} f|| in L^p(w)."""
    res = dominate(a, k, p0, fs, cstar=cstar, seed=seed)
    n, L = fs[0].dim, fs[0].level
    lhs = weighted_norm(GridFunction(n, L, res.lhs), p, w)
    denom = weighted_norm(GridFunction(n, L, res.rhs), p, w)
    rhs = (k + 1) * denom
    return CertificationRecord(
        "theorem-a",
        {"k": k, "p0": p0, "p": p, "L": L, "n": n, "m": len(fs)},
        lhs, rhs,
        constants={
            "cell_constant": res.cell_constant,
            "pieces": len(res.pieces),
            "raw_norm_ratio": Inequality(lhs, denom).ratio,
        },
    )


def certify_theorem_c(op, t: WeightTuple, fs, h2) -> CertificationRecord:
    """End-to-end operator bound through the oscillation decomposition.

    Applies the operator, a function of the inputs called as ``op(*fs)``, runs
    the sparse decomposition of the output, logs the per-cube oscillation
    ratios against the ring series, and compares ||T f||_{L^p(nu)} with
    [w]^beta prod ||f_i||.
    """
    delta0 = h2.delta0 if isinstance(h2, H2Report) else float(h2)
    if delta0 is None or delta0 <= 0:
        raise DomainError("need a positive effective decay rate delta0")
    if len(fs) != t.m:
        raise DomainError("tuple arity does not match the weights")
    u = op(*fs)
    dec = lerner_decompose(u, root_cube(fs[0].dim))
    # omega(Q) over the ring series of Q, one level of family cubes at a time
    dil = dilate_products(fs, dec.osc, t.p0)
    osc_ratio_sup = 0.0
    for j, om in dec.osc.items():
        s = sum(2.0 ** (-ell * delta0) * v for ell, v in enumerate(dil[j]))
        ratio = np.divide(om, s, out=np.zeros_like(om), where=s > 0)
        osc_ratio_sup = max(osc_ratio_sup, float(ratio.max()))
    return _weighted_record("theorem-c", t, fs, u, {}, {
        "delta0": delta0,
        "family_size": len(dec.family),
        "median": dec.base_median,
        "osc_ratio_sup": osc_ratio_sup,
    })


def certify_buckley(w: GridFunction, p: float, f: GridFunction,
                    maxlevel: int | None = None) -> CertificationRecord:
    """Maximal-function bound ||M f||_{L^p(w)} against [w]_{A_p}^(1/(p-1)) ||f||_{L^p(w)}."""
    if p <= 1:
        raise DomainError(f"need p > 1, got {p}")
    lhs = weighted_norm(dyadic_maximal(f, 1.0, maxlevel=maxlevel), p, w)
    const = ap_constant(w, p, maxlevel)
    rhs = const.value ** (1.0 / (p - 1.0)) * weighted_norm(f, p, w)
    return CertificationRecord(
        "buckley",
        {"p": p, "L": f.level, "n": f.dim},
        lhs, rhs,
        constants={"ap": const.value},
    )


# ---------------------------------------------------------------------------
# Campaign helpers


def extremal_probe_tuple(t: WeightTuple):
    """Near-extremizer inputs f_i = sigma_i chi_Q on the witness cube of [w]."""
    chi = GridFunction.indicator(t.dim, t.level, multi_ap_constant(t, r=t.p0).witness)
    return [s * chi for s in t.dual_weights()]


def power_weight_tuple(alpha: float, exponents, p0: float, n: int = 1, L: int = 8) -> WeightTuple:
    """Weight pair (dist^alpha, dist^-alpha) centred at 0 and 1/2 respectively,
    cut or padded with constant weights to one weight per exponent."""
    m = len(tuple(exponents))
    weights = [power_weight(a, center=(c,) * n, n=n, L=L)
               for a, c in [(alpha, 0.0), (-alpha, 0.5)][:m]]
    weights += [GridFunction.constant(n, L, 1.0) for _ in range(m - len(weights))]
    return WeightTuple(tuple(weights), tuple(exponents), p0=p0)


# The fit uses rings j = 2..min(5, L-2) and needs three of them, so the
# smallest resolution a theorem-c sweep can run at is L = 6.
H2_FIT_MIN_LEVEL = 6


def hilbert_h2_fit(L: int, p0: float) -> H2Report:
    """Ring-decay fit for the reference singular kernel at resolution L.

    The base cube level keeps every fitted ring inside the principal sheet
    of the torus (the outermost dilate stays strictly below full size).
    """
    level = min(6, L - 2)
    jmax = min(5, level)
    return check_h2(hilbert_kernel(L), p0, DyadicCube(level, (1,)), jmax)


# ---------------------------------------------------------------------------
# Parameter sweeps

SWEEP_KEYS = {
    "experiment", "n", "L", "m", "p0", "p", "k", "weight_family",
    "trials", "seed", "out", "plot",
}
WEIGHT_FAMILY_KEYS = {"type", "alpha_grid"}
# the canonical defaults of the fields that some experiment never reads
_DEFAULTS = {"m": 1, "p0": 1.0, "k": [0],
             "weight_family": {"type": "constant", "alpha_grid": [0.0]}}
_UNREAD = {"theorem-a": ("weight_family",), "theorem-b": ("k",), "theorem-c": ("k",),
           "buckley": ("m", "p0", "k")}
# where a sweep writes; they do not change what it computes
_PLACEMENT_KEYS = ("out", "plot")


def _integer(value, name: str, low: int) -> int:
    """A JSON integer (an integral float counts) that is at least ``low``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"config {name!r} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"config {name!r} must be at least {low}, got {value}")
    return value


def _number(value, name: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise DomainError(f"config {name!r} must be a finite number, got {value!r}")
    return float(value)


def _numbers(value, name: str) -> list:
    if not isinstance(value, list):
        raise DomainError(f"config {name!r} must be a list, got {value!r}")
    return [_number(v, f"{name}[{i}]") for i, v in enumerate(value)]


def _keys(value, name: str, allowed: set) -> dict:
    if not isinstance(value, dict):
        raise DomainError(f"config {name!r} must be an object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise DomainError(f"unknown {name} keys: {sorted(unknown)}")
    return value


def validate_config(config: dict) -> dict:
    """Check every field of a sweep config and return it with canonical types.

    Integers become int and exponents, p0 and alphas become float, so equal
    configs hash equal.  Levels, exponents, the fields that the experiment
    never reads and the plot's columns are checked before any work starts.
    """
    if not isinstance(config, dict):
        raise DomainError("a sweep config must be a JSON object")
    _keys(config, "config", SWEEP_KEYS)
    if "experiment" not in config:
        raise DomainError("config needs an 'experiment' field")
    exp = config["experiment"]
    if exp not in ("theorem-a", "theorem-b", "theorem-c", "buckley"):
        raise DomainError(f"unknown experiment {exp!r}")
    wf = _keys(config.get("weight_family", _DEFAULTS["weight_family"]),
               "weight_family", WEIGHT_FAMILY_KEYS)
    if wf.get("type", "power") not in ("power", "constant"):
        raise DomainError(f"unknown weight family type {wf.get('type')!r}")
    plot = config.get("plot")
    if plot is not None:
        _keys(plot, "plot", {"x", "y", "out"})
        if "out" not in plot:
            raise DomainError("plot needs an 'out' path")
        if not all(isinstance(v, str) for v in plot.values()):
            raise DomainError(f"plot fields must be strings, got {plot!r}")
        columns = ["k" if exp == "theorem-a" else "alpha", "records", "ratio_max", "ratio_median"]
        plot = {"x": columns[0], "y": "ratio_max", **plot}
        if not {plot["x"], plot["y"]} <= set(columns):
            raise DomainError(f"plot x and y must be summary columns {columns}, got {plot!r}")
    if not isinstance(config.get("out", ""), (str, type(None))):
        raise DomainError(f"config 'out' must be a path, got {config['out']!r}")
    k = config.get("k", _DEFAULTS["k"])
    out = {
        "experiment": exp,
        "n": _integer(config.get("n", 1), "n", 1),
        "L": _integer(config.get("L", 8), "L", 0),
        "m": _integer(config.get("m", _DEFAULTS["m"]), "m", 1),
        "p0": _number(config.get("p0", _DEFAULTS["p0"]), "p0"),
        "p": _numbers(config.get("p", [2.0]), "p"),
        "k": [_integer(j, "k", 0) for j in (k if isinstance(k, list) else [k])],
        "weight_family": {"type": wf.get("type", "power"),
                          "alpha_grid": _numbers(wf.get("alpha_grid", [0.0]), "alpha_grid")},
        "trials": _integer(config.get("trials", 8), "trials", 1),
        "seed": _integer(config.get("seed", 0), "seed", 0),
        "out": config.get("out"),
        "plot": plot,
    }
    check_resolution(out["n"], out["L"])
    unread = [name for name in _UNREAD[exp] if out[name] != _DEFAULTS[name]]
    # a constant family reads no alpha: its alphas would only label points
    family = out["weight_family"]
    if exp != "theorem-a" and family["type"] == "constant" and family["alpha_grid"] != [0.0]:
        unread.append("weight_family.alpha_grid")
    if unread:
        raise DomainError(f"{exp} never reads config {unread}: omit them or give their defaults")
    if not _grid_points(out):
        grid = "k" if exp == "theorem-a" else "weight_family.alpha_grid"
        raise DomainError(f"{exp} needs at least one point in config '{grid}'")
    # a power family weighs by dist^alpha, and theorem-b's second weight by dist^-alpha
    n = out["n"]
    hi = n if exp == "theorem-b" and out["m"] >= 2 else math.inf
    if family["type"] == "power" and not all(-n < a < hi for a in family["alpha_grid"]):
        raise DomainError(f"{exp} needs {-n} < alpha < {hi} in config "
                          f"'weight_family.alpha_grid', got {family['alpha_grid']}")
    p0, m = out["p0"], out["m"]
    lengths = sorted({1, m}) if exp in ("theorem-b", "theorem-c") else [1]
    if len(out["p"]) not in lengths:
        raise DomainError(f"{exp} needs config 'p' of a length in {lengths}, got {len(out['p'])}")
    p = out["p"][0]
    if exp == "buckley" and p <= 1:
        raise DomainError(f"buckley needs p > 1, got {p}")
    if exp == "theorem-a" and (not p > 0 or not p0 >= 1):
        raise DomainError(f"theorem-a needs p > 0 and p0 >= 1, got p = {p}, p0 = {p0}")
    if exp in ("theorem-b", "theorem-c"):
        exponents = out["p"] if len(out["p"]) == m else [p] * m
        if min(exponents) <= 1:
            raise DomainError(f"exponents must exceed 1, got {exponents}")
        beta_exponent(exponents, p0)
    if exp == "theorem-c" and (out["n"], m) != (1, 1):
        raise DomainError("theorem-c runs the Hilbert operator: it needs n = 1 and m = 1")
    if exp == "theorem-c" and out["L"] < H2_FIT_MIN_LEVEL:
        raise DomainError(f"theorem-c needs config 'L' at least {H2_FIT_MIN_LEVEL} for the "
                          f"H2 fit, got {out['L']}")
    return out


def _record_keys(cfg: dict, points: int) -> list[list[str]]:
    """keys[i][trial]: a hash of the config (placement keys left out), point and trial."""
    run = {k: v for k, v in cfg.items() if k not in _PLACEMENT_KEYS}

    def key(i: int, trial: int) -> str:
        canon = json.dumps({"config": run, "point": i, "trial": trial}, sort_keys=True)
        return hashlib.sha1(canon.encode()).hexdigest()[:12]

    return [[key(i, t) for t in range(cfg["trials"])] for i in range(points)]


def _grid_points(cfg: dict) -> list[dict]:
    if cfg["experiment"] == "theorem-a":
        return [{"k": k} for k in cfg["k"]]
    return [{"alpha": alpha} for alpha in cfg["weight_family"]["alpha_grid"]]


def _run_point(cfg: dict, point: dict, point_index: int,
               h2: H2Report | None) -> list[CertificationRecord]:
    n, L, m = cfg["n"], cfg["L"], cfg["m"]
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], point_index]))
    exp = cfg["experiment"]
    # each experiment's trial draws its inputs from rng in a fixed order and certifies them
    if exp == "buckley":
        w = (power_weight(point["alpha"], n=n, L=L) if cfg["weight_family"]["type"] == "power"
             else GridFunction.constant(n, L, 1.0))

        def trial(ti: int) -> CertificationRecord:
            return certify_buckley(w, cfg["p"][0], samples.random_function(rng, n, L))
    elif exp == "theorem-a":
        def trial(ti: int) -> CertificationRecord:
            a = samples.random_carleson(rng, n, L, k_grid=point["k"])
            fs = [samples.random_function(rng, n, L) for _ in range(m)]
            return certify_theorem_a(a, point["k"], cfg["p0"], fs, cfg["p"][0], seed=cfg["seed"])
    else:
        # theorem-b / theorem-c share the weight grid
        exponents = tuple(cfg["p"]) if len(cfg["p"]) == m else tuple([cfg["p"][0]] * m)
        if cfg["weight_family"]["type"] == "constant":
            ones = tuple(GridFunction.constant(n, L, 1.0) for _ in range(m))
            t = WeightTuple(ones, exponents, p0=cfg["p0"])
        else:
            t = power_weight_tuple(point["alpha"], exponents, cfg["p0"], n=n, L=L)
        if exp == "theorem-b":
            probe = extremal_probe_tuple(t)

            def trial(ti: int) -> CertificationRecord:
                fs = probe if ti == 0 else [samples.random_function(rng, n, L) for _ in range(m)]
                rec = certify_theorem_b(samples.random_sparse_family(rng, n, L), t, fs)
                rec.params["inputs"] = "extremal" if ti == 0 else "random"
                return rec
        else:
            # the reference singular operator; h2 is fitted once per sweep
            def trial(ti: int) -> CertificationRecord:
                fs = [samples.random_function(rng, n, L) for _ in range(m)]
                rec = certify_theorem_c(hilbert_transform, t, fs, h2)
                rec.params["operator"] = "hilbert"
                return rec
    records: list[CertificationRecord] = []
    for ti in range(cfg["trials"]):
        rec = trial(ti)
        rec.params.update({**point, "trial": ti})
        rec.seed = cfg["seed"]
        records.append(rec)
    return records


@dataclass
class SweepResult:
    records: list[CertificationRecord]
    summary: list[dict]

    def ndjson(self) -> str:
        lines = [dumps_finite(r.to_dict(), sort_keys=True) for r in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    def csv(self) -> str:
        buf = io.StringIO()
        if not self.summary:
            return ""
        writer = csv.DictWriter(buf, fieldnames=list(self.summary[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.summary)
        return buf.getvalue()


def sweep(config: dict, done_keys: dict | None = None) -> SweepResult:
    """Run the experiment grid described by ``config`` deterministically.

    Points run in grid order, each from its own seeded generator, so outputs
    are byte-identical for a fixed seed.  Each record's key names its config,
    point and trial.

    ``done_keys`` maps keys to the records already written (the dicts of
    ``to_dict``), which makes interrupted sweeps resumable.  A point whose
    trials all have a key there is finished: it does not run, and its CSV
    row is built from those records.  The other points run, and only their
    records whose key is missing from ``done_keys`` are returned.  A point that
    fails with a FloatingPointError or DomainError re-raises it with the
    point's index and grid value in the message.
    """
    cfg = validate_config(config)
    points = _grid_points(cfg)
    keys = _record_keys(cfg, len(points))
    done = done_keys or {}
    results: dict[int, list[CertificationRecord]] = {
        i: [CertificationRecord.from_dict(done[k]) for k in ks]
        for i, ks in enumerate(keys) if all(k in done for k in ks)
    }
    todo = [i for i in range(len(points)) if i not in results]
    h2 = None
    if cfg["experiment"] == "theorem-c" and todo:
        h2 = hilbert_h2_fit(cfg["L"], cfg["p0"])
    records: list[CertificationRecord] = []
    for i in todo:
        try:
            results[i] = _run_point(cfg, points[i], i, h2)
        except (FloatingPointError, DomainError) as err:
            where = ", ".join(f"{k} = {v}" for k, v in points[i].items())
            raise type(err)(f"{err} at point {i} ({where})") from err
        for rec in results[i]:
            rec.sweep_key = keys[i][rec.params["trial"]]
            if rec.sweep_key not in done:
                records.append(rec)
    summary = []
    for i, pt in enumerate(points):
        recs = results[i]
        # a degenerate record compares nothing: it counts as a record but gives no ratio
        ratios = sorted(r.ratio for r in recs if not r.degenerate and math.isfinite(r.ratio))
        row = {"experiment": cfg["experiment"], **pt, "records": len(recs)}
        row["ratio_max"] = max(ratios) if ratios else 0.0
        row["ratio_median"] = ratios[len(ratios) // 2] if ratios else 0.0
        summary.append(row)
    return SweepResult(records, summary)
