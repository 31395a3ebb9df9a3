"""Per-layer metrics of the traced run.

install() wraps the probin entry points of each layer; metrics() turns
the recorded spans into the per_layer metrics of BENCHMARK.json.  Every
metric is reported on every workload; a layer a workload does not reach
reads 0.  Layer names are probin module names, plus "bench" for the
benchmark's own code inside an op (the shooting root-find loop, problem
set-up and checks).
"""

from __future__ import annotations

from spans import totals_by_name
from workloads import RAYLEIGH_M


def cascade_levels(m: int = RAYLEIGH_M) -> list:
    """Mesh sizes of rayleigh.solve_rayleigh's cascade, coarse to fine."""
    levels = [m]
    while levels[-1] > 40:
        levels.append(levels[-1] // 2)
    return levels[::-1]


LEVELS = cascade_levels()

LAYERS = ("_kernels", "shoot", "problems", "rayleigh", "verify", "bench")

PER_LAYER = (
    [
        ("ops.count", "count"),
        ("_kernels.rk4_path.calls", "count"),
        ("_kernels.rk4_path.steps", "count"),
        ("_kernels.rk4_path.ns_per_step", "ns"),
        ("_kernels.self_s", "s"),
        ("shoot.robin_mismatch.calls", "count"),
        ("shoot.integrations_per_solve", "count"),
        ("shoot.self_s", "s"),
        ("shoot.err_rel.max", "ratio"),
        ("problems.build.calls", "count"),
        ("problems.self_s", "s"),
        ("rayleigh.rayleigh_spec.calls", "count"),
        ("rayleigh.solve_rayleigh.calls", "count"),
        ("rayleigh.cache_hit_ratio", "ratio"),
        ("rayleigh.discretize.s", "s"),
    ]
    + [("rayleigh.level.%d.%s" % (m, k), u)
       for m in LEVELS for k, u in (("iters", "count"), ("s", "s"))]
    + [
        ("rayleigh.seed_levels.s_frac", "ratio"),
        ("rayleigh.quotient.calls", "count"),
        ("rayleigh.armijo.accept_ratio", "ratio"),
        ("rayleigh.unconverged_levels", "count"),
        ("rayleigh.self_s", "s"),
        ("rayleigh.err_rel.max", "ratio"),
        ("verify.picone_check.calls", "count"),
        ("verify.picone_check.s", "s"),
        ("verify.barta_sandwich.calls", "count"),
        ("verify.barta_sandwich.s", "s"),
        ("verify.self_s", "s"),
        ("bench.self_s", "s"),
        ("trace.untraced_s", "s"),
        ("trace.noise_s", "s"),
        ("trace.traced_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.accounted_s", "s"),
        ("trace.unaccounted_s", "s"),
    ]
)

BUILDERS = ("inradius_model_problem", "geodesic_ball_problem",
            "double_robin_problem", "warped_product_problem")


class Counters:
    def __init__(self):
        self.rk4_steps = 0
        self.levels = []  # (span index, m, iterations, converged) per minimize call


def install(tracer) -> Counters:
    """Wrap the layer entry points; tracer.restore() removes the wrappers."""
    from probin import problems, rayleigh, shoot, verify

    counters = Counters()

    def count_steps(idx, args, result):
        counters.rk4_steps += args[5].shape[0]  # hs, the signed step sizes

    def note_level(idx, args, result):
        d = result.diagnostics
        counters.levels.append((idx, d["m"], d["iterations"], d["converged"]))

    tracer.wrap(shoot, "rk4_path", "_kernels.rk4_path", count_steps)
    tracer.wrap(shoot, "robin_mismatch", "shoot.robin_mismatch")
    for name in BUILDERS:
        tracer.wrap(problems, name, "problems.build")
    tracer.wrap(rayleigh, "rayleigh_spec", "rayleigh.rayleigh_spec")
    tracer.wrap(rayleigh, "solve_rayleigh", "rayleigh.solve_rayleigh")
    tracer.wrap(rayleigh, "discretize", "rayleigh.discretize")
    tracer.wrap(rayleigh, "minimize", "rayleigh.minimize", note_level)
    tracer.wrap(rayleigh, "quotient", "rayleigh.quotient")
    tracer.wrap(verify, "picone_check", "verify.picone_check")
    tracer.wrap(verify, "barta_sandwich", "verify.barta_sandwich")
    return counters


def _ratio(num, den):
    return float(num) / den if den else 0.0


def metrics(tracer, counters, outcomes, traced_s, untraced) -> dict:
    """untraced holds the op time of the untraced passes before and after
    the traced one; their mean is the untraced time and their difference
    the run-to-run noise that the overhead is to be read against."""
    cols = tracer.columns()
    tot = totals_by_name(tracer.names, cols["name"], cols["start"], cols["end"], cols["parent"])

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, own) in tot.items():
        layer_self[name.split(".", 1)[0]] += own

    shoot_ops = sum(1 for o in outcomes if o.op.kind == "shoot")
    dur = cols["end"] - cols["start"]
    level_s = dict.fromkeys(LEVELS, 0.0)
    level_iters = dict.fromkeys(LEVELS, 0)
    unconverged = 0
    for idx, m, iters, converged in counters.levels:
        level_s[m] = level_s.get(m, 0.0) + float(dur[idx])
        level_iters[m] = level_iters.get(m, 0) + iters
        unconverged += not converged
    cascade_s = sum(level_s.values())

    def err_max(kinds):
        errs = [o.err for o in outcomes if o.op.kind in kinds and o.err is not None]
        return max(errs) if errs else 0.0

    untraced_s = sum(untraced) / len(untraced)
    accounted_s = sum(layer_self.values())
    out = {
        "ops.count": len(outcomes),
        "_kernels.rk4_path.calls": calls("_kernels.rk4_path"),
        "_kernels.rk4_path.steps": counters.rk4_steps,
        "_kernels.rk4_path.ns_per_step": 1e9 * _ratio(layer_self["_kernels"], counters.rk4_steps),
        "_kernels.self_s": layer_self["_kernels"],
        "shoot.robin_mismatch.calls": calls("shoot.robin_mismatch"),
        "shoot.integrations_per_solve": _ratio(calls("_kernels.rk4_path"), shoot_ops),
        "shoot.self_s": layer_self["shoot"],
        "shoot.err_rel.max": err_max(("shoot",)),
        "problems.build.calls": calls("problems.build"),
        "problems.self_s": layer_self["problems"],
        "rayleigh.rayleigh_spec.calls": calls("rayleigh.rayleigh_spec"),
        "rayleigh.solve_rayleigh.calls": calls("rayleigh.solve_rayleigh"),
        "rayleigh.cache_hit_ratio": _ratio(
            calls("rayleigh.rayleigh_spec") - calls("rayleigh.solve_rayleigh"),
            calls("rayleigh.rayleigh_spec")),
        "rayleigh.discretize.s": total("rayleigh.discretize"),
        "rayleigh.seed_levels.s_frac": _ratio(cascade_s - level_s[RAYLEIGH_M], cascade_s),
        "rayleigh.quotient.calls": calls("rayleigh.quotient"),
        # each minimize call evaluates the quotient once before its first step
        "rayleigh.armijo.accept_ratio": _ratio(
            sum(level_iters.values()), calls("rayleigh.quotient") - calls("rayleigh.minimize")),
        "rayleigh.unconverged_levels": unconverged,
        "rayleigh.self_s": layer_self["rayleigh"],
        "rayleigh.err_rel.max": err_max(("rayleigh", "barta")),
        "verify.picone_check.calls": calls("verify.picone_check"),
        "verify.picone_check.s": total("verify.picone_check"),
        "verify.barta_sandwich.calls": calls("verify.barta_sandwich"),
        "verify.barta_sandwich.s": total("verify.barta_sandwich"),
        "verify.self_s": layer_self["verify"],
        "bench.self_s": layer_self["bench"],
        "trace.untraced_s": untraced_s,
        "trace.noise_s": max(untraced) - min(untraced),
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.accounted_s": accounted_s,
        "trace.unaccounted_s": abs(accounted_s - untraced_s),
    }
    for m in LEVELS:
        out["rayleigh.level.%d.iters" % m] = level_iters[m]
        out["rayleigh.level.%d.s" % m] = level_s[m]
    units = dict(PER_LAYER)
    return {name: {"value": out[name], "unit": units[name]} for name, _ in PER_LAYER}
