"""Host-speed calibration for the end-to-end timings.

The machine this benchmark was defined on shares its cores with other
tenants.  The same work ran at up to 1.8x different speeds from one minute
to the next, pure Python and numpy alike, and CPU time drifted with wall
time (it is not steal time).  That drift swamps a 10 % change in probin.

So a run also times, before each op, a fixed kernel of the same work as
that op's hot path.  The kernels live here and never call probin, so no
change to the program moves them.  An op's time is reported scaled
by REFERENCE_S / median(time of its kernel around the op): seconds on a
host that runs the kernel in REFERENCE_S.  The raw timings and the factors
are printed on the summary line.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import numpy as np

# Kernel times on the defining machine in a quiet minute (2 vCPUs, Python
# 3.11.7, numpy 2.4.6).  Changing them rescales every calibrated timing.
REFERENCE_S = {"python": 0.020, "numpy_small": 0.020, "numpy_large": 0.012, "spawn": 0.170}

# Set-up is process start-up: loader, file-system and import work, which
# the in-process kernels do not track (scaling set-up by the RK4 kernel
# widened its spread).  Its kernel is a fresh interpreter that imports
# numpy, and nothing of probin, and then reports ready.
SPAWN_KERNEL = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]

# An op is scaled by the median of the NEAREST kernel samples around it.
# The host changes speed within a second: on the defining machine, ten
# 30 s runs of rayleigh_cascade replayed with a sample before every op gave
# the median op time a spread of 5 %; with one sample a second, 8-9 %.
NEAREST = 5


# The kernels are frozen copies of probin's hot loops as of the commit that
# defined this benchmark (_kernels.rk4_path in its pure-Python form, the
# Rayleigh quotient and gradient steps of rayleigh.minimize, the array work
# of verify.picone_check), run on fixed inputs.  Identical code reacts to
# the host's state the way the program does; a look-alike loop drifted by
# 6-9 % against it when the host changed speed.


def _mom(x, expo):
    if x > 0.0:
        return x ** expo
    if x < 0.0:
        return -((-x) ** expo)
    return 0.0


def _rk4_path(phi0, psi0, lam, pm1, qm1, hs, ld, out_phi, out_psi):
    phi = phi0
    psi = psi0
    cross = -1
    stop = -1
    for i in range(hs.shape[0]):
        h = hs[i]
        l0 = ld[2 * i]
        lm = ld[2 * i + 1]
        l1 = ld[2 * i + 2]
        k1p = _mom(psi, qm1)
        k1q = -lam * _mom(phi, pm1) - l0 * psi
        ph = phi + 0.5 * h * k1p
        ps = psi + 0.5 * h * k1q
        k2p = _mom(ps, qm1)
        k2q = -lam * _mom(ph, pm1) - lm * ps
        ph = phi + 0.5 * h * k2p
        ps = psi + 0.5 * h * k2q
        k3p = _mom(ps, qm1)
        k3q = -lam * _mom(ph, pm1) - lm * ps
        ph = phi + h * k3p
        ps = psi + h * k3q
        k4p = _mom(ps, qm1)
        k4q = -lam * _mom(ph, pm1) - l1 * ps
        phi = phi + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        psi = psi + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        out_phi[i] = phi
        out_psi[i] = psi
        if cross < 0 and phi <= 0.0:
            cross = i
        if (not math.isfinite(phi)) or (not math.isfinite(psi)) or \
                abs(phi) > 1e12 or abs(psi) > 1e12:
            stop = i
            break
    return stop, cross


_STEPS = 3000
_HS = np.full(_STEPS, 1.0 / _STEPS)
_LD = 2.0 / np.linspace(0.05, 1.0, 2 * _STEPS + 1)


def python_kernel():
    """A shooting integration: 3000 RK4 steps at p = 2.5."""
    out_phi = np.empty(_STEPS)
    out_psi = np.empty(_STEPS)
    return _rk4_path(1.0, 0.0, 3.0, 1.5, 1.0 / 1.5, _HS, _LD, out_phi, out_psi)


def _pow_signed(x, expo):
    return np.sign(x) * np.abs(x) ** expo


class _Functional:
    """Discrete Rayleigh functional of a flat problem, Robin at t = 0."""

    def __init__(self, m=125, p=1.75, alpha=-0.5):
        self.h = 1.0 / m
        self.p = p
        self.mid_weights = np.ones(m)
        self.node_weights = np.full(m + 1, self.h)
        self.node_weights[[0, -1]] *= 0.5
        self.robin = alpha


def _quotient(f, u):
    d = np.diff(u) / f.h
    e = f.h * float(np.sum(f.mid_weights * np.abs(d) ** f.p)) + f.robin * abs(u[0]) ** f.p
    return e / float(np.sum(f.node_weights * np.abs(u) ** f.p))


def _gradient(f, u, q):
    d = np.diff(u) / f.h
    flux = f.mid_weights * _pow_signed(d, f.p - 1.0)
    g = np.zeros_like(u)
    g[:-1] -= flux
    g[1:] += flux
    g *= f.p
    g[0] += f.p * f.robin * _pow_signed(u[0], f.p - 1.0)
    return g - q * f.p * f.node_weights * _pow_signed(u, f.p - 1.0)


def _normalize(f, u):
    return u / float(np.sum(f.node_weights * np.abs(u) ** f.p)) ** (1.0 / f.p)


_FUNC = _Functional()


def numpy_small_kernel(iters=250):
    """Barzilai-Borwein steps with Armijo backtracking, as rayleigh.minimize."""
    f = _FUNC
    u = _normalize(f, 1.0 + 1e-3 * np.linspace(0.0, 1.0, f.node_weights.size))
    q = _quotient(f, u)
    g = _gradient(f, u, q)
    tau = 1.0 / max(1.0, float(np.max(np.abs(g))))
    u_prev = g_prev = None
    for _ in range(iters):
        gg = float(np.dot(g, g))
        if u_prev is not None:
            s, y = u - u_prev, g - g_prev
            sy = float(np.dot(s, y))
            if sy > 0.0:
                bb1 = float(np.dot(s, s)) / sy
                bb2 = sy / float(np.dot(y, y))
                tau = bb2 if bb2 < 0.8 * bb1 else bb1
            tau = min(max(tau, 1e-12), 1e8)
        t = tau
        for _ in range(60):
            v = _normalize(f, u - t * g)
            qv = _quotient(f, v)
            if qv <= q - 1e-6 * t * gg:
                break
            t *= 0.5
        u_prev, g_prev = u, g
        u, q = v, qv
        g = _gradient(f, u, q)
    return q


_LARGE = np.linspace(0.0, 1.0, 50001)


def numpy_large_kernel():
    """The array work of one Picone check on 50 001 nodes."""
    return _picone(1.5)


def _picone(p):
    u = np.exp(0.4 * np.sin(2.0 * _LARGE + 1.0) + 0.1 * _LARGE)
    v = np.exp(0.5 * np.cos(1.7 * _LARGE + 2.0) - 0.1 * _LARGE * _LARGE)
    du = np.gradient(u, _LARGE, edge_order=2)
    dv = np.gradient(v, _LARGE, edge_order=2)
    dw = np.gradient(u ** p / v ** (p - 1.0), _LARGE, edge_order=2)
    ratio = u / v
    mv = np.sign(dv) * np.abs(dv) ** (p - 1.0)
    lhs = (np.abs(du) ** p + (p - 1.0) * ratio ** p * np.abs(dv) ** p
           - p * ratio ** (p - 1.0) * mv * du)
    return float(np.max(np.abs(lhs - (np.abs(du) ** p - mv * dw))))


KERNELS = {
    "python": python_kernel,
    "numpy_small": numpy_small_kernel,
    "numpy_large": numpy_large_kernel,
}

# The kernel matching each op's hot path: the RK4 loop for shooting, the
# small-array iterations of a Rayleigh solve (Barta checks are dominated by
# theirs), large-array work for Picone.
OP_KERNEL = {
    "shoot": "python",
    "rayleigh": "numpy_small",
    "barta": "numpy_small",
    "picone": "numpy_large",
}


class Calibrator:
    """Timings of a set of kernels over a run."""

    def __init__(self, kinds, clock=time.perf_counter):
        self.clock = clock
        self.samples = {kind: [] for kind in kinds}  # (mid time, duration)

    def sample(self, kinds=None):
        """Time the given kernels once each, by default all of them."""
        for kind in kinds or self.samples:
            t = self.clock()
            KERNELS[kind]()
            end = self.clock()
            self.samples[kind].append((0.5 * (t + end), end - t))

    def factor(self, kind, at=None) -> float:
        """REFERENCE_S over the median kernel time, > 1 on a fast host:
        over the whole run, or over the NEAREST samples to clock time `at`
        (the host can change speed within a run)."""
        samples = self.samples[kind]
        if at is not None:
            samples = sorted(samples, key=lambda s: abs(s[0] - at))[:NEAREST]
        return REFERENCE_S[kind] / statistics.median(d for _, d in samples)
