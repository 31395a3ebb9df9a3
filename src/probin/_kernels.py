"""Inner loop of the shooting integrator, in Riccati form.

The eigenfunction ranges over e^(+-|alpha|^(1/(p-1))), but log phi grows
only linearly and the slope state stays bounded, so nothing is rescaled
and nothing overflows on a path the step size can resolve.

Both Riccati forms are one field; _rk4_core has one RK4 step body per
form with the field's constants folded in, and rounds exactly as the
generic field would.

Every run of steps is integrated in the orientation that makes its
state non-negative: the core carries the state negated where phi'/phi
is negative, as it is on the whole path wherever the eigenfunction falls
along the integration.  A float power of a negative base takes the slow
branch -((-t) ** e), 43.5 against 29.3 ns (CPython 3.11).  Round-to-
nearest is symmetric under negation, so a negated run rounds every step
exactly as the run itself would.  The one asymmetry is an exact
cancellation x + (-x), which gives +0 in both orientations: only the
sign of a zero state could differ, and the bit-for-bit tests against
the generic field would see it.

rk4_path runs the core on Python floats and tuples: numpy scalars would
take every operation through numpy's scalar machinery, several times
slower.

A path gets log phi and phi'/phi after every step.  A root-find trial
gets the crossing flag and phi'/phi after the last step; its log phi is
NaN.  Log phi does not enter the Riccati state, so a trial integrates
the state alone: it skips the log phi increments of the w-form and the
log|rho| of every rho-step.  A path appends its outputs at every step;
a trial writes its one entry where its run ends, on the last step.

kernel_array lays out what every integration of a solve reads as one
row per step: h, h/2, h/6 and the drift at the step's start, midpoint
and end, so that a step reads its constants instead of computing them,
and the core walks one iterator over the rows.  The array carries its
rows as a tuple of tuples of Python floats, converted once: the rows
share one float object per distinct step size for h, h/2 and h/6, and
neighbouring rows share their common endpoint's drift float.  The
sharing saves memory on the one plan that shoot keeps (shoot._last_plan)
and costs some speed: on a 4 096-step hyperbolic-ball plan (kappa = -1,
n = 3, R = 1, p = 2; 4 134 steps) the array and its rows hold 796 KB
against 1 190 KB with rows of plain tolist() floats, while a trial
takes 2.04 against 1.96 ms and a path 2.84 against 2.79 ms (best of
21 x 10 interleaved calls, median of 3 runs, CPython 3.11, one 2-vCPU
Xeon core).  Most of that is the shared step floats: with fresh step
floats and shared drift floats a trial takes 2.01 ms.
"""

import math
from operator import length_hint

import numpy as np


def _rk4_core(w0, logphi0, lam, pm1, qm1, rows, out_logphi, out_slope):
    """Integrate from (w, log phi) = (w0, logphi0) over the steps of
    rows: one row (h, h/2, h/6, drift at the start, midpoint and end)
    per step, h the signed step.

    Each form is stiff where the other is not: the stiffnesses p|v| of w
    and p|lam||rho|^(p-1)/(p-1) of rho balance at |v| = |phi'/phi| = big
    = max(1, (|lam|/(p-1))^(1/p)).  The path launches in the rho-form if
    |v| > big, switches to it above 2*big and back below big/2.

    A w-step tests one range, 0 <= s <= 2*big, which implies that s is
    finite; the full finiteness test runs only where it fails.

    Both forms are the field y' = c0 + (g*drift + c2*s)*y,
    z' = k*drift + d1*s, with one power s = sgn(y)|y|^e per RK4 stage:
    w-form: y = w = psi/phi^(p-1), z = log phi, s = phi'/phi, e = 1/(p-1),
    (c0, g, c2, k, d1) = (-lam, -1, -(p-1), 0, 1);
    rho-form: y = rho = phi/phi', z = log|phi'|, s = |rho|^(p-2)rho,
    e = p-1, (c0, g, c2, k, d1) = (1, 1/(p-1), lam/(p-1), -g, -c2).
    Each form has its own step body with these constants folded in: a
    w-stage is k_y = -lam - (drift + (p-1)*s)*w with increment s of log
    phi, a rho-stage is a = g*drift + c2*s, k_y = 1 + a*rho, k_z = -a
    (negated once, on the RK4 sum of the a's).
    A run integrates sg*y, with sg = +-1 the sign of phi'/phi, which y
    and s share, so that its state and powers are non-negative.  Where
    sg = -1 the folded constants are negated with it: -lam and p-1 of
    the w-form, 1 and lam/(p-1) of the rho-form.  Only what leaves the
    run is negated back: the written phi'/phi and the w-form's log phi
    increment (the rho-form's a does not change sign).  A switch keeps
    sg, as phi'/phi does not change sign there.  A rho-run keeps rho > 0
    until it ends at a crossing; a w-run's state changes sign where
    phi' = 0 (the double-Robin midpoint), where the range test fails on
    s < 0 and the run turns its orientation.
    The folds and the orientation only drop factors of 1 and 0 and move
    negations, which IEEE arithmetic does exactly (up to the sign of an
    exact zero sum), so every step rounds as it would in the generic
    field.

    The outputs are lists the core appends to.  A path appends log|phi|
    and phi'/phi after every step it completes.  A trial passes None
    for out_logphi: z does not enter y, so a trial carries z as NaN and
    skips its increments and the log|rho| of every rho-step.  It appends
    one phi'/phi, where its run ends on the last step, and none where it
    stops earlier: the phi'/phi that the path writes for the last step,
    bit for bit, or nothing where the path writes none.
    Returns True at the first step across which rho changes sign (phi
    crosses zero; phi < 0 after it); returns False after the last step,
    or at once where the state is not finite: at launch, or after a
    step, where a path also stops at a non-finite log phi.  With a
    finite state, log phi turns non-finite only by overflowing on its
    own (a drift near the double range, or |log phi| near 1.8e308), so
    a trial stops where its path does.
    """
    big = max(1.0, (abs(lam) / pm1) ** (1.0 / (pm1 + 1.0)))
    half_big = 0.5 * big
    two_big = 2.0 * big
    inf = math.inf
    log = math.log
    nlam = -lam
    g = 1.0 / pm1
    c2 = lam / pm1
    path = out_logphi is not None
    y = w0
    logphi = z = logphi0 if path else math.nan
    s = y ** qm1 if y >= 0.0 else -((-y) ** qm1)
    if not -inf < s < inf:
        return False
    # the orientation: the run integrates sg*y, which is non-negative
    sg = 1.0
    if s < 0.0:
        sg, y, s = -1.0, -y, -s
    rho_form = s > big
    if rho_form:  # launch in the rho-form
        y = 1.0 / s
        z = z + log(s)
        s = y ** pm1
    # one pass per run of steps in one form; a switch ends the run, and
    # the next pass takes the steps up where it stopped
    steps = iter(rows)
    while True:
        if rho_form:
            # y > 0 at every step's start: a run ends where rho crosses 0
            sc2 = sg * c2
            for h, hh, h6, l0, lm, l1 in steps:
                a1 = g * l0 + sc2 * s
                k1 = sg + a1 * y
                t = y + hh * k1
                s = t ** pm1 if t >= 0.0 else -((-t) ** pm1)
                a2 = g * lm + sc2 * s
                k2 = sg + a2 * t
                t = y + hh * k2
                s = t ** pm1 if t >= 0.0 else -((-t) ** pm1)
                a3 = g * lm + sc2 * s
                k3 = sg + a3 * t
                t = y + h * k3
                s = t ** pm1 if t >= 0.0 else -((-t) ** pm1)
                a4 = g * l1 + sc2 * s
                k4 = sg + a4 * t
                y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if y == 0.0:
                    return True
                s = y ** pm1 if y >= 0.0 else -((-y) ** pm1)
                slope = 1.0 / y
                if not (-inf < slope < inf and -inf < y < inf):
                    return False
                if path:
                    z = z - h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                    logphi = z + log(abs(y))
                    if not -inf < logphi < inf:
                        return False
                    out_logphi.append(logphi)
                    out_slope.append(sg * slope)
                if slope < half_big:  # crossed (slope < 0), or to the w-form
                    break
        else:
            c0 = sg * nlam
            cp = sg * pm1
            for h, hh, h6, l0, lm, l1 in steps:
                k1 = c0 - (l0 + cp * s) * y
                t = y + hh * k1
                s2 = t ** qm1 if t >= 0.0 else -((-t) ** qm1)
                k2 = c0 - (lm + cp * s2) * t
                t = y + hh * k2
                s3 = t ** qm1 if t >= 0.0 else -((-t) ** qm1)
                k3 = c0 - (lm + cp * s3) * t
                t = y + h * k3
                s4 = t ** qm1 if t >= 0.0 else -((-t) ** qm1)
                k4 = c0 - (l1 + cp * s4) * t
                y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if path:
                    z = z + sg * (h6 * (s + 2.0 * s2 + 2.0 * s3 + s4))
                    if not -inf < z < inf:
                        return False
                s = y ** qm1 if y >= 0.0 else -((-y) ** qm1)
                if 0.0 <= s <= two_big:  # s is finite
                    if path:
                        out_logphi.append(z)
                        out_slope.append(sg * s)
                    continue
                # s < 0, s > 2*big or NaN: stop if not finite
                if not -inf < s < inf:
                    return False
                if s < 0.0:  # phi' crossed 0: turn the orientation
                    sg, c0, cp, y, s = -sg, -c0, -cp, -y, -s
                if path:
                    out_logphi.append(z)
                    out_slope.append(sg * s)
                if s > two_big:  # to the rho-form
                    break
        # the run ended on a step it wrote: at a crossing, a switch or
        # the last step.  A tuple iterator counts the steps it has left
        if not length_hint(steps):
            if not path:  # the last step's phi'/phi, as the path writes it
                out_slope.append(sg * (slope if rho_form else s))
            return rho_form and y < 0.0
        if rho_form:
            if y < 0.0:  # crossed
                return True
            # to the w-form, in the same orientation
            y = slope ** pm1
            z = logphi
            s = y ** qm1
        else:
            # to the rho-form, in the same orientation
            y = 1.0 / s
            z = z + log(s)
            s = y ** pm1
        rho_form = not rho_form


class _FloatArray(np.ndarray):
    """A read-only (n, 6) float array whose attribute rows holds its n
    rows as tuples of Python floats; a view of it has none."""


def _step_columns(cols):
    """The step columns h, h/2, h/6 as lists of Python floats with one
    float object per distinct step size in each: the entries of a column
    at equal steps are equal, bit for bit, as the steps are never 0.0."""
    _, first, inverse = np.unique(cols[0], return_index=True, return_inverse=True)
    return [np.array(c[first].tolist(), dtype=object)[inverse].tolist() for c in cols[:3]]


def kernel_array(hs, ld):
    """The read-only (n, 6) array of the core's rows, one per step, for
    the signed steps hs and the drift ld at every step endpoint and
    midpoint (ld[2i], ld[2i+1], ld[2i+2] frame step i).  It carries them
    as a tuple of row tuples of Python floats, so that rk4_path does not
    convert them again on every integration; the rows share their float
    objects, which holds them in 598 KB, the array's 198 KB aside, on a
    4 134-step plan (see the module docstring)."""
    hs = np.asarray(hs, dtype=float)
    ld = np.asarray(ld, dtype=float)
    cols = np.stack([hs, 0.5 * hs, hs / 6.0, ld[0:-1:2], ld[1::2], ld[2::2]])
    drift = ld.tolist()
    out = cols.T.view(_FloatArray)
    out.rows = tuple(zip(*_step_columns(cols), drift[0:-1:2], drift[1::2], drift[2::2]))
    out.flags.writeable = False
    return out


def rk4_path(w0, logphi0, lam, pm1, qm1, kernel, out_logphi, out_slope):
    """_rk4_core on Python floats, over the rows of kernel, a
    kernel_array.  The outputs are n entries long for a path, which
    gets log phi and phi'/phi after every step, or 1 for a trial, which
    gets the last phi'/phi and a NaN log phi.  Every entry is written:
    those the run does not reach are NaN.

    A float power that overflows raises OverflowError; the path stops at
    that step, non-finite."""
    rows = kernel.rows
    logphis = [] if len(out_slope) == len(rows) else None
    slopes = []
    try:
        crossed = _rk4_core(
            float(w0), float(logphi0), float(lam), float(pm1), float(qm1),
            rows, logphis, slopes,
        )
    except OverflowError:
        crossed = False
    out_logphi[:] = math.nan
    out_slope[:] = math.nan
    out_slope[:len(slopes)] = slopes
    if logphis:
        out_logphi[:len(logphis)] = logphis
    return crossed
