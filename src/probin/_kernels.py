"""Inner loop of the shooting integrator, in Riccati form.

The eigenfunction ranges over e^(+-|alpha|^(1/(p-1))), but log phi grows
only linearly and the slope state stays bounded, so nothing is rescaled
and nothing overflows on a path the step size can resolve.

Both Riccati forms are one field; _rk4_core has one RK4 step body per
form with the field's constants folded in, and rounds exactly as the
generic field would.

_rk4_core uses only len, indexing, scalar arithmetic, math functions and
loops, so it runs unchanged on numpy arrays and on Python lists.  With
numba installed, rk4_path is the core compiled for numpy arrays.
Without it, rk4_path runs the core on Python floats and lists: numpy
scalars would take every operation through numpy's scalar machinery,
several times slower.  The IEEE operations are the same either way, so
the results agree bit for bit.  kernel_array prepares an array that
every integration of a solve reads (the step sizes, the drift): without
numba it carries its list of floats, converted once.
"""

import math

import numpy as np

try:
    from numba import njit
except ImportError:  # pragma: no cover
    njit = None


def _rk4_core(w0, logphi0, lam, pm1, qm1, hs, ld, out_logphi, out_slope):
    """Integrate from (w, log phi) = (w0, logphi0) over the steps hs
    (signed).  ld holds the drift at every step endpoint and midpoint:
    ld[2i], ld[2i+1], ld[2i+2] frame step i.

    Each form is stiff where the other is not: the stiffnesses p|v| of w
    and p|lam||rho|^(p-1)/(p-1) of rho balance at |v| = |phi'/phi| = big
    = max(1, (|lam|/(p-1))^(1/p)).  The path launches in the rho-form if
    |v| > big, switches to it above 2*big and back below big/2.

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
    The folds only drop factors of 1 and 0 and move negations, which
    IEEE arithmetic does exactly, so every step rounds as it would in the
    generic field.

    Writes log|phi| and phi'/phi after step i into out_logphi[i] and
    out_slope[i], and leaves the later entries alone when it returns
    early.  Returns True at the first step across which rho changes sign
    (phi crosses zero; phi < 0 after it); returns False after the last
    step, or at once at a step whose state is not finite.
    """
    n = len(hs)
    big = max(1.0, (abs(lam) / pm1) ** (1.0 / (pm1 + 1.0)))
    half_big = 0.5 * big
    two_big = 2.0 * big
    inf = math.inf
    log = math.log
    nlam = -lam
    g = 1.0 / pm1
    c2 = lam / pm1
    y = w0
    logphi = z = logphi0
    slope = s = y ** qm1 if y >= 0.0 else -((-y) ** qm1)
    rho_form = abs(s) > big
    if rho_form:  # launch in the rho-form
        y = 1.0 / s
        z = z + log(abs(s))
        s = y ** pm1 if y >= 0.0 else -((-y) ** pm1)
    # one pass per run of steps in one form; a switch ends the run
    start = 0
    while True:
        stop = n
        if rho_form:
            for i in range(start, n):
                h = hs[i]
                hh = 0.5 * h
                h6 = h / 6.0
                j = 2 * i
                lm = ld[j + 1]
                a1 = g * ld[j] + c2 * s
                k1 = 1.0 + a1 * y
                t = y + hh * k1
                s = t ** pm1 if t >= 0.0 else -((-t) ** pm1)
                a2 = g * lm + c2 * s
                k2 = 1.0 + a2 * t
                t = y + hh * k2
                s = t ** pm1 if t >= 0.0 else -((-t) ** pm1)
                a3 = g * lm + c2 * s
                k3 = 1.0 + a3 * t
                t = y + h * k3
                s = t ** pm1 if t >= 0.0 else -((-t) ** pm1)
                a4 = g * ld[j + 2] + c2 * s
                k4 = 1.0 + a4 * t
                yn = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                z = z - h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                if yn == 0.0:
                    return True
                crossed = (yn > 0.0) != (y > 0.0)
                y = yn
                s = y ** pm1 if y >= 0.0 else -((-y) ** pm1)
                slope = 1.0 / y
                logphi = z + log(abs(y))
                if not (-inf < slope < inf and -inf < logphi < inf):
                    return False
                out_logphi[i] = logphi
                out_slope[i] = slope
                if crossed:
                    return True
                if -half_big < slope < half_big:
                    stop = i + 1
                    break
            if stop == n:
                return False
            # to the w-form
            y = math.copysign(abs(slope) ** pm1, slope)
            z = logphi
            s = y ** qm1 if y >= 0.0 else -((-y) ** qm1)
        else:
            for i in range(start, n):
                h = hs[i]
                hh = 0.5 * h
                h6 = h / 6.0
                j = 2 * i
                lm = ld[j + 1]
                k1 = nlam - (ld[j] + pm1 * s) * y
                t = y + hh * k1
                s2 = t ** qm1 if t >= 0.0 else -((-t) ** qm1)
                k2 = nlam - (lm + pm1 * s2) * t
                t = y + hh * k2
                s3 = t ** qm1 if t >= 0.0 else -((-t) ** qm1)
                k3 = nlam - (lm + pm1 * s3) * t
                t = y + h * k3
                s4 = t ** qm1 if t >= 0.0 else -((-t) ** qm1)
                k4 = nlam - (ld[j + 2] + pm1 * s4) * t
                y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                z = z + h6 * (s + 2.0 * s2 + 2.0 * s3 + s4)
                s = y ** qm1 if y >= 0.0 else -((-y) ** qm1)
                if not (-inf < s < inf and -inf < z < inf):
                    return False
                out_logphi[i] = z
                out_slope[i] = s
                if s > two_big or s < -two_big:
                    stop = i + 1
                    break
            if stop == n:
                return False
            # to the rho-form
            y = 1.0 / s
            z = z + log(abs(s))
            s = y ** pm1 if y >= 0.0 else -((-y) ** pm1)
        start = stop
        rho_form = not rho_form


if njit is not None:
    rk4_path = njit(cache=True, nogil=True)(_rk4_core)

    def kernel_array(a):
        """a as a float array; the compiled core reads arrays."""
        return np.asarray(a, dtype=float)
else:
    class _FloatArray(np.ndarray):
        """A read-only float array whose attribute floats holds its
        entries as a list of Python floats; a view of it has none."""

    def kernel_array(a):
        """a as a read-only float array that carries a.tolist(), so that
        rk4_path does not convert it again on every integration."""
        out = np.array(a, dtype=float).view(_FloatArray)
        out.floats = out.tolist()
        out.flags.writeable = False
        return out

    def _floats(a):
        floats = getattr(a, "floats", None)
        return a.tolist() if floats is None else floats

    def rk4_path(w0, logphi0, lam, pm1, qm1, hs, ld, out_logphi, out_slope):
        """_rk4_core on Python floats; same arguments, outputs and return.
        hs and ld are numpy arrays, converted to lists here unless
        kernel_array already did.  Entries after an early stop are
        unspecified: the compiled core leaves whatever the caller put
        there, this adapter writes NaN.  A caller that reads them fills
        them first (_shoot fills NaN), and then both builds agree.

        A float power that overflows raises OverflowError where numba
        gives inf; either way the path stops at that step, non-finite."""
        logphis = [math.nan] * len(hs)
        slopes = [math.nan] * len(hs)
        try:
            crossed = _rk4_core(
                float(w0), float(logphi0), float(lam), float(pm1), float(qm1),
                _floats(hs), _floats(ld), logphis, slopes,
            )
        except OverflowError:
            crossed = False
        out_logphi[:] = logphis
        out_slope[:] = slopes
        return crossed
