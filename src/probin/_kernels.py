"""Inner loop of the shooting integrator, in Riccati form.

The eigenfunction ranges over e^(+-|alpha|^(1/(p-1))), but log phi grows
only linearly and the slope state stays bounded, so nothing is rescaled
and nothing overflows on a path the step size can resolve.

One RK4 body, _rk4_core, uses only len, indexing, scalar arithmetic,
math functions and loops, so it runs unchanged on numpy arrays and on
Python lists.  With numba installed, rk4_path is the core compiled for
numpy arrays.  Without it, rk4_path runs the core on Python floats and
lists: numpy scalars would take every operation through numpy's scalar
machinery, several times slower.  The IEEE operations are the same
either way, so the results agree bit for bit.
"""

import math

try:
    from numba import njit
except ImportError:  # pragma: no cover
    njit = None


def _form(rho_form, lam, pm1, qm1):
    """Coefficients (e, c0, g, c2, k, d1) of the field of either form: with
    s = sgn(y)|y|^e and the drift weight'/weight,
    y' = c0 + (g*drift + c2*s)*y and z' = k*drift + d1*s.

    w-form: y = w = psi/phi^(p-1), z = log phi, s = phi'/phi;
    w' = -lam - drift*w - (p-1)*w*s and (log phi)' = s.
    rho-form: y = rho = phi/phi', z = log|phi'|, s = |rho|^(p-2)rho;
    rho' = 1 + (drift + lam*s)*rho/(p-1), (log|phi'|)' = -(drift + lam*s)/(p-1).
    """
    if rho_form:
        return pm1, 1.0, 1.0 / pm1, lam / pm1, -1.0 / pm1, -lam / pm1
    return qm1, -lam, -1.0, -pm1, 0.0, 1.0


def _rk4_core(w0, logphi0, lam, pm1, qm1, hs, ld, out_logphi, out_slope):
    """Integrate from (w, log phi) = (w0, logphi0) over the steps hs
    (signed).  ld holds the drift at every step endpoint and midpoint:
    ld[2i], ld[2i+1], ld[2i+2] frame step i.

    Each form is stiff where the other is not: the stiffnesses p|v| of w
    and p|lam||rho|^(p-1)/(p-1) of rho balance at |v| = |phi'/phi| = big
    = max(1, (|lam|/(p-1))^(1/p)).  The path launches in the rho-form if
    |v| > big, switches to it above 2*big and back below big/2.  Each RK4
    stage takes one power.

    Writes log|phi| and phi'/phi after step i into out_logphi[i] and
    out_slope[i], and leaves the later entries alone when it returns
    early.  Returns True at the first step across which rho changes sign
    (phi crosses zero; phi < 0 after it); returns False after the last
    step, or at once at a step whose state is not finite.
    """
    big = max(1.0, (abs(lam) / pm1) ** (1.0 / (pm1 + 1.0)))
    rho_form = False
    e, c0, g, c2, k, d1 = _form(False, lam, pm1, qm1)
    y = w0
    logphi = z = logphi0
    slope = s = y ** e if y >= 0.0 else -((-y) ** e)
    switch = abs(s) > big
    crossed = False
    for i in range(len(hs)):
        if switch:
            rho_form = not rho_form
            e, c0, g, c2, k, d1 = _form(rho_form, lam, pm1, qm1)
            y = 1.0 / slope if rho_form else math.copysign(abs(slope) ** pm1, slope)
            z = logphi + math.log(abs(slope)) if rho_form else logphi
            s = y ** e if y >= 0.0 else -((-y) ** e)
        h = hs[i]
        l0, lm, l1 = ld[2 * i], ld[2 * i + 1], ld[2 * i + 2]
        k1y, k1z = c0 + (g * l0 + c2 * s) * y, k * l0 + d1 * s
        t = y + 0.5 * h * k1y
        s = t ** e if t >= 0.0 else -((-t) ** e)
        k2y, k2z = c0 + (g * lm + c2 * s) * t, k * lm + d1 * s
        t = y + 0.5 * h * k2y
        s = t ** e if t >= 0.0 else -((-t) ** e)
        k3y, k3z = c0 + (g * lm + c2 * s) * t, k * lm + d1 * s
        t = y + h * k3y
        s = t ** e if t >= 0.0 else -((-t) ** e)
        k4y, k4z = c0 + (g * l1 + c2 * s) * t, k * l1 + d1 * s
        yn = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        if rho_form:
            if yn == 0.0:
                return True
            crossed = (yn > 0.0) != (y > 0.0)
        y = yn
        s = y ** e if y >= 0.0 else -((-y) ** e)
        if rho_form:
            slope = 1.0 / y
            logphi = z + math.log(abs(y))
            switch = abs(slope) < 0.5 * big
        else:
            slope = s
            logphi = z
            switch = abs(s) > 2.0 * big
        if not (abs(slope) < math.inf and abs(logphi) < math.inf):
            return False
        out_logphi[i] = logphi
        out_slope[i] = slope
        if crossed:
            return True
    return False


if njit is not None:
    _form = njit(cache=True, nogil=True)(_form)
    rk4_path = njit(cache=True, nogil=True)(_rk4_core)
else:
    def rk4_path(w0, logphi0, lam, pm1, qm1, hs, ld, out_logphi, out_slope):
        """_rk4_core on Python floats; same arguments, outputs and return.

        A float power that overflows raises OverflowError where numba
        gives inf; either way the path stops at that step, non-finite."""
        logphis = [math.nan] * len(hs)
        slopes = [math.nan] * len(hs)
        try:
            crossed = _rk4_core(
                float(w0), float(logphi0), float(lam), float(pm1), float(qm1),
                hs.tolist(), ld.tolist(), logphis, slopes,
            )
        except OverflowError:
            crossed = False
        out_logphi[:] = logphis
        out_slope[:] = slopes
        return crossed
