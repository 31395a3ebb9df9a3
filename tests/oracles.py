"""Independent reference values for the eigenvalue solvers.

Everything here is computed straight from transcendental equations,
special functions or quadrature, without touching the solver code paths,
so the test suite can compare two genuinely independent routes.
"""

import math

from scipy.integrate import quad
from scipy.special import betainc, i0, i1, j0, j1

# First positive zero of J0, brackets the disk root search.
_J0_FIRST_ZERO = 2.404825557695773


def bisect(f, lo, hi, iters=200):
    """Plain bisection; assumes f(lo) and f(hi) have opposite signs."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisect: no sign change on [%g, %g]" % (lo, hi))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def flat_robin_lambda(r_len, alpha):
    """First Robin eigenvalue of -u'' on [0, r_len], Robin(alpha) at one end,
    Neumann at the other (p = 2 only).

    alpha > 0: root of sqrt(l) * tan(sqrt(l) * R) = alpha.
    alpha < 0: l = -mu**2 with mu * tanh(mu * R) = -alpha.
    """
    if alpha == 0:
        return 0.0
    if alpha > 0:
        def g(lam):
            x = math.sqrt(lam)
            return x * math.sin(x * r_len) - alpha * math.cos(x * r_len)

        hi = (math.pi / (2.0 * r_len)) ** 2
        return bisect(g, 1e-300, hi * (1.0 - 1e-14))

    def g(mu):
        return mu * math.tanh(mu * r_len) + alpha

    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    mu = bisect(g, 1e-300, hi)
    return -mu * mu


def disk_robin_lambda(alpha):
    """First Robin eigenvalue of the Laplacian on the unit disk (p = 2).

    alpha > 0: root of x * J1(x) = alpha * J0(x), lambda = x**2.
    alpha < 0: root of x * I1(x) = -alpha * I0(x), lambda = -x**2.
    """
    if alpha == 0:
        return 0.0
    if alpha > 0:
        def g(x):
            return x * j1(x) - alpha * j0(x)

        x = bisect(g, 1e-12, _J0_FIRST_ZERO)
        return x * x

    def g(x):
        return x * i1(x) + alpha * i0(x)

    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    x = bisect(g, 1e-12, hi)
    return -x * x


def _log_slope(s, r):
    """v'(r)/v(r) for the solution of v'' + s*v = 0 with v(0) = 0,
    v'(0) = 1 (sin, t or sinh); decreasing in s below (pi/r)**2."""
    if s > 0:
        mu = math.sqrt(s)
        return mu / math.tan(mu * r)
    if s < 0:
        nu = math.sqrt(-s)
        return nu / math.tanh(nu * r)
    return 1.0 / r


def space_form_n3_lambda(kappa, r_len, alpha):
    """First Robin eigenvalue of the Laplacian (p = 2) on the geodesic
    ball of radius r_len in the 3-dimensional space form of curvature
    kappa, and of its matched inradius model.

    With the weight sn_kappa**2, u = v / sn_kappa turns the radial
    equation into v'' + (lambda + kappa) v = 0 with v(0) = 0, and the
    Robin end into v'/v = sn_kappa'/sn_kappa - alpha there; sn_kappa is
    itself such a v, at lambda = 0.  So lambda = mu**2 - kappa
    with mu * cot(mu R) = sn_kappa'(R)/sn_kappa(R) - alpha, or the coth
    form where lambda + kappa < 0.
    """
    target = _log_slope(kappa, r_len) - alpha
    lo = -1.0
    while _log_slope(lo, r_len) < target:
        lo *= 2.0
    hi = (math.pi / r_len) ** 2 * (1.0 - 1e-14)
    return bisect(lambda s: _log_slope(s, r_len) - target, lo, hi) - kappa


def half_line_robin_lambda(p, alpha):
    """First Robin eigenvalue of the constant-coefficient p-Laplacian on
    the half-line for alpha < 0: phi = exp(-|alpha|^(1/(p-1)) x) gives
    -(p-1) * |alpha|^(p/(p-1)).  On [0, R] with Neumann at R it is off
    by a relative e^(-2R|alpha|^(1/(p-1))), below rounding once that is
    below 1e-17.
    """
    return -(p - 1.0) * abs(alpha) ** (p / (p - 1.0))


def pi_p(p):
    """Half-period constant of the p-sine: 2*pi / (p * sin(pi/p))."""
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


def mixed_dn_lambda(p, r_len):
    """First eigenvalue of the constant-coefficient p-Laplacian on [0, R]
    with Dirichlet at one end and Neumann at the other:
    (p - 1) * (pi_p / (2R))**p.  This is the alpha -> +inf limit of the
    single-Robin problem.
    """
    return (p - 1.0) * (pi_p(p) / (2.0 * r_len)) ** p


def flat_robin_lambda_p(r_len, alpha, p):
    """First Robin eigenvalue of the constant-coefficient p-Laplacian on
    [0, r_len], Robin(alpha) at one end and Neumann at the other, for
    alpha != 0 and every p > 1 (the p-sine construction: Lindqvist,
    Ricerche Mat. 44, 1995).  What follows is alpha > 0; alpha < 0 is
    _flat_robin_lambda_p_negative.

    With phi = 1 at the Neumann end, the first integral
    (p - 1)|phi'|^p + lambda phi^p = lambda and the Robin end's
    |phi'| = alpha^(1/(p-1)) phi give phi(R)^p = lambda/(lambda + c), with
    c = (p - 1) alpha^(p/(p-1)), and
    R (lambda/(p - 1))^(1/p) = int_phi(R)^1 (1 - s^p)^(-1/p) ds
                              = (pi_p/2) I_y(1 - 1/p, 1/p),
    with y = 1 - phi(R)^p = c/(lambda + c) and I the regularized
    incomplete beta function.  Neither y nor 1 - y is formed by a
    difference: 1 - lambda/(lambda + c) rounds to 0 once c << lambda (p
    near 1, small alpha), and near y = 1 (large alpha) I_y is read as
    1 - I_(1-y)(1/p, 1 - 1/p).  The left side rises and the right side
    falls in lambda, and the root lies in (0, mixed_dn_lambda(p, R)).
    """
    if alpha < 0:
        return _flat_robin_lambda_p_negative(r_len, alpha, p)
    if not alpha > 0:
        raise ValueError("flat_robin_lambda_p takes alpha != 0")
    c = (p - 1.0) * alpha ** (p / (p - 1.0))
    half = 0.5 * pi_p(p)

    def g(lam):
        left = r_len * (lam / (p - 1.0)) ** (1.0 / p)
        if lam >= c:  # y <= 1/2
            return left - half * betainc(1.0 - 1.0 / p, 1.0 / p, c / (lam + c))
        # y > 1/2: I_y(a, b) = 1 - I_(1-y)(b, a), with 1 - y = lambda/(lambda + c)
        return left - half + half * betainc(1.0 / p, 1.0 - 1.0 / p, lam / (lam + c))

    return bisect(g, 0.0, mixed_dn_lambda(p, r_len))


def _flat_robin_lambda_p_negative(r_len, alpha, p):
    """flat_robin_lambda_p for alpha < 0.

    With phi = 1 at the Neumann end the first integral reads
    (p - 1)|phi'|^p = -lambda (phi^p - 1), so phi grows toward the Robin
    end, where |phi'| = k phi with k = |alpha|^(1/(p-1)).  With
    c = (p - 1) k^p, the half-line value's magnitude, lambda = -c/U for
    U = 1 - phi(0)^(-p) in (0, 1), and u = 1 - phi^(-p) turns
    r_len = int_1^phi(0) dphi/|phi'| into
    k r_len = U^(1/p) (1/p) int_0^U u^(-1/p) (1 - u)^(-1) du.
    In t = -log(1 - u), and for s = -log(1 - U), that is
    k r_len = (1 - e^(-s))^(1/p) (1/p) int_0^s (1 - e^(-t))^(-1/p) dt,
    which rises in s, and a deep layer (large k r_len, U near 1) keeps
    its digits in s.  The integrand is t^(-1/p) times the smooth
    ((1 - e^(-t))/t)^(-1/p), integrated with quad's algebraic weight.
    At p = 2 this is mu tanh(mu r_len) = -alpha with lambda = -mu^2.
    """
    k = abs(alpha) ** (1.0 / (p - 1.0))
    c = (p - 1.0) * k ** p

    def g(s):
        smooth = quad(lambda t: (-math.expm1(-t) / t) ** (-1.0 / p) if t > 0.0 else 1.0,
                      0.0, s, weight="alg", wvar=(-1.0 / p, 0.0), epsabs=0.0, epsrel=1e-13)[0]
        return (-math.expm1(-s)) ** (1.0 / p) * smooth / p - k * r_len

    hi = 1.0
    while g(hi) < 0:
        hi *= 2.0
    return c / math.expm1(-bisect(g, 0.0, hi))  # expm1(-s) = -U


def cheeger_ratio(w, robin, far):
    """w(robin) / |int w| over the interval from the Robin end to the far
    one (a Neumann end or a pole): for a ball about a pole, |dB_R|/|B_R|.

    Where w(t) / |int_t^far w| is least at t = robin (it is for the
    weights sn_kappa^2 and (r + 0.1 r^3)^2 of the balls of radius 1 about
    a pole, and for (cos t - sin t / 2)^2 on [0, 1]), this is the Cheeger
    constant h of the sets between t and the far end: the superlevel sets
    of a u that grows from the Robin end toward the far one.  So the
    coarea argument (Kawohl & Fridman 2003) bounds the eigenvalue of such
    a u with Dirichlet data at the Robin end below by (h/p)**p.
    """
    volume = quad(w, min(robin, far), max(robin, far), epsabs=0.0, epsrel=1e-13)[0]
    return w(robin) / volume
