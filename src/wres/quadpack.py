"""Adaptive Gauss-Kronrod quadrature: QUADPACK's QAGS and QAGI in Python.

A line-by-line transcription of the double-precision routines dqagse,
dqagie, dqk21, dqk15i, dqpsrt and dqelg of R. Piessens, E. de
Doncker-Kapenga, C. W. Ueberhuber and D. K. Kahaner, *QUADPACK* (Springer,
1983).  Every floating-point operation keeps the published order and the
integrand is asked for the published points in the published order, so
value and error estimate equal, bit for bit, those of the compiled QUADPACK
behind ``scipy.integrate.quad``.  Where Python would raise on a division by
zero or an overflowing power, the IEEE value is used, as compiled code gets.

``quad`` integrates a real integrand over a finite [a, b] (dqagse) and
calls it one scalar point at a time.  ``quad_complex`` integrates over the
whole line (dqagie): it takes a complex- or real-valued integrand and calls
it once per panel of the 15-point rule, with the tuple of that panel's 30
points, so that an integrand can compute a whole panel at once.  dqagie
runs once per part over panels the two runs share, and bit identity holds
per part: each equals ``scipy.integrate.quad`` of that part.  A half-line
integral runs as the whole-line integral of an even integrand g: dqk15i's
sums g(x) + g(-x) = 2 g(x) are at the half-line rule's points.  The two
integrators share only the driver ``_qags``, the error estimate
``_rule_error`` and the Kronrod constants.

The module also holds the 64- and 128-point Gauss-Legendre rules that the
``rw`` report's node-doubling check uses.

Arrays keep QUADPACK's 1-based indexing (slot 0 unused) so that the index
arithmetic of dqpsrt and dqelg reads as published.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

EPMACH = 2.0 ** -52
UFLOW = sys.float_info.min
OFLOW = sys.float_info.max

# dqk21: xgk are the 21 Kronrod abscissae on [0, 1) (xgk[1], xgk[3], ... are
# the 10-point Gauss abscissae), wgk their weights, wg the Gauss weights.
_XGK21 = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK21 = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG10 = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# dqk15i: the 15-point Kronrod rule; wg has zeros at the Kronrod-only nodes.
_XGK15 = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK15 = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG7 = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)

# dqk21's two node loops: the Gauss nodes first, then the Kronrod-only ones
_GAUSS21 = tuple((2 * j + 1, _XGK21[2 * j + 1], _WGK21[2 * j + 1], _WG10[j]) for j in range(5))
_KRONROD21 = tuple((2 * j, _XGK21[2 * j], _WGK21[2 * j]) for j in range(5))
# dqk15i's (wgk, wg) for each abscissa pair
_WEIGHTS15 = tuple(zip(_WGK15[:7], _WG7[:7]))

# Gauss-Legendre rules of 64 and 128 points for warped.gauss_legendre_check:
# the nodes in (0, 1), largest first, with their weights, as the shortest reprs
# of numpy.polynomial.legendre.leggauss(n).  leggauss symmetrises both rules
# exactly, so the nodes in (-1, 0) are the negated ones with the same weights.
_GAUSS_LEGENDRE = {64: (
    (0.9993050417357722, 0.00178328072169414),
    (0.9963401167719552, 0.004147033260564499),
    (0.9910133714767443, 0.006504457968978502),
    (0.983336253884626, 0.008846759826363397),
    (0.973326827789911, 0.011168139460131028),
    (0.9610087996520538, 0.01346304789671786),
    (0.9464113748584028, 0.01572603047602503),
    (0.9295691721319396, 0.017951715775697284),
    (0.9105221370785028, 0.020134823153530088),
    (0.8893154459951141, 0.02227017380838297),
    (0.8659993981540928, 0.0243527025687112),
    (0.8406292962525803, 0.02637746971505491),
    (0.8132653151227975, 0.028339672614259535),
    (0.7839723589433414, 0.030234657072402554),
    (0.7528199072605319, 0.032057928354851495),
    (0.7198818501716109, 0.033805161837141794),
    (0.6852363130542333, 0.0354722132568823),
    (0.6489654712546573, 0.03705512854024009),
    (0.6111553551723933, 0.03855015317861564),
    (0.571895646202634, 0.039953741132720544),
    (0.5312794640198946, 0.041262563242623576),
    (0.48940314570705296, 0.04247351512365361),
    (0.4463660172534641, 0.04358372452932355),
    (0.4022701579639916, 0.044590558163756566),
    (0.3572201583376681, 0.045491627927418184),
    (0.31132287199021097, 0.04628479658131447),
    (0.2646871622087674, 0.046968182816210076),
    (0.21742364374000708, 0.04754016571483042),
    (0.16964442042399283, 0.04799938859645842),
    (0.12146281929612054, 0.048344762234802996),
    (0.07299312178779904, 0.04857546744150351),
    (0.02435029266342443, 0.048690957009139814),
), 128: (
    (0.9998248879471319, 0.00044938096029840415),
    (0.999077459977376, 0.001045812679339503),
    (0.997733248625514, 0.0016425030186673034),
    (0.9957927585349812, 0.0022382884309627396),
    (0.9932571129002129, 0.002832751471458722),
    (0.9901278184917344, 0.0034255260409105683),
    (0.9864067427245862, 0.00401625498373918),
    (0.9820961084357185, 0.00460458425670373),
    (0.9771984914639074, 0.005190161832676652),
    (0.9717168187471366, 0.005772637542865853),
    (0.9656543664319652, 0.006351663161707444),
    (0.9590147578536999, 0.0069268925668985095),
    (0.9518019613412644, 0.007497981925634543),
    (0.9440202878302202, 0.00806458989048577),
    (0.9356743882779164, 0.008626377798616598),
    (0.9267692508789478, 0.009183009871660687),
    (0.9173101980809605, 0.009734153415007031),
    (0.9073028834017568, 0.010279479015832234),
    (0.8967532880491582, 0.010818660739502797),
    (0.8856677173453972, 0.011351376324080608),
    (0.8740527969580318, 0.011877307372739933),
    (0.8619154689395485, 0.012396139543950505),
    (0.8492629875779689, 0.012907562739267471),
    (0.8361029150609068, 0.013411271288616303),
    (0.8224431169556439, 0.01390696413295181),
    (0.8082917575079136, 0.01439434500416672),
    (0.7936572947621933, 0.014873122602147326),
    (0.7785484755064119, 0.015343010768865193),
    (0.7629743300440948, 0.015803728659399094),
    (0.746944166797062, 0.016255000909785),
    (0.7304675667419088, 0.016696557801588987),
    (0.7135543776835874, 0.01712813542311128),
    (0.6962147083695144, 0.01754947582711747),
    (0.6784589224477192, 0.01796032718500865),
    (0.660297632272646, 0.018360443937331248),
    (0.6417416925623075, 0.018749586940544658),
    (0.6228021939105849, 0.01912752360995088),
    (0.6034904561585486, 0.019494028058706498),
    (0.5838180216287631, 0.0198488812328308),
    (0.5637966482266181, 0.020191871042129824),
    (0.5434383024128103, 0.020522792486960022),
    (0.5227551520511755, 0.020841447780751005),
    (0.5017595591361445, 0.021147646468221246),
    (0.48046407240417205, 0.02144120553920827),
    (0.4588814198335522, 0.021721949538051975),
    (0.43702450103710416, 0.021989710668460342),
    (0.414906379552275, 0.02224432889379961),
    (0.39254027503326744, 0.02248565203274481),
    (0.369939555349859, 0.02271353585023634),
    (0.3471177285976355, 0.022927844143686663),
    (0.32408843502441337, 0.0231284488243869),
    (0.3008654388776772, 0.023315229994062582),
    (0.2774626201779044, 0.023488076016535752),
    (0.2538939664226943, 0.02364688358444749),
    (0.23017356422666, 0.02379155778100324),
    (0.2063155909020792, 0.02392201213670332),
    (0.18233430598533718, 0.02403816868102389),
    (0.15824404271422493, 0.024139957989019144),
    (0.13405919946118777, 0.024227319222815093),
    (0.10979423112764375, 0.0243002001679717),
    (0.0854636405045155, 0.024358557264690488),
    (0.06108196960413957, 0.02440235563384944),
    (0.0366637909687335, 0.024431569097849878),
    (0.012223698960615766, 0.024446180196262345),
)}


class QuadResult(NamedTuple):
    """``ier`` is QUADPACK's code: 0 converged, 1 subdivision limit reached,
    2 roundoff, 3 bad integrand behaviour at a point, 4 extrapolation
    roundoff, 5 probably divergent, 6 invalid input."""
    value: float
    abserr: float
    ier: int
    neval: int


def quad(fn: Callable[[float], float], a: float, b: float, *,
         epsabs: float = 1.49e-8, epsrel: float = 1.49e-8, limit: int = 50) -> QuadResult:
    """Integral of the real-valued ``fn`` over a finite ``[a, b]`` with
    ``a < b`` (dqagse), as ``scipy.integrate.quad`` computes it, calling
    ``fn`` one point at a time in the published order; ``quad_complex``
    takes the infinite ranges.
    """
    a, b = float(a), float(b)
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"quad integrates over a finite [a, b] with a < b, not [{a}, {b}]")
    value, abserr, ier, last = _qags(lambda lo, hi: _qk21(fn, lo, hi), a, b,
                                     epsabs, epsrel, limit)
    return QuadResult(value, abserr, ier, 21 * (2 * last - 1) if last else 0)


def quad_complex(fn: Callable[[tuple[float, ...]], Sequence[complex]], *,
                 epsabs: float = 1.49e-8, epsrel: float = 1.49e-8,
                 limit: int = 50) -> tuple[QuadResult, QuadResult]:
    """Integral of a complex- or real-valued integrand over the whole real
    line, as one ``QuadResult`` for the real part and one for the imaginary
    part (a real integrand's is zero after its first panel).

    ``fn`` is called once per panel of the 15-point rule, with the tuple of
    that panel's 30 points in dqk15i's published order (the centre ``x`` and
    ``-x``, then ``x1, x2, -x1, -x2`` for each abscissa), and returns the 30
    values there.  dqagie runs once per part, so each result equals
    ``scipy.integrate.quad`` of that part, bit for bit, ``neval`` included.
    The two runs share every panel they both bisect to: ``fn`` is called
    once for it, and each run sums its own part of the values.
    """
    # f(x) + f(-x) at each panel's 15 points: complex sums are componentwise
    sums = {}

    def integrate(part):
        take = attrgetter(part)

        def rule(lo, hi):
            panel = _panel(lo, hi)
            fvals = sums.get((lo, hi))
            if fvals is None:
                fvals = sums[lo, hi] = _mirror_sums(fn(panel.nodes))
            return _qk15i(panel, map(take, fvals))
        value, abserr, ier, last = _qags(rule, 0.0, 1.0, epsabs, epsrel, limit)
        return QuadResult(value, abserr, ier, 30 * (2 * last - 1) if last else 0)
    return integrate("real"), integrate("imag")


def gauss_legendre(n: int) -> list[tuple[float, float]]:
    """The ``n``-point Gauss-Legendre rule on [-1, 1], n = 64 or 128, as
    (node, weight) pairs in ascending node order: numpy's
    ``leggauss(n)`` to the bit."""
    half = _GAUSS_LEGENDRE[n]
    return [(-x, w) for x, w in half] + list(reversed(half))


# ---------------------------------------------------------------------------
# IEEE arithmetic where Python raises
# ---------------------------------------------------------------------------

def _div(x: float, y: float) -> float:
    try:
        return x / y
    except ZeroDivisionError:
        if x == 0.0 or x != x:
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _pow15(x: float) -> float:
    try:
        return x ** 1.5
    except OverflowError:
        return math.inf


def _rule_error(resk, resg, hlgth, resabs, resasc):
    """The error estimate both Kronrod rules end with."""
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, _pow15(200.0 * abserr / resasc))
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return abserr


# ---------------------------------------------------------------------------
# Kronrod rules: (result, abserr, resabs, resasc)
# ---------------------------------------------------------------------------

def _qk21(f, a, b):
    """dqk21: the 21-point Kronrod rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK21[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for jtw, x, wk, wg in _GAUSS21:
        absc = hlgth * x
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for jtwm1, x, wk in _KRONROD21:
        absc = hlgth * x
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK21[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK21[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    return result, _rule_error(resk, resg, hlgth, resabs, resasc), resabs, resasc


class _Panel(NamedTuple):
    """dqk15i's geometry on [a, b] within (0, 1]: the half-length, the 15
    points t (the centre, then centr - hlgth*x and centr + hlgth*x for each
    abscissa x) and the 30 points of the whole line that they map to, the
    centre's x = (1-t)/t and -x, then x1, x2, -x1, -x2 for each abscissa."""
    hlgth: float
    t: tuple[float, ...]
    nodes: tuple[float, ...]


# dyadic panels recur across integrals, so each is laid out once per process;
# the bound keeps a long-lived process from growing without end (1.7 KB each)
@lru_cache(maxsize=4096)
def _panel(a, b):
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    t = [centr]
    for x in _XGK15[:7]:
        absc = hlgth * x
        t += (centr - absc, centr + absc)
    # the map of the whole line: boun = 0.0 and dinf = 1.0
    x = [0.0 + 1.0 * (1.0 - s) / s for s in t]
    nodes = [x[0], -x[0]]
    for j in range(1, 15, 2):
        nodes += (x[j], x[j + 1], -x[j], -x[j + 1])
    return _Panel(hlgth, tuple(t), tuple(nodes))


def _mirror_sums(v):
    """The 15 values f(x) + f(-x) of a whole-line panel from its 30 values
    f(x), f(-x), f(x1), f(x2), f(-x1), f(-x2), ..."""
    out = [v[0] + v[1]]
    for j in range(2, 30, 4):
        out += (v[j] + v[j + 2], v[j + 1] + v[j + 3])
    return out


def _qk15i(panel, fvals):
    """dqk15i: the 15-point Kronrod rule on one panel, for one real part.

    ``fvals`` yields the integrand's sums f(x) + f(-x) at the panel's 15
    points t; each is divided by t^2 and the sums run in dqk15i's order.
    Returns (result, abserr, resabs, resasc).
    """
    # no division below meets a zero: dqagie's ier = 4 test stops bisecting
    # before an interval near t = 0 shrinks below about 1e-305
    hlgth, t, _ = panel
    points = zip(fvals, t)
    f, s = next(points)
    fc = (f / s) / s
    resg = _WG7[7] * fc
    resk = _WGK15[7] * fc
    resabs = abs(resk)
    fvs = []
    for (wk, wg), (f1, s1), (f2, s2) in zip(_WEIGHTS15, points, points):
        fv1 = (f1 / s1) / s1
        fv2 = (f2 / s2) / s2
        fvs.append((wk, fv1, fv2))
        fsum = fv1 + fv2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fv1) + abs(fv2))
    reskh = resk * 0.5
    resasc = _WGK15[7] * abs(fc - reskh)
    for wk, fv1, fv2 in fvs:
        resasc = resasc + wk * (abs(fv1 - reskh) + abs(fv2 - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    return result, _rule_error(resk, resg, hlgth, resabs, resasc), resabs, resasc


# ---------------------------------------------------------------------------
# The adaptive driver
# ---------------------------------------------------------------------------

def _qags(rule, a, b, epsabs, epsrel, limit):
    """dqagse, and dqagie when ``rule`` is dqk15i on [a, b] = [0, 1].

    The two published drivers differ only in the rule, the first interval
    and neval; ``small`` starts at 0.375 * |b - a|, which is dqagie's 0.375
    on [0, 1].  Returns (result, abserr, ier, last).
    """
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28)):
        return 0.0, 0.0, 6, 0
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = rule(a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, last

    # initialization
    # dqelg's table holds 50 entries (52 slots), and dqelg keeps n below
    # that; NaN areas skip its shortening, and each step adds one entry
    rlist2 = [0.0] * (max(50, limit) + 5)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0
    summed = False

    # main loop
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = rule(a1, b1)
        area2, error2, resabs, defab2 = rule(a2, b2)

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, subdivision limit, bad integrand behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the
            # larger intervals first if any is left among the next ones
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate (labels 100-130)
    if not summed:
        if abserr == OFLOW:
            summed = True
        else:
            divergence_test = True
            if ier + ierro != 0:
                if ierro == 3:
                    abserr = abserr + correc
                if ier == 0:
                    ier = 3
                if result != 0.0 and area != 0.0:
                    summed = abserr / abs(result) > errsum / abs(area)
                elif abserr > errsum:
                    summed = True
                elif area == 0.0:
                    divergence_test = False
            if not summed and divergence_test and not (
                    ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                ratio = _div(result, area)
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier, last


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord sorted by descending error; returns the new
    (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # subdivision may have increased the error estimate: move it up
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the part of the list that can still be bisected stays sorted
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down, then errmin bottom-up
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on epstab[1..n]; returns
    the new (n, result, abserr, nres)."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * EPMACH
            # two close elements or irregular behaviour: cut the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            # shift the table
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = OFLOW
            else:
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * EPMACH * abs(result))
    return n, result, abserr, nres
