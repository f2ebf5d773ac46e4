"""expit and ndtr with the bits of the common C implementations: ndtr is
Cephes', with its erf and erfc, and every exp is libm's, taken per element
through math, as numpy's SIMD exp differs from libm's in the last bit of
some values."""

import math

import numpy as np

#: The largest double whose exp is finite; Cephes' MAXLOG.
MAX_EXP = 709.782712893384
_SQRT1_2 = 0.70710678118654752440

# Cephes' erfc on [1, 8) (P / Q) and [8, inf) (R / S) and erf on [0, 1] (T / U),
# highest power first; Q, S and U lead with the 1 that Cephes leaves implicit.
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)


def _each(f, x):
    """f of every element of x as a float, in x's shape."""
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(f, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _polevl(x, coef):
    value = coef[0]
    for c in coef[1:]:
        value = value * x + c
    return value


def _erf(x):
    """Cephes' erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _ndtr(a):
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    if z < 1.0:  # Cephes' erfc(z) below 1 is 1 - erf(z)
        y = 0.5 * (1.0 - _erf(z))
    elif -z * z < -MAX_EXP:  # erfc(z) underflows
        y = 0.0
    else:
        p, q = (_P, _Q) if z < 8.0 else (_R, _S)
        y = 0.5 * (math.exp(-z * z) * _polevl(z, p) / _polevl(z, q))
    return 1.0 - y if x > 0 else y


def expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x)): 0 where exp(-x) overflows."""
    neg = np.negative(x, dtype=np.float64)
    e = _each(math.exp, np.minimum(neg, MAX_EXP))  # NaN stays NaN
    e[neg > MAX_EXP] = math.inf
    return 1.0 / (1.0 + e)


def ndtr(x):
    """The standard normal distribution function, elementwise."""
    return _each(_ndtr, x)
