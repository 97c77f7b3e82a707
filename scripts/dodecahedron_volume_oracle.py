#!/usr/bin/env python3
"""Pre-build oracle: hyperbolic volume of the right-angled regular dodecahedron.

The dodecahedron {5,3} with all dihedral angles pi/2 decomposes barycentrically
into 120 copies of the compact orthoscheme with essential dihedral angles
(pi/5, pi/3, pi/4).  The orthoscheme volume follows from the classical
Lobachevsky-function formula (Milnor / Vinberg):

    delta = atan( sqrt(cos^2 b - sin^2 a sin^2 c) / (cos a cos c) )
    V = 1/4 [ L(a+d) - L(a-d) + L(c+d) - L(c-d)
              - L(pi/2 - b + d) + L(pi/2 - b - d) + 2 L(pi/2 - d) ]

with L the Lobachevsky function L(t) = -int_0^t log|2 sin u| du, evaluated
here through the Clausen function Cl2 (L(t) = Cl2(2t)/2).

The resulting constant is frozen into the test suite.  The package evaluates
the same formula in float64 (``acutesphere.klein.lobachevsky`` and
``orthoscheme_volume``) without mpmath; the tests load this script as an
independent high-precision reference for both.
"""

import mpmath as mp

mp.mp.dps = 40


def lobachevsky(theta):
    return mp.clsin(2, 2 * theta) / 2


def orthoscheme_volume(a, b, c):
    """Volume of the compact hyperbolic orthoscheme R(a, b, c)."""
    num = mp.sqrt(mp.cos(b) ** 2 - mp.sin(a) ** 2 * mp.sin(c) ** 2)
    delta = mp.atan(num / (mp.cos(a) * mp.cos(c)))
    L = lobachevsky
    return (L(a + delta) - L(a - delta)
            + L(c + delta) - L(c - delta)
            - L(mp.pi / 2 - b + delta) + L(mp.pi / 2 - b - delta)
            + 2 * L(mp.pi / 2 - delta)) / 4


def main():
    v_ortho = orthoscheme_volume(mp.pi / 5, mp.pi / 3, mp.pi / 4)
    v_dodec = 120 * v_ortho
    print("orthoscheme R(pi/5, pi/3, pi/4) volume:", mp.nstr(v_ortho, 20))
    print("right-angled dodecahedron volume    :", mp.nstr(v_dodec, 20))

    # sanity: the same formula on R(pi/3, pi/3, pi/6)-type schemes must stay
    # positive and small; and the ideal regular octahedron value 8 L(pi/4)
    # pins down the Lobachevsky normalization.
    print("8*L(pi/4) (ideal right octahedron)  :", mp.nstr(8 * lobachevsky(mp.pi / 4), 20))


if __name__ == "__main__":
    main()
