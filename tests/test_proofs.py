"""Proofs of the quad-demo and XII.24 theorems, made by running the kernel's
own integer arithmetic over sympy's fields of rational functions.

A kernel predicate that does only ring arithmetic and ``==`` runs unchanged
when its integers are replaced by rational functions of free parameters. A
comparison that then reads True is an identity of rational functions, so it
holds at every rational specialization at which the points are defined. sympy
is the symbolic oracle here; nothing under ``src/`` imports it.
"""

from types import SimpleNamespace

from sympy import QQ, expand, symbols

from sulvageom import cyclic_geometry
from sulvageom.cyclic_geometry import diagonal_lengths_sq, orthodiagonal_verdicts, shoelace_area, xii24_verify

FIELD = QQ.frac_field(*symbols("na ma nb mb nc mc nd md"))
NA, MA, NB, MB, NC, MC, ND, MD = FIELD.gens

# The fourth vertex that makes B-D perpendicular to A-C on the unit circle.
N_D = -(NA * NB * MC - NA * MB * NC + MA * NB * NC + MA * MB * MC)
M_D = NA * NB * NC + NA * MB * MC - MA * NB * MC + MA * MB * NC


def unit_point(n, m):
    """The unit-circle point of homogeneous parameter (n : m)."""
    s = m * m + n * n
    return (m * m - n * n) / s, 2 * n * m / s


def verdicts(n_d, m_d):
    points = (unit_point(NA, MA), unit_point(NB, MB), unit_point(NC, MC), unit_point(n_d, m_d))
    return orthodiagonal_verdicts(SimpleNamespace(homogeneous=(1, points)))


def test_orthodiagonal_verdicts_prove_the_bisection_theorem():
    """Every cyclic quad whose diagonals are perpendicular passes both quad-demo
    verdicts, decided by the function the CLI calls.

    Every rational point of the unit circle is (m^2 - n^2, 2nm)/(m^2 + n^2) for
    some (n : m), the vertex (-1, 0) at (1 : 0) included, so homogeneous
    parameters miss no quad. Given A, B and C, the line through B perpendicular
    to A-C meets the circle again at one point, the D at (N_D : M_D); since
    N_D^2 + M_D^2 is the product of the three m^2 + n^2, it is a point for every
    A, B and C. Both sides of each test in the function are homogeneous of one
    degree in the coordinates, so scaling by the radius and the common
    denominator changes no verdict, and the unit circle over denominator 1 is
    enough.
    """
    assert N_D * N_D + M_D * M_D == (NA**2 + MA**2) * (NB**2 + MB**2) * (NC**2 + MC**2)
    assert verdicts(N_D, M_D) == (True, True)


def test_orthodiagonal_verdicts_fail_for_a_free_fourth_vertex():
    assert verdicts(ND, MD) == (False, False)


def test_one_feet_test_decides_the_other_three():
    """The lemma behind orthodiagonal_verdicts' single feet test. With
    u = C - A, v = D - B and the diagonals' cut J = A + (n_ac/det) u =
    B + (n_bd/det) v, the foot of an apex p on a diagonal from q with direction
    w sits at J when ((p - q).w) det == n (w.w). Each such residual is plus or
    minus twice the signed area of the apex's triangle with the diagonal, times
    u.v. No three vertices of a CyclicQuad are collinear, so each feet test
    holds exactly when u.v = 0, and any one of them decides the other three."""
    ax, ay, bx, by, cx, cy, dx, dy = symbols("ax ay bx by cx cy dx dy")
    a, b, c, d = (ax, ay), (bx, by), (cx, cy), (dx, dy)

    def sub(p, q):
        return p[0] - q[0], p[1] - q[1]

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1]

    def cross(p, q):
        return p[0] * q[1] - p[1] * q[0]

    def twice_area(p, q, r):
        return cross(sub(q, p), sub(r, p))

    u, v, e = sub(c, a), sub(d, b), sub(b, a)
    det, n_ac, n_bd = cross(u, v), cross(e, v), cross(e, u)

    def feet_residual(p, q, w, n):
        return dot(sub(p, q), w) * det - n * dot(w, w)

    for residual, sign, triangle in (
        (feet_residual(b, a, u, n_ac), -1, (a, b, c)),
        (feet_residual(d, a, u, n_ac), 1, (a, c, d)),
        (feet_residual(a, b, v, n_bd), -1, (a, b, d)),
        (feet_residual(c, b, v, n_bd), 1, (b, c, d)),
    ):
        assert expand(residual - sign * twice_area(*triangle) * dot(u, v)) == 0


def test_xii24_verify_proves_the_half_oblong_derivation(monkeypatch):
    """xii24_verify's four identities hold for every base end t and apex u on
    the unit circle, decided by the function the CLI calls over the rational
    functions of t and u. The tan-half-angle form stands in for _param_form and
    a pair for Fraction, whose reduction the symbols do not need. The radius
    is 1: each identity is homogeneous in the coordinates. Left out: the point
    (-1, 0) at t = infinity, as base end or apex, and the apexes on the base's
    ends, which raise DegenerateBase."""
    field = QQ.frac_field(*symbols("t u"))
    t, u = field.gens
    monkeypatch.setattr(cyclic_geometry, "_param_form", lambda s, r: (1 - s**2, 2 * s, 1 + s**2))
    monkeypatch.setattr(cyclic_geometry, "Fraction", lambda n, d: (n, d))
    report = xii24_verify(t, u, 1)
    assert report[-4:] == (True, True, True, True)


def test_area_and_diagonals_prove_brahmagupta(monkeypatch):
    """shoelace_area and diagonal_lengths_sq, the functions behind the quad
    demo's area and diagonals squared rows, agree with Brahmagupta's area rule
    (XII.21) and diagonal rule (XII.28) on every cyclic quad.

    Vertex i sits at angle 2 psi_i on the unit circle, with u_i = tan(psi_i / 2),
    so cos psi, sin psi, the vertex (cos^2 psi - sin^2 psi, 2 sin psi cos psi)
    and the chord 2 sin(psi_j - psi_i) are all rational in u. When the psi_i
    ascend within a half turn, the four sines are positive and the chords are
    the side lengths. Fraction is replaced by division over the field, and the
    radius is 1: each rule is homogeneous in the lengths. Left out:
    brahmagupta_radicand reads .denominator, so it cannot run over the field;
    the proof states the radicand as the text's product, and
    TestBrahmaguptaRadicand::test_matches_the_fraction_oracle ties the kernel's
    integer formula to that product."""
    field = QQ.frac_field(*symbols("u1 u2 u3 u4"))
    monkeypatch.setattr(cyclic_geometry, "Fraction", lambda n, d: n / d)
    cos_sin = [((1 - u**2) / (1 + u**2), 2 * u / (1 + u**2)) for u in field.gens]
    points = tuple((cos**2 - sin**2, 2 * sin * cos) for cos, sin in cos_sin)

    def chord(i, j):
        (cos_i, sin_i), (cos_j, sin_j) = cos_sin[i], cos_sin[j]
        return 2 * (sin_j * cos_i - cos_j * sin_i)

    a, b, c, d = chord(0, 1), chord(1, 2), chord(2, 3), chord(0, 3)
    s = (a + b + c + d) / 2
    quad = SimpleNamespace(homogeneous=(1, points))
    assert shoelace_area(quad) ** 2 == (s - a) * (s - b) * (s - c) * (s - d)
    assert diagonal_lengths_sq(quad) == (
        (a * c + b * d) * (a * d + b * c) / (a * b + c * d),
        (a * c + b * d) * (a * b + c * d) / (a * d + b * c),
    )
