"""Exact interpolants pinned by digest: sha256 of the printed interpolants
of both variants at k = 1..3, one degree-4 field per dimension, on the
reference simplices, T-bar, a rational triangle and tetrahedron and a
tetrahedron with 15-digit decimal vertices.  The digests were recorded
when every element still evaluated its DOFs on its own simplex, so they
pin the reference-frame interpolant to those exact Fractions.

`bdm_original` at k = 4 (r = 26 Q_k moments) is pinned on the two
non-reference tetrahedra too, for a degree-5 field: a larger projection
onto Q_k than k <= 3 gives.  Those digests were recorded while each
mapped element corrected its own Q_k moments through an r x r system and
the inverse of the original-DOF matrix of the reference simplex, before
the element became the `nedelec` interpolant plus that projection (see
`bdm.BDMElement._project`)."""

import hashlib
from fractions import Fraction as F

import pytest

from bdmlab.bdm import VARIANTS, build_element
from bdmlab.cli import parse_field
from bdmlab.geometry import Simplex, reference_simplex, t_bar_simplex

TET15 = ((-0.731271511775198, 0.694867473874465, 0.527549237953228),
         (0.510138051478843, -0.00912982581611810, -0.101017870422524),
         (0.303185945445526, 1.57744670227103, -0.812280826451530),
         (-0.943305046955987, 0.671530207839739, 0.865534135810107))

SIMPLICES = {
    "tri": reference_simplex(2),
    "tet": reference_simplex(3),
    "tbar": t_bar_simplex(),
    "rational-tri": Simplex(((F(1, 3), F(-2, 5)), (F(7, 4), F(1, 9)),
                             (F(-1, 2), F(3, 2)))),
    "rational-tet": Simplex(((0, 0, 0), (F(3, 2), F(1, 7), 0),
                             (F(1, 5), F(5, 3), F(1, 9)),
                             (F(1, 4), F(-1, 3), F(7, 5)))),
    "tet15": Simplex(TET15),
}

FIELDS = {
    2: "x1**4 - 3/4*x2**3*x1 + x2, 2/9*x1**2*x2**2 + 1/3*x1",
    3: ("x1**4 - 2/3*x2**2*x3**2 + x3, x1*x2**3 - x3**2 + 1/5*x1**2*x2*x3, "
        "5/7*x1*x2*x3**2 - x2"),
}

DIGESTS = {
    "tri":
        "6d2b4067028abbdb193c8f768359f508f152560043fbcecec482557994c4bfdd",
    "tet":
        "c6417fd716997414ee029b0aed9039b064d9d7c6cb87b31300270e2b9e8ce82a",
    "tbar":
        "71c245be53c15b53cf9f1dc069101e6bd3266ef1451572632242cb2f5e22c372",
    "rational-tri":
        "faf73cd49923e1337ae7ffbb7242e9f37615f5ed6fb3ec223affdb9437545a1a",
    "rational-tet":
        "437c91cb56444d951031916926c71ddb615a645b4c6ab09ff1541f788d2288e8",
    "tet15":
        "18727cdff9410937a505a0bb862faa7fa2b5de714463e8674570a9d5fbdffb46",
}


K4_FIELD = ("x1**5 - 2/3*x2**2*x3**3 + x3, "
            "x1*x2**4 - x3**2 + 1/5*x1**2*x2*x3**2, 5/7*x1**3*x2*x3 - x2")

K4_DIGESTS = {
    "rational-tet":
        "dcabdd1b9946e02be4c2b21aedac23bc8817347b6b1183b7ed0459f14487ca15",
    "tet15":
        "5035f8884881ac4d48424d2013f12066bef83f1ced04eb8698152baa33151a0c",
}


def interpolants_digest(simplex):
    field = parse_field(FIELDS[simplex.dim], simplex.dim)
    lines = [f"{variant} k={k}: {build_element(simplex, k, variant).interpolate(field)}"
             for variant in VARIANTS for k in (1, 2, 3)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", SIMPLICES)
def test_interpolants_match_pinned_digests(name):
    assert interpolants_digest(SIMPLICES[name]) == DIGESTS[name]


@pytest.mark.parametrize("name", K4_DIGESTS)
def test_bdm_original_k4_matches_pinned_digest(name):
    el = build_element(SIMPLICES[name], 4, "bdm_original")
    line = f"bdm_original k=4: {el.interpolate(parse_field(K4_FIELD, 3))}"
    assert hashlib.sha256(line.encode()).hexdigest() == K4_DIGESTS[name]
