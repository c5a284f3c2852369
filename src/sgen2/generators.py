"""Case classification and construction of the generating triple.

Case 1: some exponent search on K itself succeeds (every intermediate
field's S-unit rank is strictly below rank(O_S^*)); the triple is

    gamma = diag(alpha^h, alpha^-h),  psi1 = E21(h),  psi2 = E12(h).

Case 2: the rank bound is attained by a subfield F, which forces K to
be CM over F with no finite prime of S(F) splitting in K; F over S(F)
is then classified like K (it is totally real, so case 1), alpha is
chosen in F under that classification and psi2 picks up sqrt(-d):

    psi2 = [[1, h*sqrt(-d)], [0, 1]].

CaseInfo and the triple are data that cli lays out; the triple is three
determinant-checked SL2Elements with no group operations.  This module
builds every 2x2 matrix over K (e21, e12 and the triple), and no module
multiplies two of them: verification reads the proved shapes.
"""

from .errors import HypothesisFails, InconsistentCM
from .sunits import (SubfieldRank, choose_alpha, default_subfields, is_cm,
                     s_unit_basis)


# ---------------------------------------------------------------------------
# 2x2 matrices over K, as rows of FieldElements.  The shapes E21 and E12
# are built here only.

def e21(field, x):
    return ((field.one, field.zero), (x, field.one))


def e12(field, x):
    return ((field.one, x), (field.zero, field.one))


class SL2Element:
    """A 2x2 matrix over K with determinant exactly 1."""

    __slots__ = ("rows",)

    def __init__(self, field, rows):
        self.rows = (tuple(rows[0]), tuple(rows[1]))
        (a, b), (c, d) = self.rows
        if a * d - b * c != field.one:
            raise ValueError("determinant must be 1")

    def serialize(self):
        return [[x.serialize() for x in row] for row in self.rows]

    def __repr__(self):
        return f"SL2Element({self.rows[0]!r}, {self.rows[1]!r})"


# ---------------------------------------------------------------------------
# Classification.

class CaseInfo:
    """What classification computed: the S-unit basis, the SubfieldRank
    of each subfield consulted, the CM structure (or None), and in case 2
    the SubfieldRank that attains the rank bound (None in case 1), whose
    F alpha is chosen in and whose SF is S(F)."""

    __slots__ = ("case", "sbasis", "subfields", "cm", "case2")

    def __init__(self, case, sbasis, subfields, cm, case2):
        self.case = case
        self.sbasis = sbasis
        self.subfields = subfields
        self.cm = cm
        self.case2 = case2


def classify_case(field, S):
    """Decide which construction applies.

    Strict rank inequality everywhere gives Case 1.  Equality at some
    subfield is only coherent when that subfield is the totally real
    half of a CM structure and no finite prime of S(F) splits; anything
    else is reported as an inconsistency rather than silently patched.
    """
    sbasis = s_unit_basis(field, S)
    rank = sbasis.rank
    ranks = [SubfieldRank(S, F) for F in default_subfields(field)]
    attained = []
    for sr in ranks:
        if sr.rank > rank:
            raise InconsistentCM(
                f"intersection rank {sr.rank} exceeds the S-unit rank {rank}")
        if sr.rank == rank:
            attained.append(sr)
    cm = is_cm(field)
    if not attained:
        return CaseInfo(1, sbasis, ranks, cm, None)
    if cm is None:
        raise InconsistentCM(
            "the S-unit rank is attained by a subfield but the field has "
            "no CM structure")
    # is_cm returns one of default_subfields(field), the descriptors
    # ranked above, so the CM subfield is matched by identity
    chosen = next((sr for sr in attained if sr.F is cm.F), None)
    if chosen is None:
        raise InconsistentCM(
            "the rank is attained only by subfields other than the totally "
            "real CM subfield")
    if not chosen.unsplit():
        raise HypothesisFails(
            "a finite prime below S splits in K, which contradicts the "
            "attained rank bound")
    return CaseInfo(2, sbasis, ranks, cm, chosen)


# ---------------------------------------------------------------------------
# The triple.

class GeneratorTriple:
    __slots__ = ("field", "S", "h", "case_info", "alpha_cert", "alpha_in_K",
                 "gamma", "psi1", "psi2")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def matrices(self):
        return (self.gamma, self.psi1, self.psi2)


def build_generators(field, S, h=1):
    """The triple (gamma, psi1, psi2) for O_S, with exponent h >= 1."""
    if h < 1:
        raise ValueError("h must be a positive integer")
    info = classify_case(field, S)
    hK = field.from_rational(h)
    if info.case == 1:
        cert = choose_alpha(info)
        alpha_K = cert.alpha
        psi2_top = hK
    else:
        F = info.case2.F
        cert = choose_alpha(classify_case(F.subfield, info.case2.SF))
        alpha_K = F.map_element(cert.alpha)
        psi2_top = hK * info.cm.sqrt_minus_d
    ah = alpha_K ** h
    gamma = SL2Element(field, ((ah, field.zero), (field.zero, ah.inverse())))
    psi1 = SL2Element(field, e21(field, hK))
    psi2 = SL2Element(field, e12(field, psi2_top))
    return GeneratorTriple(field=field, S=S, h=h, case_info=info,
                           alpha_cert=cert, alpha_in_K=alpha_K, gamma=gamma,
                           psi1=psi1, psi2=psi2)
