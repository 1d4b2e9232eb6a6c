"""Pauli and Dirac representations via spectral bases.

The 2x2 Pauli matrices come from viewing g(3) as a complexified g(1,1):
e := e1 and f := e1 e3 are an anticommuting unit / anti-unit pair, and the
coordinate matrices take entries in the center span{1, e123} of the odd
algebra.  The central pseudoscalar i = e123 has i^2 = -1 but is a blade,
not the scalar j; the two are kept distinct throughout.

The Dirac algebra g(1,3) gets two 4x4 complex representations, each the
SpectralBasis of two nilpotent pairs.  The standard one takes
the pairs (j g2 g3 +- e1 e3)/2 and (e3 +- g3)/2, with e_k = g_k g0: their
bordering is the idempotent u_pp = (1+g0)(1+j g12)/4 with rows (1, e13, e3,
e1) and columns (1, -e13, e3, e1) in the rest frame.  The new one takes the
pairs (g0 -+ g3)/2 and (j g2 +- g1)/2 of gammas: the g(2,2) bordering of
subset words, transported by that (27)-style pairing; new_border_form
borders the same array by hand, with witt_global.border.  Pauli is the same
bordering of the one pair (e1 +- e1 e3)/2 over the center of g(3).

The gammas are an orthonormal frame: gamma_anticommutation_check checks
their anticommutator table 2 diag(1, -1, -1, -1) with
ga.anticommutator_relations, and the same table on the coordinate
matrices of either representation, named by the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ga import (Multivector, anticommutator_relations, g3, g13, g_nn, gp, gp_chain,
                 null_pair, relation_name)
from .scalars import Scalar
from .witt_global import CentralMatrix, MvMatrix, SpectralBasis, border

QUARTER = Fraction(1, 4)


@dataclass
class DiracFrame:
    gammas: list[Multivector]
    pseudoscalar: Multivector        # g0 g1 g2 g3, anticommutes with vectors
    rest: list[Multivector]          # e_k = g_k g0, k = 1, 2, 3


def dirac_frame() -> DiracFrame:
    sig = g13()
    gammas = [Multivector.generator(sig, i) for i in range(4)]
    pseudo = gp_chain(gammas)
    rest = [gp(gammas[k], gammas[0]) for k in (1, 2, 3)]
    return DiracFrame(gammas, pseudo, rest)


@dataclass
class DiracIdempotents:
    u_pp: Multivector
    u_pm: Multivector
    u_mp: Multivector
    u_mm: Multivector

    def all(self) -> list[Multivector]:
        return [self.u_pp, self.u_pm, self.u_mp, self.u_mm]


def dirac_idempotents(frame: DiracFrame) -> DiracIdempotents:
    """The four primitive idempotents (1 +- g0)(1 +- j g12)/4."""
    sig = frame.gammas[0].sig
    one = Multivector.scalar(sig, 1)
    g0 = frame.gammas[0]
    jg12 = gp(frame.gammas[1], frame.gammas[2]).scale(Scalar.j())
    us = []
    for s0 in (1, -1):
        for s12 in (1, -1):
            us.append(gp(one + g0.scale(s0),
                         one + jg12.scale(s12)).scale(QUARTER))
    return DiracIdempotents(*us)


def idempotent_orders_agree(frame: DiracFrame) -> bool:
    """(1+g0)(1+j g12) = (1+j g12)(1+g0): the two factors commute."""
    sig = frame.gammas[0].sig
    one = Multivector.scalar(sig, 1)
    left = one + frame.gammas[0]
    right = one + gp(frame.gammas[1], frame.gammas[2]).scale(Scalar.j())
    return gp(left, right) == gp(right, left)


def intertwining_relations(frame: DiracFrame) -> list[str]:
    """The failing ones of e13 u_pp = u_pm e13, e3 u_pp = u_mp e3 and
    e1 u_pp = u_mm e1, by name; empty when all hold."""
    u = dirac_idempotents(frame)
    e1, _, e3 = frame.rest
    e13 = gp(e1, e3)
    rels = [
        ("e13 u_pp = u_pm e13", gp(e13, u.u_pp) == gp(u.u_pm, e13)),
        ("e3 u_pp = u_mp e3", gp(e3, u.u_pp) == gp(u.u_mp, e3)),
        ("e1 u_pp = u_mm e1", gp(e1, u.u_pp) == gp(u.u_mm, e1)),
    ]
    return [name for name, held in rels if not held]


# -- pauli -----------------------------------------------------------------


def pauli_spectral() -> tuple[SpectralBasis, list[CentralMatrix]]:
    """g(3) as 2x2 matrices over its center: returns the basis and [e1],[e2],[e3]."""
    sig = g3()
    e = Multivector.generator(sig, 0)
    a, b = null_pair(e, gp(e, Multivector.generator(sig, 2)))   # e1 e3 squares to -1
    sb = SpectralBasis([a], [b])
    mats = [sb.mv_to_matrix(Multivector.generator(sig, k)) for k in range(3)]
    return sb, mats


def pauli_impostor_check(sb: SpectralBasis, mats: list[CentralMatrix]) -> list[str]:
    """The j-entried lookalike of [e2] = mats[1] is not a g(3) coordinate
    matrix on the Pauli basis sb: the failing ones of impostor != [e2],
    [e2] [f] = [e2 f] and impostor [f] != [e2 f], by name; empty when the
    swap of the central blade i for the scalar j breaks the product."""
    sig = sb.sig
    e2 = Multivector.generator(sig, 1)
    f = gp(Multivector.generator(sig, 0), Multivector.generator(sig, 2))
    zero = Multivector.zero(sig)
    pj = Multivector.scalar(sig, Scalar.j())
    impostor = CentralMatrix([[zero, -pj], [pj, zero]])
    f_mat = sb.mv_to_matrix(f)
    product = sb.mv_to_matrix(gp(e2, f))            # = -i as a multivector
    rels = [
        ("impostor != [e2]", impostor != mats[1]),
        ("[e2] [f] = [e2 f]", mats[1].matmul(f_mat) == product),
        ("impostor [f] != [e2 f]", impostor.matmul(f_mat) != product),
    ]
    return [name for name, held in rels if not held]


def g11_embedding_check() -> bool:
    """(1, e, f, ef) -> (1, e1, e1e3, e3) respects all 16 products."""
    s11 = g_nn(1)
    s3 = g3()
    e1_3 = Multivector.generator(s3, 0)
    e3_3 = Multivector.generator(s3, 2)
    phi = {
        0b00: Multivector.scalar(s3, 1),
        0b01: e1_3,
        0b10: gp(e1_3, e3_3),
        0b11: e3_3,
    }
    # source blade masks: e -> (e+f)-style generators of g(1,1) directly
    e = Multivector.generator(s11, 0)
    f = Multivector.generator(s11, 1)
    src = {0b00: Multivector.scalar(s11, 1), 0b01: e, 0b10: f, 0b11: gp(e, f)}

    def lift(x: Multivector) -> Multivector:
        return Multivector.combine(s3, ((coeff, phi[mask]) for mask, coeff in x.terms.items()))

    for ma in src:
        for mb in src:
            if lift(gp(src[ma], src[mb])) != gp(phi[ma], phi[mb]):
                return False
    return True


# -- dirac, standard representation ----------------------------------------


def _standard_basis(fr: DiracFrame) -> SpectralBasis:
    """Matrix units around u_pp, bordered by (1, e13, e3, e1) and (1, -e13, e3, e1):
    the basis of the pairs (j g2 g3 +- e13)/2 and (e3 +- g3)/2."""
    _, _, g2, g3v = fr.gammas
    e1, _, e3 = fr.rest
    (a1, b1), (a2, b2) = null_pair(gp(g2, g3v).scale(Scalar.j()), gp(e1, e3)), null_pair(e3, g3v)
    sb = SpectralBasis([a1, a2], [b1, b2])
    sb.row_labels, sb.col_labels = ["1", "e13", "e3", "e1"], ["1", "-e13", "e3", "e1"]
    return sb


def dirac_spectral_standard() -> tuple[SpectralBasis, list[MvMatrix]]:
    fr = dirac_frame()
    sb = _standard_basis(fr)
    return sb, [sb.mv_to_matrix(g) for g in fr.gammas]


# -- dirac, new representation from the neutral-signature basis ------------


@dataclass
class NewDiracData:
    frame: DiracFrame
    a: list[Multivector]             # a1, a2
    b: list[Multivector]             # b1, b2
    u1: Multivector
    u2: Multivector
    basis: SpectralBasis
    gamma_mats: list[MvMatrix]


def new_witt_pair(frame: DiracFrame):
    """The pairs a1, b1 = (g0 -+ g3)/2 and a2, b2 = (j g2 +- g1)/2."""
    g0, g1, g2, g3v = frame.gammas
    (a1, b1), (a2, b2) = null_pair(g0, -g3v), null_pair(g2.scale(Scalar.j()), g1)
    return frame, [a1, a2], [b1, b2]


def dirac_spectral_new() -> NewDiracData:
    fr, a, b = new_witt_pair(dirac_frame())
    sb = SpectralBasis(a, b)
    mats = [sb.mv_to_matrix(g) for g in fr.gammas]
    return NewDiracData(fr, a, b, gp(b[0], a[0]), gp(b[1], a[1]), sb, mats)


def new_border_form(data: NewDiracData) -> list[list[Multivector]]:
    """The array of data.basis as the paper borders it by hand, through gp:
    rows (1, g0, j g2, -j e2) and columns (1, g0, j g2, j e2) around u1 u2."""
    fr = data.frame
    sig = fr.gammas[0].sig
    one = Multivector.scalar(sig, 1)
    j = Scalar.j()
    g0, g2 = fr.gammas[0], fr.gammas[2]
    e2 = fr.rest[1]
    rows = [one, g0, g2.scale(j), e2.scale(-j)]
    cols = [one, g0, g2.scale(j), e2.scale(j)]
    return border(rows, gp(data.u1, data.u2), cols)


def new_rep_extra_matrices(data: NewDiracData) -> dict[str, MvMatrix]:
    """The nilpotent-pair and rest-frame coordinate matrices of the new basis."""
    sb = data.basis
    out = {
        "a1": sb.mv_to_matrix(data.a[0]),
        "a2": sb.mv_to_matrix(data.a[1]),
        "b1": sb.mv_to_matrix(data.b[0]),
        "b2": sb.mv_to_matrix(data.b[1]),
    }
    for k, ek in enumerate(data.frame.rest, 1):
        out[f"e{k}"] = sb.mv_to_matrix(ek)
    return out


def gamma_anticommutation_check(gammas: list[Multivector], mats: list[MvMatrix]) -> list[str]:
    """The failing relations of the table 2 diag(eta), eta = (1, -1, -1, -1),
    of the gammas and then of their coordinate matrices mats, by name (the
    matrices labelled [g0]..[g3]); empty when all hold."""
    gram = [[2 * q if mu == nu else 0 for nu in range(4)]
            for mu, q in enumerate((1, -1, -1, -1))]
    boxed = [f"[g{mu}]" for mu in range(4)]
    ident = MvMatrix.identity(4)
    return anticommutator_relations(gammas, [f"g{mu}" for mu in range(4)], gram) + [
        relation_name(boxed, mu, nu, gram[mu][nu])
        for mu in range(4) for nu in range(mu, 4)
        if mats[mu].matmul(mats[nu]) + mats[nu].matmul(mats[mu]) != ident.scale(gram[mu][nu])]


def pseudoscalar_anticommutes(frame: DiracFrame) -> bool:
    zero = Multivector.zero(frame.gammas[0].sig)
    return all(gp(frame.pseudoscalar, g) + gp(g, frame.pseudoscalar) == zero
               for g in frame.gammas)
