import numpy as np
import pytest

from cpdist.dilations import (
    Contraction,
    Dilation,
    common_pair_from_contraction,
    dilation_from_kraus,
    intertwiner_from_minimal,
    minimal_dilation,
    triangle_dilations,
    verify_dilation,
)
from cpdist.linalg import operator_norm
from cpdist.maps import CpMap, identity_channel, random_channel
from cpdist.metrics import bures


def random_contraction(rng, m1, m2):
    g = rng.standard_normal((m1, m2)) + 1j * rng.standard_normal((m1, m2))
    nrm = operator_norm(g)
    return Contraction(g / max(nrm, 1.0) * rng.uniform(0.2, 1.0))


def test_dilation_from_kraus_round_trip():
    t = random_channel(3, 2, 2, seed=51)
    dil = dilation_from_kraus(t.kraus, 3, 2)
    assert (dil.d, dil.n, dil.m) == (3, 2, 2)
    for got, want in zip(dil.kraus, t.kraus):
        assert np.allclose(got, want, atol=1e-15)
    assert np.allclose(dil.map().choi, t.choi, atol=1e-12)
    assert verify_dilation(dil, t) < 1e-12


def test_dilation_shape_validation():
    with pytest.raises(ValueError):
        Dilation(2, 2, 2, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        dilation_from_kraus([np.zeros((2, 3))], 3, 2)


def test_kraus_is_a_view_of_the_dilation_operator():
    t = random_channel(3, 2, 2, seed=50)
    dil = dilation_from_kraus(t.kraus, 3, 2)
    assert dil.kraus.shape == (2, 3, 2)
    assert np.shares_memory(dil.kraus, dil.v)
    assert np.array_equal(dil.kraus, np.array(t.kraus))
    assert Dilation(3, 2, 0, np.zeros((0, 2))).kraus.shape == (0, 3, 2)


def test_minimal_dilation_has_kraus_rank_multiplicity():
    # build a redundant Kraus family (rank 2 written with 4 operators)
    t = random_channel(2, 2, 2, seed=52)
    k = t.kraus
    redundant = CpMap(2, 2, [k[0] / np.sqrt(2), k[0] / np.sqrt(2),
                             k[1] / np.sqrt(2), k[1] / np.sqrt(2)])
    assert np.allclose(redundant.choi, t.choi, atol=1e-12)
    dil = minimal_dilation(redundant)
    assert dil.m == 2
    assert verify_dilation(dil, redundant) < 1e-10
    # isometric whenever the map is unital
    assert np.allclose(dil.v.conj().T @ dil.v, np.eye(2), atol=1e-10)
    # zero operators drop out, at any scale of the others
    padded = CpMap(2, 2, k + [np.zeros((2, 2))] * 2)
    assert minimal_dilation(padded).m == 2
    assert minimal_dilation(padded.rescaled(1e-30)).m == 2
    assert minimal_dilation(CpMap(2, 2, [np.zeros((2, 2))] * 3)).m == 0
    assert minimal_dilation(CpMap(2, 2, [])).m == 0


def test_minimal_dilation_is_deterministic():
    t = random_channel(2, 3, 2, seed=53)
    a = minimal_dilation(t)
    b = minimal_dilation(t)
    assert np.array_equal(a.v, b.v)


def test_verify_dilation_catches_wrong_map():
    t = random_channel(2, 2, 2, seed=54)
    s = random_channel(2, 2, 2, seed=55)
    dil = minimal_dilation(t)
    assert verify_dilation(dil, t) < 1e-12
    assert verify_dilation(dil, s) > 1e-3


def test_padded_preserves_map():
    t = random_channel(2, 2, 2, seed=56)
    dil = minimal_dilation(t).padded(3)
    assert dil.m == 5
    assert verify_dilation(dil, t) < 1e-12


def test_contraction_defect():
    rng = np.random.default_rng(57)
    c = random_contraction(rng, 3, 2)
    defect = c.defect()
    gram = c.w.conj().T @ c.w + defect @ defect
    assert np.allclose(gram, np.eye(2), atol=1e-10)
    with pytest.raises(ValueError):
        Contraction(1.5 * np.eye(2))


def test_intertwiner_recovers_embedding():
    t = random_channel(2, 3, 2, seed=58)
    minimal = minimal_dilation(t)
    bigger = minimal.padded(2)
    u = intertwiner_from_minimal(minimal, bigger)
    assert u.shape == (bigger.m, minimal.m)
    assert np.allclose(u.conj().T @ u, np.eye(minimal.m), atol=1e-10)
    # (1 ⊗ u) V̂ reproduces the padded operator
    lifted = dilation_from_kraus(np.einsum("ij,jab->iab", u, minimal.kraus), 2, 3)
    assert np.allclose(lifted.v, bigger.v, atol=1e-10)


def test_intertwiner_rejects_different_maps():
    t = random_channel(2, 2, 2, seed=59)
    s = random_channel(2, 2, 2, seed=60)
    with pytest.raises(ValueError):
        intertwiner_from_minimal(minimal_dilation(t), minimal_dilation(s))


@pytest.mark.parametrize("case", ["quarter", "zero slots", "tiny scale"])
def test_intertwiner_rejects_dilations_of_other_maps(case):
    # The span of the Kraus family alone does not fix the map: T/4 and the
    # zero map fit the span of T exactly, so the intertwiner must be an
    # isometry; and at tiny scales the residual must be read relative.
    t = random_channel(2, 2, 2, seed=1)
    other = {
        "quarter": lambda: minimal_dilation(t.rescaled(0.25)),
        "zero slots": lambda: Dilation(2, 2, 3, np.zeros((6, 2))),
        "tiny scale": lambda: minimal_dilation(
            random_channel(2, 2, 2, seed=2).rescaled(1e-12)),
    }[case]()
    mine = minimal_dilation(t.rescaled(1e-12) if case == "tiny scale" else t)
    with pytest.raises(ValueError, match="do not dilate the same map"):
        intertwiner_from_minimal(mine, other)
    # the map's own padded dilation still passes, at every scale
    u = intertwiner_from_minimal(mine, mine.padded(2))
    assert operator_norm(u.conj().T @ u - np.eye(mine.m)) <= 1e-12


def test_intertwiner_checks_spaces_and_zero_maps():
    t = random_channel(2, 2, 2, seed=61)
    with pytest.raises(ValueError, match="different spaces"):
        intertwiner_from_minimal(minimal_dilation(t),
                                 minimal_dilation(random_channel(2, 3, 2, seed=62)))
    zero = Dilation(2, 2, 0, np.zeros((0, 2)))
    u = intertwiner_from_minimal(zero, zero.padded(3))
    assert u.shape == (3, 0)
    with pytest.raises(ValueError, match="zero vs nonzero"):
        intertwiner_from_minimal(zero, minimal_dilation(t))


def test_common_pair_dilates_both_maps():
    rng = np.random.default_rng(61)
    t1 = random_channel(2, 2, 2, seed=62)
    t2 = random_channel(2, 2, 3, seed=63)
    c = random_contraction(rng, 2, 3)
    d1, d2 = common_pair_from_contraction(
        minimal_dilation(t1), minimal_dilation(t2), c)
    assert d1.m == d2.m == 5
    assert verify_dilation(d1, t1) < 1e-10
    assert verify_dilation(d2, t2) < 1e-10


def test_common_pair_overlap_formula():
    # V1† V2 must equal sum_ij w_ij K̂i(1)† K̂j(2).
    rng = np.random.default_rng(64)
    t1 = random_channel(3, 2, 2, seed=65)
    t2 = random_channel(3, 2, 2, seed=66)
    c = random_contraction(rng, 2, 2)
    min1, min2 = minimal_dilation(t1), minimal_dilation(t2)
    d1, d2 = common_pair_from_contraction(min1, min2, c)
    k1 = min1.kraus
    k2 = min2.kraus
    want = np.zeros((2, 2), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            want += c.w[i, j] * k1[i].conj().T @ k2[j]
    assert np.allclose(d1.v.conj().T @ d2.v, want, atol=1e-10)


def test_common_pair_from_padded_dilations():
    # no minimality needed: any two dilations give a common pair of the maps
    rng = np.random.default_rng(70)
    t1 = random_channel(2, 3, 2, seed=79)
    t2 = random_channel(2, 3, 3, seed=80)
    dil1 = minimal_dilation(t1).padded(2)
    dil2 = minimal_dilation(t2).padded(2)
    c = random_contraction(rng, dil1.m, dil2.m)
    d1, d2 = common_pair_from_contraction(dil1, dil2, c)
    assert d1.m == d2.m == 4 + 5
    assert verify_dilation(d1, t1) <= 1e-8
    assert verify_dilation(d2, t2) <= 1e-8
    want = np.einsum("ij,iab,jac->bc", c.w, dil1.kraus.conj(), dil2.kraus)
    assert operator_norm(d1.v.conj().T @ d2.v - want) <= 1e-12


def test_common_pair_shape_guards():
    min1 = minimal_dilation(random_channel(2, 2, 2, seed=67))
    min2 = minimal_dilation(random_channel(2, 2, 3, seed=68))
    with pytest.raises(ValueError, match="contraction has shape"):
        common_pair_from_contraction(min1, min2, Contraction(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="dimension mismatch"):
        common_pair_from_contraction(
            min1, minimal_dilation(random_channel(3, 3, 2, seed=69)),
            Contraction(np.zeros((2, 2))))
    with pytest.raises(ValueError, match="dimension mismatch"):
        common_pair_from_contraction(
            min1, minimal_dilation(random_channel(2, 3, 2, seed=69)),
            Contraction(np.zeros((2, 2))))


def test_triangle_dilations_preserve_overlaps_and_maps():
    rng = np.random.default_rng(71)
    t1 = random_channel(2, 2, 2, seed=72)
    t2 = random_channel(2, 2, 2, seed=73)
    t3 = random_channel(2, 2, 3, seed=74)
    min1, min2, min3 = (minimal_dilation(t) for t in (t1, t2, t3))
    c12 = random_contraction(rng, 2, 2)
    c23 = random_contraction(rng, 2, 3)
    pair12 = common_pair_from_contraction(min1, min2, c12)
    pair23 = common_pair_from_contraction(min2, min3, c23)
    td1, td2, td3 = triangle_dilations(min1, min2, min3, c12, c23)
    assert td1.m == td2.m == td3.m == 2 + 2 + 3
    assert verify_dilation(td1, t1) < 1e-8
    assert verify_dilation(td2, t2) < 1e-8
    assert verify_dilation(td3, t3) < 1e-8
    ov12 = pair12[1].v.conj().T @ pair12[0].v
    ov23 = pair23[0].v.conj().T @ pair23[1].v
    assert np.allclose(td2.v.conj().T @ td1.v, ov12, atol=1e-8)
    assert np.allclose(td2.v.conj().T @ td3.v, ov23, atol=1e-8)
    # triangle inequality of the spliced representation
    d13 = operator_norm(td1.v - td3.v)
    d12 = operator_norm(pair12[0].v - pair12[1].v)
    d23 = operator_norm(pair23[0].v - pair23[1].v)
    assert d13 <= d12 + d23 + 1e-10


def test_triangle_dilations_validate_inputs():
    rng = np.random.default_rng(75)
    mins = [minimal_dilation(random_channel(2, 2, m, seed=76 + m))
            for m in (1, 2, 3)]
    c12 = random_contraction(rng, 1, 2)
    c23 = random_contraction(rng, 2, 3)
    assert triangle_dilations(*mins, c12, c23)[0].m == 6
    with pytest.raises(ValueError, match=r"c12 has shape \(2, 1\), expected \(1, 2\)"):
        triangle_dilations(*mins, Contraction(c12.w.T), c23)
    with pytest.raises(ValueError, match=r"c23 has shape \(3, 2\), expected \(2, 3\)"):
        triangle_dilations(*mins, c12, Contraction(c23.w.T))
    with pytest.raises(ValueError, match="min3 acts between different spaces"):
        triangle_dilations(*mins[:2], minimal_dilation(random_channel(2, 3, 2, seed=78)),
                           c12, c23)


@pytest.mark.parametrize("scale", [1e-12, 1e8])
def test_triangle_dilations_at_extreme_scales(scale):
    # Residuals and overlaps scale with T(1): relative accuracy holds at
    # every scale, with no absolute gate in the way.
    for seed in range(3):
        maps = [random_channel(2, 2, 2, seed=90 + 3 * seed + k).rescaled(scale)
                for k in range(3)]
        mins = [minimal_dilation(t) for t in maps]
        r12, r23 = bures(mins[0], mins[1]), bures(mins[1], mins[2])
        tri = triangle_dilations(*mins, r12.contraction, r23.contraction)
        for dil, t in zip(tri, maps):
            assert verify_dilation(dil, t) <= 1e-12 * scale
        ov12 = tri[1].v.conj().T @ tri[0].v - r12.pair[1].v.conj().T @ r12.pair[0].v
        ov23 = tri[1].v.conj().T @ tri[2].v - r23.pair[0].v.conj().T @ r23.pair[1].v
        assert operator_norm(ov12) <= 1e-12 * scale
        assert operator_norm(ov23) <= 1e-12 * scale


def test_identity_self_pair_with_unit_contraction():
    t = identity_channel(3)
    dil = minimal_dilation(t)
    d1, d2 = common_pair_from_contraction(dil, dil, Contraction(np.eye(1)))
    assert operator_norm(d1.v - d2.v) < 1e-12
