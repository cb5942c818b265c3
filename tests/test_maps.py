import numpy as np
import pytest

from cpdist.dilations import minimal_dilation
from cpdist.maps import (
    CpMap,
    HermMap,
    compose,
    depolarizing_channel,
    difference,
    functional,
    identity_channel,
    random_channel,
    random_density,
    unitary_channel,
)
from cpdist.serialize import channel_from_dict, channel_to_dict

from oracles import loop_partial_trace_first


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def haar_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, d, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_choi_reproduces_action():
    # J(T) applied through index contraction must agree with the Kraus action.
    rng = np.random.default_rng(41)
    t = random_channel(3, 2, 2, seed=rng.integers(2**63))
    a = random_complex(rng, 3, 3)
    j4 = t.choi.reshape(3, 2, 3, 2)
    via_choi = np.einsum("ij,ikjl->kl", a, j4)
    assert np.allclose(via_choi, t.apply(a), atol=1e-12)


def test_choi_of_identity_is_maximally_entangled():
    t = identity_channel(3)
    vec = np.eye(3).reshape(-1)
    assert np.allclose(t.choi, np.outer(vec, vec), atol=1e-14)


def test_choi_kraus_round_trip():
    rng = np.random.default_rng(42)
    t = random_channel(2, 3, 4, seed=rng.integers(2**63))
    back = minimal_dilation(t).kraus
    rebuilt = CpMap(2, 3, back).choi
    assert np.allclose(rebuilt, t.choi, atol=1e-10)
    assert len(back) == np.linalg.matrix_rank(t.choi)


def test_cpmap_validates_shapes_and_cache():
    with pytest.raises(ValueError):
        CpMap(2, 2, [np.zeros((2, 3))])
    with pytest.raises(ValueError):
        CpMap(0, 2, [])
    t = identity_channel(2)
    assert "choi" not in vars(t)       # computed on first read, then kept
    assert t.choi is t.choi


def test_kraus_is_one_stack_whatever_the_input():
    # A list, a stack, a dilation's (non-contiguous) Kraus view and [] all
    # become one C-contiguous complex (m, d_in, d_out) array.
    t = random_channel(3, 2, 2, seed=46)
    dil = minimal_dilation(t)
    assert not dil.kraus.flags.c_contiguous
    for given, m in [(list(t.kraus), 2), (t.kraus, 2), (dil.kraus, dil.m),
                     ([], 0), (np.zeros((0, 3, 2)), 0)]:
        k = CpMap(3, 2, given).kraus
        assert k.shape == (m, 3, 2)
        assert k.dtype == np.complex128 and k.flags.c_contiguous
    assert CpMap(3, 2).kraus.shape == (0, 3, 2)
    assert np.array_equal(dil.map().kraus, dil.kraus)
    with pytest.raises(ValueError, match="expected \\(3, 2\\)"):
        CpMap(3, 2, [t.kraus[0], np.zeros((3, 3))])
    with pytest.raises(ValueError, match="expected \\(3, 2\\)"):
        CpMap(3, 2, np.zeros((2, 3, 3)))


def test_kraus_vectors_factor_the_choi_matrix():
    t = random_channel(2, 3, 4, seed=47)
    b = t.kraus_vectors
    assert b.shape == (6, 4)
    assert np.array_equal(b[:, 1], t.kraus[1].conj().ravel())
    assert np.allclose(b @ b.conj().T, t.choi, atol=1e-14)
    assert CpMap(2, 3).kraus_vectors.shape == (6, 0)


def test_unital_random_channel():
    for seed, (d, n, m) in zip((1, 2, 3), [(2, 2, 2), (3, 2, 4), (2, 4, 3)]):
        t = random_channel(d, n, m, seed=seed)
        assert t.is_unital()
        assert np.linalg.eigvalsh(t.choi)[0] >= -1e-12
        assert minimal_dilation(t).m == m


def test_random_channel_guards():
    with pytest.raises(ValueError):
        random_channel(2, 5, 2, seed=0)    # d*m < n
    with pytest.raises(ValueError):
        random_channel(2, 2, 5, seed=0)    # m > d*n


def test_random_channel_is_deterministic_in_seed():
    a = random_channel(2, 3, 2, seed=99)
    b = random_channel(2, 3, 2, seed=99)
    assert np.allclose(a.choi, b.choi)
    c = random_channel(2, 3, 2, seed=100)
    assert not np.allclose(a.choi, c.choi)


def test_unitary_channel_action():
    rng = np.random.default_rng(43)
    u = haar_unitary(rng, 3)
    t = unitary_channel(u)
    a = random_complex(rng, 3, 3)
    assert np.allclose(t.apply(a), u.conj().T @ a @ u, atol=1e-12)
    with pytest.raises(ValueError):
        unitary_channel(np.ones((2, 2)))


def test_depolarizing_channel_action():
    rng = np.random.default_rng(44)
    t = depolarizing_channel(3)
    a = random_complex(rng, 3, 3)
    want = np.trace(a) / 3 * np.eye(3)
    assert np.allclose(t.apply(a), want, atol=1e-12)
    assert t.is_unital()


def test_compose_action_and_dims():
    rng = np.random.default_rng(45)
    t = random_channel(3, 2, 2, seed=rng.integers(2**63))   # 3x3 -> 2x2
    s = random_channel(2, 4, 2, seed=rng.integers(2**63))   # 2x2 -> 4x4
    st = compose(s, t)
    assert (st.d_in, st.d_out) == (3, 4)
    a = random_complex(rng, 3, 3)
    assert np.allclose(st.apply(a), s.apply(t.apply(a)), atol=1e-12)
    with pytest.raises(ValueError):
        compose(t, s)


def test_difference_is_hermitian_map():
    t1 = random_channel(2, 2, 2, seed=7)
    t2 = random_channel(2, 2, 2, seed=8)
    f = difference(t1, t2)
    assert isinstance(f, HermMap)
    rng = np.random.default_rng(46)
    h = random_complex(rng, 2, 2)
    h = (h + h.conj().T) / 2
    out = f.apply(h)
    assert np.allclose(out, out.conj().T, atol=1e-12)
    assert np.allclose(out, t1.apply(h) - t2.apply(h), atol=1e-12)
    assert np.linalg.eigvalsh(f.choi)[0] < -1e-6   # generic differences are not cp
    with pytest.raises(ValueError):
        difference(t1, random_channel(3, 2, 2, seed=9))


def test_herm_map_refuses_malformed_factors():
    with pytest.raises(ValueError, match=r"factor has shape \(3, 2\), expected \(4, r\)"):
        HermMap(2, 2, np.zeros((3, 2)), [1, -1])
    with pytest.raises(ValueError, match=r"factor has shape \(4,\)"):
        HermMap(2, 2, np.zeros(4), [1])
    with pytest.raises(ValueError, match="3 signs for 2 columns"):
        HermMap(2, 2, np.zeros((4, 2)), [1, -1, 1])
    with pytest.raises(ValueError, match="signs must be"):
        HermMap(2, 2, np.zeros((4, 2)), [1, 0.5])
    f = HermMap(2, 3, np.zeros((6, 1)), [-1])
    assert np.array_equal(f.apply(np.eye(2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"argument has shape \(3, 3\), expected \(2, 2\)"):
        f.apply(np.eye(3))


def test_at_identity_partial_trace_consistency():
    # T(1) is also the partial trace of the Choi matrix over the domain factor.
    t = random_channel(3, 2, 3, seed=10)
    via_choi = loop_partial_trace_first(t.choi, 3, 2)
    assert np.allclose(t.at_identity(), via_choi, atol=1e-12)


def test_rescaled():
    t = random_channel(2, 2, 2, seed=11)
    s = t.rescaled(0.25)
    assert np.allclose(s.choi, 0.25 * t.choi, atol=1e-12)
    with pytest.raises(ValueError):
        t.rescaled(-1.0)


def test_functional_is_tr_rho_a_into_the_scalars():
    rng = np.random.default_rng(47)
    for dim, rank in ((2, None), (3, 1), (4, 2)):
        rho = random_density(dim, rng, rank=rank)
        f = functional(rho)
        assert (f.d_in, f.d_out) == (dim, 1)
        a = random_complex(rng, dim, dim)
        assert abs(f.apply(a)[0, 0] - np.trace(rho @ a)) < 1e-14
        # J = sum E_ij ⊗ tr(rho E_ij) = rho^T, and the Kraus rank is the rank
        assert np.abs(f.choi - rho.T).max() < 1e-15
        assert minimal_dilation(f).m == (rank or dim)
    with pytest.raises(ValueError, match="not psd"):
        functional(np.diag([1.0, -1e-6]))


def test_functional_gates_positivity_at_unit_scale():
    # eigenvalue roundoff grows with the trace; the gate does not refuse it,
    # and a negative eigenvalue is refused at every scale
    rng = np.random.default_rng(48)
    rho = random_density(3, rng, rank=2)
    for c in (1e-12, 1.0, 1e8):
        assert np.abs(functional(c * rho).choi - c * rho.T).max() <= 1e-15 * c
        with pytest.raises(ValueError, match="not psd"):
            functional(c * np.diag([1.0, -1e-6]))


def test_random_density_properties():
    rng = np.random.default_rng(47)
    rho = random_density(4, rng)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    low = random_density(4, rng, rank=1)
    w = np.linalg.eigvalsh(low)
    assert np.sum(w > 1e-12) == 1
    assert abs(np.trace(low).real - 1.0) < 1e-12


def test_channel_dict_round_trip():
    t = random_channel(2, 3, 2, seed=12)
    doc = channel_to_dict(t)
    assert doc["d_in"] == 2 and doc["d_out"] == 3
    back = channel_from_dict(doc)
    assert np.allclose(back.choi, t.choi, atol=1e-15)
    for k1, k2 in zip(back.kraus, t.kraus):
        assert np.allclose(k1, k2, atol=1e-15)


def test_channel_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        channel_from_dict([1, 2, 3])
    with pytest.raises(ValueError):
        channel_from_dict({"d_in": 2, "kraus": []})
    with pytest.raises(ValueError):
        channel_from_dict({"d_in": 2, "d_out": 2, "kraus": "nope"})
    with pytest.raises(ValueError):
        channel_from_dict(
            {"d_in": 2, "d_out": 2, "kraus": [[[[0.0], [0.0]], [[0.0], [0.0]]]]}
        )
