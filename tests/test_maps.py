import numpy as np
import pytest

from cpdist.dilations import minimal_dilation
from cpdist.maps import (
    CpMap,
    HermMap,
    choi_from_kraus,
    compose,
    depolarizing_channel,
    difference,
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
    rebuilt = choi_from_kraus(back, 2, 3)
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
