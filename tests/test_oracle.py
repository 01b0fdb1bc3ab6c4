import json
import random

import numpy as np
import pytest

from fatpoints.cli import main
from fatpoints.hilbert import expected_dim, hilbert_polynomial
from fatpoints.lattice import DivisorClass
from fatpoints.oracle import (MAX_PRIME, PointConfig, actual_hilbert, actual_nu,
                              hilbert_majority, nullspace_mod_p, nu_majority,
                              rank_mod_p)


def test_rank_mod_p_basics():
    p = 31991
    assert rank_mod_p(np.zeros((3, 4), dtype=np.int64), p) == 0
    assert rank_mod_p(np.eye(3, dtype=np.int64), p) == 3
    a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
    assert rank_mod_p(a, p) == 2
    # Rank depends on the field: this matrix drops rank mod 5.
    b = np.array([[1, 2], [3, 11]], dtype=np.int64)
    assert rank_mod_p(b, 5) == 1
    assert rank_mod_p(b, 7) == 2


def test_nullspace_mod_p():
    p = 101
    rng = random.Random(3)
    for _ in range(20):
        a = np.array([[rng.randrange(p) for _ in range(7)] for _ in range(4)],
                     dtype=np.int64)
        ns = nullspace_mod_p(a, p)
        assert ns.shape[0] == 7 - rank_mod_p(a, p)
        assert not (a @ ns.T % p).any()
        if ns.shape[0]:
            assert rank_mod_p(ns, p) == ns.shape[0]


def test_point_config_validation():
    with pytest.raises(ValueError):
        PointConfig(10, 0, ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        PointConfig(31991, 0, ((1, 2), (1, 2)))
    cfg = PointConfig.random(5, seed=1)
    assert len(set(cfg.points)) == 5
    assert cfg == PointConfig.random(5, seed=1)
    assert cfg != PointConfig.random(5, seed=2)


def test_degree_guards():
    cfg = PointConfig.random(1, seed=0, prime=13)
    with pytest.raises(ValueError):
        actual_hilbert(cfg, (1,), 13)
    with pytest.raises(ValueError):
        actual_hilbert(PointConfig.random(2, seed=0), (1,), 3)


def test_actual_hilbert_examples():
    cfg = PointConfig.random(1, seed=0)
    assert actual_hilbert(cfg, (2,), 1) == 0

    cfg5 = PointConfig.random(5, seed=0)
    assert actual_hilbert(cfg5, (1, 1, 1, 1, 1), 2) == 1

    cfg2 = PointConfig.random(2, seed=0)
    assert actual_hilbert(cfg2, (2, 2), 3) == 4


def test_actual_nu_examples():
    cfg5 = PointConfig.random(5, seed=0)
    assert actual_nu(cfg5, (3, 3, 3, 3, 3), 8) == 2

    cfg1 = PointConfig.random(1, seed=0)
    assert actual_nu(cfg1, (1,), 2) == 0

    cfg8 = PointConfig.random(8, seed=0)
    z = (4, 4, 4, 4, 4, 4, 4, 1)
    h11 = actual_hilbert(cfg8, z, 11)
    h12 = actual_hilbert(cfg8, z, 12)
    assert actual_nu(cfg8, z, 12) == h12 - 3 * h11 + 2


def test_actual_at_least_polynomial():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 7)
        z = [rng.randrange(0, 4) for _ in range(n)]
        cfg = PointConfig.random(n, seed=0)
        for t in range(0, 9):
            assert actual_hilbert(cfg, z, t) >= max(0, hilbert_polynomial(z, t))


def test_point_labeling_invariance():
    # Permuting the multiplicity list against fixed points changes which
    # point carries which multiplicity, but not the dimensions.
    z = (3, 1, 2, 1)
    cfg = PointConfig.random(4, seed=5)
    rng = random.Random(5)
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        zp = tuple(z[i] for i in perm)
        for t in range(0, 8):
            assert actual_hilbert(cfg, z, t) == actual_hilbert(cfg, zp, t)


def test_majority_vote_matches_expected():
    for z in [(2, 2), (3, 3, 3, 3, 3), (1,) * 9]:
        for t in range(0, 10):
            assert hilbert_majority(z, t) == expected_dim(DivisorClass(t, z))
    assert nu_majority((3, 3, 3, 3, 3), 8) == 2


def test_prime_override():
    cfg = PointConfig.random(2, seed=0, prime=32003)
    assert cfg.prime == 32003
    assert actual_hilbert(cfg, (2, 2), 3) == 4


def test_prime_above_int64_square_root_rejected(capsys):
    # 2^61 - 1 is prime, but products of its residues overflow int64; the
    # oracle used to print dim I_6 = 0 here instead of the true 1.
    assert MAX_PRIME == 3037000499
    code = main(["oracle", "--mults", "3,3,3,3,3", "--window", "6:9",
                 "--prime", "2305843009213693951"])
    err = capsys.readouterr().err
    assert code == 3 and "isqrt(2^63 - 1)" in err
    with pytest.raises(ValueError, match="overflow"):
        PointConfig.random(2, seed=0, prime=4294967311)
    with pytest.raises(ValueError, match="overflow"):
        rank_mod_p(np.eye(2, dtype=np.int64), 4294967311)


def test_prime_2_pow_31_minus_1_accepted(capsys):
    code = main(["oracle", "--mults", "3,3,3,3,3", "--window", "6:9",
                 "--prime", str(2**31 - 1), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["rows"][0] == [6, 1]


def test_more_points_than_the_affine_plane_holds(capsys):
    # F_2 has 4 affine points: a fifth distinct one cannot be drawn.
    assert main(["oracle", "--uniform", "5:1", "--prime", "2", "--t", "0"]) == 3
    assert "4 points of the affine plane" in capsys.readouterr().err
    assert main(["oracle", "--uniform", "4:1", "--prime", "2", "--t", "0",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [[0, 0]]
