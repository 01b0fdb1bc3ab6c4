import random
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints.lattice import (DivisorClass, FatPointSpec, WeylWord,
                               apply_inverse, canonical_class, clamp_nonneg,
                               cremona_quad, decompose, intersection,
                               is_exceptional, reduce_fundamental)
from references import apply_word

classes = st.builds(
    DivisorClass,
    st.integers(min_value=-30, max_value=60),
    st.lists(st.integers(min_value=-12, max_value=12), min_size=0, max_size=9),
)


def test_intersection_examples():
    assert intersection(DivisorClass(1, (1, 1)), DivisorClass(1, (1, 0))) == 0
    k8 = canonical_class(8)
    assert intersection(k8, k8) == 1
    assert intersection(DivisorClass(1, (1, 1)), DivisorClass(1, (1, 1))) == -1


def test_intersection_pads_shorter_argument():
    f = DivisorClass(2, (1,))
    g = DivisorClass(3, (1, 5, 7))
    assert intersection(f, g) == 2 * 3 - 1


def test_self_intersection_consistency():
    f = DivisorClass(7, (3, 2, -1, 4))
    assert intersection(f, f) == 49 - (9 + 4 + 1 + 16)


def test_clamp_nonneg():
    assert clamp_nonneg(DivisorClass(3, (2, -1, 0))).mults == (2, 0, 0)
    f = DivisorClass(5, (4, 3))
    assert clamp_nonneg(f) == f
    assert clamp_nonneg(DivisorClass(0, (-1, -1, -1))) == DivisorClass(0, (0, 0, 0))


def test_cremona_quad_examples():
    assert cremona_quad(DivisorClass(3, (2, 2, 0))) == DivisorClass(2, (1, 1, -1))
    zero = DivisorClass(0, (0, 0, 0))
    assert cremona_quad(zero) == zero
    f = DivisorClass(7, (5, 1, 1, 4))
    assert cremona_quad(cremona_quad(f)) == f


def test_cremona_quad_pads_to_three():
    assert cremona_quad(DivisorClass(3, (2, 2))) == DivisorClass(2, (1, 1, -1))


@settings(max_examples=300)
@given(classes)
def test_quad_involution(f):
    assert cremona_quad(cremona_quad(f)) == f.padded(3)


@settings(max_examples=300)
@given(classes, classes)
def test_quad_isometry(f, g):
    n = max(len(f.mults), len(g.mults), 3)
    f, g = f.padded(n), g.padded(n)
    assert intersection(cremona_quad(f), cremona_quad(g)) == intersection(f, g)


@settings(max_examples=200)
@given(classes, classes)
def test_common_permutation_preserves_intersection(f, g):
    n = max(len(f.mults), len(g.mults))
    f, g = f.padded(n), g.padded(n)
    perm = tuple(sorted(range(n), key=lambda i: (-f.mults[i], i)))
    word = WeylWord((("perm", perm),))
    assert intersection(apply_word(word, f), apply_word(word, g)) == intersection(f, g)


def test_reduce_fundamental_examples():
    terminal, _ = reduce_fundamental(DivisorClass(3, (2, 2)))
    assert terminal == DivisorClass(2, (1, 1, -1))

    f = DivisorClass(5, (1, 1, 1))
    terminal, word = reduce_fundamental(f)
    assert terminal == f and not word.moves

    # (2; 1,1,1,1,1) takes two quadratic steps: (1; 1,1,0,0,0) still has
    # degree below the top-three sum, so the loop continues.
    terminal, word = reduce_fundamental(DivisorClass(2, (1, 1, 1, 1, 1)))
    assert terminal == DivisorClass(0, (0, 0, 0, 0, -1))
    assert apply_inverse(word, terminal) == DivisorClass(2, (1, 1, 1, 1, 1))


def test_reduce_terminal_condition():
    for f in [DivisorClass(10, (6, 5, 4, 3)), DivisorClass(4, (3, 3, 3)),
              DivisorClass(0, (2, 1)), DivisorClass(-2, (1, 1, 1))]:
        t, _ = reduce_fundamental(f)
        if t.degree >= 0:
            assert t.degree >= t.mults[0] + t.mults[1] + t.mults[2]
            assert all(t.mults[i] >= t.mults[i + 1] for i in range(len(t.mults) - 1))


def test_reduce_idempotent_on_output():
    for f in [DivisorClass(7, (4, 4, 4)), DivisorClass(12, (5, 5, 3, 3, 1))]:
        t, _ = reduce_fundamental(f)
        t2, word2 = reduce_fundamental(t)
        assert t2 == t and not word2.moves


def test_apply_inverse_examples():
    f = DivisorClass(4, (2, 1, 1))
    assert apply_inverse(WeylWord(), f) == f

    g = DivisorClass(3, (2, 2, 0))
    t, w = reduce_fundamental(g)
    assert apply_inverse(w, t) == g

    big = DivisorClass(179, (90, 80, 70, 60, 50, 40, 40, 40, 30, 20, 10))
    t, w = reduce_fundamental(big)
    assert apply_inverse(w, t) == big


def test_apply_inverse_length_mismatch():
    _, word = reduce_fundamental(DivisorClass(3, (2, 2, 1, 1)))
    with pytest.raises(ValueError):
        apply_inverse(word, DivisorClass(1, (1, 1)))


@settings(max_examples=300)
@given(classes)
def test_reduce_round_trip(f):
    terminal, word = reduce_fundamental(f)
    assert apply_inverse(word, terminal) == f.padded(3)
    assert apply_word(word, f.padded(3)) == terminal


def test_decompose_plain_interior_class():
    f = DivisorClass(9, (2, 2, 2))
    dec = decompose(f)
    assert dec.in_semigroup and dec.fixed_part == () and dec.moving_part == f


def test_decompose_exceptional_point_class():
    f = DivisorClass(0, (0, -1, 0))
    dec = decompose(f)
    assert dec.in_semigroup
    assert dec.moving_part == DivisorClass(0, (0, 0, 0))
    assert dec.fixed_part == ((f, 1),)


def test_decompose_membership_threshold():
    z90 = (90, 80, 70, 60, 50, 40, 40, 40, 30, 20, 10)
    assert decompose(DivisorClass(179, z90)).in_semigroup
    assert not decompose(DivisorClass(178, z90)).in_semigroup


def test_decompose_doubled_line():
    dec = decompose(DivisorClass(2, (2, 2)))
    assert dec.in_semigroup
    assert dec.fixed_part == ((DivisorClass(1, (1, 1, 0)), 2),)
    assert dec.moving_part == DivisorClass(0, (0, 0, 0))


def test_decompose_not_effective():
    assert not decompose(DivisorClass(1, (1, 1, 1))).in_semigroup
    assert not decompose(DivisorClass(-1, (0, 0, 0))).in_semigroup


@settings(max_examples=300)
@given(classes)
def test_decompose_invariants(f):
    dec = decompose(f)  # reconstruction and orthogonality checked internally
    if dec.in_semigroup:
        assert dec.reconstruct() == f.padded(max(3, len(f.mults)))
        for v, mult in dec.fixed_part:
            assert mult > 0 and is_exceptional(v)


def test_exceptional_recognition():
    assert is_exceptional(DivisorClass(1, (1, 1)))
    assert is_exceptional(DivisorClass(0, (-1, 0)))
    assert is_exceptional(DivisorClass(6, (3, 2, 2, 2, 2, 2, 2, 2)))
    assert not is_exceptional(DivisorClass(1, (1, 1, 1)))


def test_padding_never_changes_derived_quantities():
    # Zero slots can join the "three largest" and reroute the reduction,
    # so raw terminal coordinates may differ; everything derived from the
    # reduction (expected dimension, semigroup membership) may not.
    from fatpoints.hilbert import expected_dim
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(0, 7)
        f = DivisorClass(rng.randrange(-5, 20), [rng.randrange(-4, 8) for _ in range(n)])
        g = f.padded(n + 3)
        assert intersection(f, f) == intersection(g, g)
        assert expected_dim(f) == expected_dim(g)
        assert decompose(f).in_semigroup == decompose(g).in_semigroup


def test_fat_point_spec_validation():
    with pytest.raises(ValueError):
        FatPointSpec((1, -1))
    z = FatPointSpec((2, 2))
    assert z.divisor_class(3) == DivisorClass(3, (2, 2))
    assert z.n == 2 and z.positive == (2, 2)


_padded = st.integers(0, 3).map(lambda k: [0] * k)
_run_vectors = st.one_of(
    st.lists(st.integers(0, 12), max_size=30),
    st.builds(lambda m, n, pad: [m] * n + pad, st.integers(1, 12), st.integers(1, 20), _padded),
    st.builds(lambda m, a, b, gap, pad: [m + gap] * a + [m] * b + pad,
              st.integers(1, 12), st.integers(1, 10), st.integers(1, 10),
              st.sampled_from((1, 2, 97)), _padded),
).flatmap(st.permutations)


@settings(max_examples=300)
@given(_run_vectors)
@example([])
@example([0, 0])
def test_runs_group_the_positive_multiplicities(mults):
    # Zero-padded, empty, all equal, two adjacent values and two far
    # apart, in any order.
    runs = [(v, len(list(g))) for v, g in groupby(sorted((m for m in mults if m), reverse=True))]
    assert FatPointSpec(mults).runs == (tuple(v for v, _ in runs), tuple(c for _, c in runs))


def test_big_magnitudes_are_exact():
    # Degrees around 1e5 over 1e4 points stay exact (arbitrary precision).
    n = 10_000
    f = DivisorClass(100_000, (31,) * n)
    assert intersection(f, f) == 100_000 ** 2 - n * 31 ** 2
    t, _ = reduce_fundamental(f)
    assert t.degree >= t.mults[0] + t.mults[1] + t.mults[2]
