"""Metamorphic properties of a profile: maps that carry no information leave it be.

Over small random zoos, ``dataset_diversity`` then ``dataset_correlation``:

- profiling with one domain removed leaves every remaining pair bit-identical,
  since each domain's fit and threshold read only that domain's rows;
- relabelling the classes leaves ``PairDiversity`` bit-identical, and
  ``PairCorrelation`` too with two classes. With three or more, a row's
  pseudo-probabilities and its calibrated gap are sums over the classes in
  class order, so ``f_cor`` follows the relabelling by rounding;
- reversing the domain order swaps each pair's sides: ``PairDiversity`` and
  the overlap counts exactly, ``f_cor`` within ``REORDER_TOL``, since the pair
  pools and averages the other side's overlap rows first.

``REORDER_TOL`` was measured before it was set: over 4000 random zoos of this
kind (2-4 domains, 20-150 rows, widths 1-8, 2-4 classes) the largest move of
``f_cor`` was 4.4e-16 under reversal and 3.3e-16 under relabelling.

Translation of an encoder's feature space is the known non-invariance of
``f_cor``, and it is not asserted here: the LogME readout has no intercept,
so shifting every domain by one vector changes the readouts and their gaps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftzoo.correlation_profile import dataset_correlation
from shiftzoo.feature_store import build_feature_set
from shiftzoo.gaussian_profile import dataset_diversity

REORDER_TOL = 1e-15

zoos = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n_domains": st.integers(3, 4),
        "n": st.integers(20, 120),
        "d": st.integers(1, 8),
        "n_classes": st.integers(2, 4),
        "ratio": st.sampled_from([0.2, 0.3, 0.5]),
        "split_seed": st.integers(0, 1000),
        "offset": st.sampled_from([0.0, 0.3, 1.0, 3.0]),
    }
)


def _domains(seed, n_domains, n, d, n_classes, offset, **_):
    """(domain_id, float32 rows, labels) triples; odd domains flip the class
    direction of the first coordinate, so pairs carry a correlation shift."""
    rng = np.random.default_rng(seed)
    out = []
    for e in range(n_domains):
        y = rng.integers(0, n_classes, size=n)
        x = rng.normal(size=(n, d)) + e * offset
        x[:, 0] += (y if e % 2 == 0 else n_classes - 1 - y) * rng.uniform(0.0, 2.0)
        out.append((f"dom{e}", x.astype(np.float32), y))
    return out


def _profile(domains, n_classes, ratio, split_seed, **_):
    sets = [
        build_feature_set(domain_id, x, y, dataset_name="meta", n_classes=n_classes,
                          split_ratio=ratio, seed=split_seed)
        for domain_id, x, y in domains
    ]
    _, div = dataset_diversity(sets)
    _, cor = dataset_correlation(sets, div, n_classes)
    return div, cor


def _assert_same_div(got, want, swapped=False):
    escapes = (want.escape_b, want.escape_a) if swapped else (want.escape_a, want.escape_b)
    assert np.array_equal(got.escape_a, escapes[0])
    assert np.array_equal(got.escape_b, escapes[1])
    assert got.f_div.hex() == want.f_div.hex()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(zoo=zoos, data=st.data())
def test_removing_a_domain_leaves_every_other_pair_bit_identical(zoo, data):
    domains = _domains(**zoo)
    div, cor = _profile(domains, **zoo)
    k = data.draw(st.integers(0, len(domains) - 1))
    div_less, cor_less = _profile(domains[:k] + domains[k + 1 :], **zoo)
    assert list(div_less) == [key for key in div if domains[k][0] not in key]
    for key in div_less:
        _assert_same_div(div_less[key], div[key])
        assert cor_less[key] == cor[key]
        assert cor_less[key].f_cor.hex() == cor[key].f_cor.hex()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(zoo=zoos, data=st.data())
def test_relabelling_the_classes_leaves_every_pair_as_it_was(zoo, data):
    domains = _domains(**zoo)
    div, cor = _profile(domains, **zoo)
    perm = np.array(data.draw(st.permutations(range(zoo["n_classes"]))))
    div_rel, cor_rel = _profile([(i, x, perm[y]) for i, x, y in domains], **zoo)
    assert list(div_rel) == list(div)
    for key in div:
        _assert_same_div(div_rel[key], div[key])
        got, want = cor_rel[key], cor[key]
        assert (got.n_overlap_a, got.n_overlap_b, got.empty_overlap) == (
            want.n_overlap_a, want.n_overlap_b, want.empty_overlap
        )
        if zoo["n_classes"] == 2:
            assert got.f_cor.hex() == want.f_cor.hex()
        else:
            assert abs(got.f_cor - want.f_cor) <= REORDER_TOL


@settings(max_examples=30, deadline=None, derandomize=True)
@given(zoo=zoos)
def test_reversing_the_domain_order_swaps_each_pairs_sides(zoo):
    domains = _domains(**zoo)
    div, cor = _profile(domains, **zoo)
    div_rev, cor_rev = _profile(domains[::-1], **zoo)
    assert sorted(div_rev) == sorted((b, a) for a, b in div)
    for a, b in div:
        _assert_same_div(div_rev[(b, a)], div[(a, b)], swapped=True)
        got, want = cor_rev[(b, a)], cor[(a, b)]
        assert (got.domain_a, got.domain_b) == (b, a)
        assert (got.n_overlap_a, got.n_overlap_b, got.empty_overlap) == (
            want.n_overlap_b, want.n_overlap_a, want.empty_overlap
        )
        assert abs(got.f_cor - want.f_cor) <= REORDER_TOL
