"""Tests for the synthetic dataset generators (Table VI equivalents)."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    DATASET_NAMES,
    TABLE_VI,
    load_dataset,
    powerlaw_graph,
    sparse_features,
)
from repro.datasets.synthetic import _endpoint_sampler, _zipf_weights
from repro.formats.density import density


class TestPowerlawGraph:
    def test_exact_edge_count_directed(self):
        a = powerlaw_graph(200, 1000, seed=1)
        assert a.nnz == 1000
        assert a.shape == (200, 200)

    def test_symmetric_doubles_nnz(self):
        a = powerlaw_graph(200, 500, seed=2, symmetric=True)
        assert a.nnz == 1000
        assert (a != a.T).nnz == 0

    def test_no_self_loops(self):
        a = powerlaw_graph(100, 400, seed=3)
        assert a.diagonal().sum() == 0

    def test_seeded_determinism(self):
        a1 = powerlaw_graph(100, 300, seed=4)
        a2 = powerlaw_graph(100, 300, seed=4)
        assert (a1 != a2).nnz == 0
        a3 = powerlaw_graph(100, 300, seed=5)
        assert (a1 != a3).nnz > 0

    def test_degree_skew(self):
        """Power-law generation should produce hub vertices."""
        a = powerlaw_graph(500, 3000, seed=6)
        deg = np.asarray(a.sum(axis=1)).ravel()
        assert deg.max() > 4 * deg.mean()

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_graph(10, 1000, seed=0)

    def test_tiny_graph_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_graph(1, 0)

    def test_nan_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent must be a number, got nan"):
            powerlaw_graph(10, 20, exponent=float("nan"))


class TestEndpointSampler:
    """The guide-table draw IS ``Generator.choice``: same vertices, same
    dtype, same generator state afterwards."""

    @given(
        v=st.integers(2, 20_000),
        exponent=st.floats(1.5, 3.0),
        size=st.integers(1, 100_000),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["zipf", "exact zeros", "one dominant vertex"]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equals_generator_choice(self, v, exponent, size, seed, shape):
        p = _zipf_weights(v, exponent, np.random.default_rng(seed))
        if shape == "exact zeros":
            p[::3] = 0.0
        elif shape == "one dominant vertex":
            p = np.full(v, 1e-12)
            p[v // 2] = 1.0
        p /= p.sum()
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _endpoint_sampler(p)(ours, size)
        want = numpys.choice(v, size=size, p=p)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == numpys.bit_generator.state


class TestSparseFeatures:
    @pytest.mark.parametrize("dens", [0.001, 0.01, 0.2])
    def test_sparse_path_exact_nnz(self, dens):
        h = sparse_features(300, 50, dens, seed=1)
        assert sp.issparse(h)
        assert h.nnz == int(round(dens * 300 * 50))

    @pytest.mark.parametrize("dens", [0.5, 0.9, 1.0])
    def test_dense_path_exact_nnz(self, dens):
        h = sparse_features(100, 40, dens, seed=2)
        assert isinstance(h, np.ndarray)
        assert np.count_nonzero(h) == int(round(dens * 100 * 40))

    def test_values_bounded_away_from_zero(self):
        h = sparse_features(100, 20, 0.1, seed=3)
        assert np.all(h.data >= 0.5) and np.all(h.data <= 1.5)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            sparse_features(10, 10, 1.5)


class TestCatalog:
    def test_all_six_datasets_defined(self):
        assert set(DATASET_NAMES) == {"CI", "CO", "PU", "FL", "NE", "RE"}

    def test_table_vi_statistics(self):
        # spot checks against the paper's Table VI
        assert TABLE_VI["CI"].vertices == 3327
        assert TABLE_VI["CO"].edges == 5429
        assert TABLE_VI["PU"].features == 500
        assert TABLE_VI["NE"].classes == 186
        assert TABLE_VI["RE"].h0_density == 1.0
        assert TABLE_VI["CI"].hidden_dim == 16
        assert TABLE_VI["FL"].hidden_dim == 128

    def test_full_scale_cora_matches_spec(self):
        data = load_dataset("CO", scale=1.0, seed=0)
        spec = TABLE_VI["CO"]
        assert data.num_vertices == spec.vertices
        # symmetric storage: ~2 |E| nonzeros
        assert data.num_edges == 2 * spec.edges
        assert data.h0.shape == (spec.vertices, spec.features)
        # adjacency density reproduces the paper's column (~0.14%)
        assert density(data.a) == pytest.approx(spec.a_density, rel=0.15)
        assert density(data.h0) == pytest.approx(spec.h0_density, rel=0.05)

    def test_scaled_dataset_shrinks(self):
        full = load_dataset("CO", scale=1.0)
        small = load_dataset("CO", scale=0.25)
        assert small.num_vertices == pytest.approx(full.num_vertices * 0.25, rel=0.02)
        assert small.num_edges < full.num_edges

    def test_feature_dim_override(self):
        data = load_dataset("NE", scale=0.05, feature_dim=128)
        assert data.num_features == 128
        assert density(data.h0) == pytest.approx(
            TABLE_VI["NE"].h0_density, rel=0.3
        )

    def test_meta(self):
        data = load_dataset("CI", scale=0.2)
        meta = data.meta()
        assert meta.num_vertices == data.num_vertices
        assert meta.num_edges == data.num_edges

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("OGBN")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("CO", scale=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"feature_dim": -3}, "feature_dim must be >= 1, got -3"),
        ({"feature_dim": 0}, "feature_dim must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_invalid_argument_is_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            load_dataset("CO", scale=0.05, **kwargs)

    def test_reddit_defaults_scaled(self):
        # ensure the default does not try to build the 110M-edge graph
        assert TABLE_VI["RE"].default_scale < 0.2


def matrix_digest(m) -> str:
    """sha256 over everything a consumer of a generated matrix can see:
    kind, shape, dtypes, format flags and the raw array bytes."""
    h = hashlib.sha256()
    if sp.issparse(m):
        parts = [m.indptr, m.indices, m.data]
        head = (m.format, m.shape, [str(p.dtype) for p in parts],
                bool(m.has_canonical_format), bool(m.has_sorted_indices))
    else:
        parts = [m]
        head = ("ndarray", m.shape, str(m.dtype), m.flags.c_contiguous)
    h.update(repr(head).encode())
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


#: the perf ledger's graphs plus one tiny cell per remaining dataset
GOLDEN_LOADS = (
    ("CO", None, None), ("CI", None, None), ("PU", 0.5, None),
    ("PU", 0.25, None), ("FL", 0.1, None), ("RE", 0.02, None),
    ("NE", 0.05, 128),
)
GOLDEN_SEEDS = (0, 1, 10_000)
#: direct generator calls; at the recorded commit (60, 3000) takes 11
#: rejection rounds, (60, 1500, symmetric) 7, the rest one round followed
#: by the exact-count subsample
GOLDEN_GRAPHS = (
    (200, 1000, dict(seed=1)),
    (500, 3000, dict(seed=6, symmetric=True)),
    (60, 3000, dict(seed=3)),
    (60, 1500, dict(seed=3, symmetric=True)),
    (2000, 2000, dict(seed=5, exponent=2.8)),
)
#: sparse path (one round; two rounds at 25x25 seed 31), dense path,
#: density 0 and 1
GOLDEN_FEATURES = (
    (300, 50, 0.01, 1), (300, 50, 0.3, 1), (25, 25, 0.333, 31),
    (100, 40, 0.5, 2), (100, 40, 0.9, 2), (50, 20, 0.0, 0), (50, 20, 1.0, 0),
)


def golden_cases():
    """``(key, thunk)`` for every golden digest; a thunk returns the
    matrices whose digests the table stores under ``key``."""
    for name, scale, fdim in GOLDEN_LOADS:
        for seed in GOLDEN_SEEDS:
            def load(name=name, scale=scale, fdim=fdim, seed=seed):
                data = load_dataset(name, scale=scale, seed=seed, feature_dim=fdim)
                return data.a, data.h0
            yield f"load/{name}@{scale or 1:g}/f{fdim or 0}/s{seed}", load
    for v, e, kw in GOLDEN_GRAPHS:
        tag = ",".join(f"{k}={val}" for k, val in sorted(kw.items()))
        yield f"graph/{v}/{e}/{tag}", lambda v=v, e=e, kw=kw: (powerlaw_graph(v, e, **kw),)
    for v, f, dens, seed in GOLDEN_FEATURES:
        yield (f"features/{v}x{f}/{dens:g}/s{seed}",
               lambda v=v, f=f, dens=dens, seed=seed: (sparse_features(v, f, dens, seed=seed),))


# Recorded with ``python tests/test_datasets.py`` at commit 0ddcee8, before
# the generators were rewritten for speed: any change to a digest means a
# generated graph changed, which no host-side optimisation may do.
GOLDEN_DIGESTS = {
    'load/CO@1/f0/s0': [
        'fc708bc4c40a786589013e60d431736a50132b31ade8dff4bf4b19162a396857',
        'dec71175cc1ad62095bda21ca7c66acc9210199197f2c416655d4ee122b4cbbd',
    ],
    'load/CO@1/f0/s1': [
        '6ccde6999154fe18288e16b19b27d264cdad14d7bd0b60d88f658fe653d8287d',
        '1ba544a5f026eaa84d74de845c8ff6c7da087c266c5476206a3a9aa857cc6963',
    ],
    'load/CO@1/f0/s10000': [
        '1be0d92e957146a827f2b502445896287851506d578bf29060ac93e0b75fcf2e',
        '0b5e40915fc9cc9f798588aaf34c3f0cdb8bd94947ce0fe8d448af38cedb0850',
    ],
    'load/CI@1/f0/s0': [
        '1ab0c6fb70129aaf1c48573154637a24491ed7fa3c1de2e601f0c2b275d03127',
        '3fb593ab9145a05a8f10405d5c65d57774fa45aea19f365f3d41d719e778f287',
    ],
    'load/CI@1/f0/s1': [
        'b85d2bc7f9ddd151a12f740e7c7b99e44e737e12fc5597e465075b4c5f462ae7',
        '13898ef2d16c4a5adea2d29d5b952d0b791f925aeca91f5c062f136865f64387',
    ],
    'load/CI@1/f0/s10000': [
        '94eb4f7468b20f7e3f9738004a42553cb4e9751f00132fd25bd61798eef0c459',
        'd2e4268621ed02f61550d66313edad2717c675e7415019f9eee83e306bcb70db',
    ],
    'load/PU@0.5/f0/s0': [
        '8eb8bb1f1e268bc8d0f6bb080f3529c37efd4bb9f58f1f184ffe23bf34cbd51e',
        'a192f38cd5f5a6248fcd67b9ebc10d4dbe9451a95d37f3d175c47db6824719fc',
    ],
    'load/PU@0.5/f0/s1': [
        '46724c65e5ed4b255ea9bb571bc0aafe1dd55692caa6987c5e88048588d1024a',
        '4fa0bad306213e53b54fd4bfdbf49842c616e6c53f65b0a9dc33b44818ef936d',
    ],
    'load/PU@0.5/f0/s10000': [
        '2a4f3be271902a5066bf8306689f1e21a35e59b525439f8534481dc3b2cbe57b',
        '038ed1cf02b2b28921d75bbddb7e0f7d4dcffaa2778fa43cd118b9310f9b2b7c',
    ],
    'load/PU@0.25/f0/s0': [
        'bc13a8ca1ca38827733202b166b2877f06519f3283e2e7a0d07ed5a5a3571026',
        'c0f63827d14e67a7eedb48a49a943312ff277460114b7bf86250b89918c69bce',
    ],
    'load/PU@0.25/f0/s1': [
        '0a2462137ff96a1d42595ed31b6d94dc5ece2ac9f34456a5617566de9b8c15d0',
        '121c4d9aa479486a7237fe5858021134c6425dfc732ff2ed252a4b089228dd78',
    ],
    'load/PU@0.25/f0/s10000': [
        '3a58c24a74a14ccdf0485a1749db797af9659bcbcd79ba9719c39fdde7f9c9c4',
        'af2040abf35dd3681e7672157099f9d44777c62dcf430283c8539db29415fe40',
    ],
    'load/FL@0.1/f0/s0': [
        '13d71df34ccb3696061ba3af6fecf17e0ec628821bfe6776ab11f9a2af617a0e',
        '00eb67e48286f8b1f537f0b39ad902f0dd3511e4e0580f5ebb0520c1ae589362',
    ],
    'load/FL@0.1/f0/s1': [
        '7d3f934d4b8a977d206e7a601edadbfa0fba8c80854232ba7df04a79c4ee29d0',
        '3b3fd61c2d288920195987426521eaa9f70657b8e948159327a0b411e87cb498',
    ],
    'load/FL@0.1/f0/s10000': [
        '764acc4800144abec625d0b6233d47376e45a0c202a681b27f7cbcc5b0e61c1f',
        '7bf29fb6706e1197b99148a0e97dbb09b9c8fa406d04cc04e24bcef25c25002c',
    ],
    'load/RE@0.02/f0/s0': [
        '61e5dfed38aadc4150a2242a8327a43640036527a5337e9aa958f5e68e2a314c',
        'fc9404db4b3e96bf62a8fd0cf6723fdb60d5ad6ef9b131ce258d636af99948de',
    ],
    'load/RE@0.02/f0/s1': [
        'de986b7cf26726e8a2ccd6a1a687133a2e68cd4a8a5e0456ffd316ce0be7dbc5',
        '559642b9f0ed6e0dc9dfb6593efdd359dd65a30d58544c0e89e1a8ca990fd611',
    ],
    'load/RE@0.02/f0/s10000': [
        'ec7ef903fe09139ea9023873fcbdf356dd9d9e84b3ae59da834ae77fa4d169e3',
        'aaa5b994e088e7b1038f3b3c7b1eb5f9a33f641079892f07e0d6862ecea66ec6',
    ],
    'load/NE@0.05/f128/s0': [
        'c2cd010118d7fdc41ece95098b7fedd7a5bf03c6934a2b423d7291b429c5a606',
        'b724d0572d1322ae09bd9843abffc00232a191e5c5ac930b78ed8851cf330047',
    ],
    'load/NE@0.05/f128/s1': [
        '195d186fd6f3a5d882a1e38fe88ad45f0e8eb29024144a65a979047c0bbc03a2',
        '3ee8b293d38a611e5ffe25ac45b45c5eccd24be4f9af8f208861132daff446b0',
    ],
    'load/NE@0.05/f128/s10000': [
        '589b9c0f8f9d7002c1decf199a10a194a123de608c38d0532a25f1e62aa3a4e3',
        '9e66664a63e49a014f625ad92cf75fc828c521767a15b719dd4fa9db74d75e7c',
    ],
    'graph/200/1000/seed=1': [
        'c7138838e144616a1e963ba323f3893e41a2094e38106b03e142efd9907a7c79',
    ],
    'graph/500/3000/seed=6,symmetric=True': [
        '4ad1198d38d017423f513f57094871e6c651180d23a39fc9f481415ba41b52eb',
    ],
    'graph/60/3000/seed=3': [
        '9efb075efef6c8fc9a0ed7e887cacf915e1d3399acfbb404cf1cd614e0f8162d',
    ],
    'graph/60/1500/seed=3,symmetric=True': [
        '8cd7c712896eb1ab9a44cd55af4f8c29756e4fcf00496b3ea2f013c3592b836d',
    ],
    'graph/2000/2000/exponent=2.8,seed=5': [
        '67ed49e562605b6296f13af3133d5a3d4a98e9b5532fe8c66082dae021d95648',
    ],
    'features/300x50/0.01/s1': [
        'f6a963bbb403c607da21a573b7e2351e0a9e516441f5ef9df4a1c15475aee571',
    ],
    'features/300x50/0.3/s1': [
        '32dc31469b31325ca1c872ce1d55324cbfe8dc28fb5c194b3fec0795591ab3e3',
    ],
    'features/25x25/0.333/s31': [
        'f451925d9a671e0ca674569fdb4350e131084d87a666bf57ac61895b025a5f28',
    ],
    'features/100x40/0.5/s2': [
        '1414923635c225745093395c86a8848b376826cd9c685268e49ab51b0e47abf3',
    ],
    'features/100x40/0.9/s2': [
        'fb23724696a71e799fa16ae8227c65ef08d9ff7ca7b8f7516503875d51cfebe4',
    ],
    'features/50x20/0/s0': [
        '678f4608ed8e54806081a9cdb71e464b86acc33ffd7583c205d83bf7cad15ce4',
    ],
    'features/50x20/1/s0': [
        '2c223ffd3c655408c013f00003e080ae7dce791b70a28a2c561fd824a9d8ecdf',
    ],
}


GOLDEN_CASES = dict(golden_cases())


class TestGoldenDigests:
    def test_table_is_complete(self):
        assert set(GOLDEN_DIGESTS) == set(GOLDEN_CASES)

    @pytest.mark.parametrize("key", GOLDEN_CASES)
    def test_bit_identical_to_recorded(self, key):
        assert [matrix_digest(m) for m in GOLDEN_CASES[key]()] == GOLDEN_DIGESTS[key]


if __name__ == "__main__":  # regenerate the table (only ever from a trusted commit)
    print("GOLDEN_DIGESTS = {")
    for key, thunk in GOLDEN_CASES.items():
        print(f"    {key!r}: [")
        for m in thunk():
            print(f"        {matrix_digest(m)!r},")
        print("    ],")
    print("}")
