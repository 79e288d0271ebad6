from repro.netsim.rng import derive_rng, derive_seed, stable_unit_float


def test_derive_seed_stable():
    assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")


def test_derive_seed_depends_on_labels():
    assert derive_seed(42, "a") != derive_seed(42, "b")


def test_derive_seed_depends_on_root():
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_derive_seed_label_order_matters():
    assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")


def test_derive_seed_nonnegative_63bit():
    for seed in (0, 1, 2**31, 12345):
        value = derive_seed(seed, "x")
        assert 0 <= value < 2**63


def test_label_path_is_unambiguous():
    # ("ab", "c") must differ from ("a", "bc").
    assert derive_seed(42, "ab", "c") != derive_seed(42, "a", "bc")


def test_derive_rng_streams_independent():
    a = derive_rng(42, "stream-a")
    b = derive_rng(42, "stream-b")
    assert a.random() != b.random()


def test_derive_rng_reproducible():
    assert derive_rng(42, "s").random() == derive_rng(42, "s").random()


def test_stable_unit_float_in_range():
    for label in ("x", "y", "z"):
        value = stable_unit_float(7, label)
        assert 0.0 <= value < 1.0


def test_stable_unit_float_stable():
    assert stable_unit_float(7, "pair", "1", "2") == stable_unit_float(7, "pair", "1", "2")


def test_seed_hasher_prefix_continues_derive_seed():
    from repro.netsim.rng import hashed_seed, seed_hasher, unit_float

    prefix = seed_hasher(42, "stretch")
    for lo, hi in ((0, 1), (7, 300), (12345, 99999)):
        assert hashed_seed(prefix, str(lo), str(hi)) == derive_seed(42, "stretch", str(lo), str(hi))
        assert unit_float(hashed_seed(prefix, str(lo), str(hi))) == stable_unit_float(
            42, "stretch", str(lo), str(hi)
        )
    # The prefix is copied, never advanced.
    assert hashed_seed(prefix) == derive_seed(42, "stretch")
