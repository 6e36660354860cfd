import numpy as np
import pytest

from secantlines import gfpoly, oracle
from secantlines.field import DEFAULT_PRIME, is_prime
from secantlines.gfpoly import (
    _CACHED_INDEX_ENTRIES,
    SeedStream,
    cofactor_products,
    derive_seed,
    form_degree,
    monomial_multiples,
    multiply,
    num_monomials,
    product_index,
    random_form,
    x0_codegree,
)
from secantlines.partitions import Partition

P = DEFAULT_PRIME
ONE = np.ones(1, dtype=np.int64)


def exponents(degree):
    """Graded-lex order written out: x0-exponent descending, then x1-exponent."""
    return [
        (a, b, degree - a - b)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
    ]


def monomial(a, b, c):
    form = np.zeros(num_monomials(a + b + c), dtype=np.int64)
    form[exponents(a + b + c).index((a, b, c))] = 1
    return form


def x(i):
    exps = [0, 0, 0]
    exps[i] = 1
    return monomial(*exps)


def schoolbook(f, g, modulus):
    """Product by the definition, in Python ints: multiply every pair of terms."""
    m, n = form_degree(f), form_degree(g)
    position = {e: k for k, e in enumerate(exponents(m + n))}
    out = [0] * num_monomials(m + n)
    for (a1, b1, c1), fi in zip(exponents(m), f.tolist()):
        for (a2, b2, c2), gk in zip(exponents(n), g.tolist()):
            k = position[(a1 + a2, b1 + b2, c1 + c2)]
            out[k] = (out[k] + fi * gk) % modulus
    return out


def assert_forms_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


class TestPrimality:
    def test_known_primes(self):
        for n in (2, 3, 5, 101, 1_000_003, 2**31 - 1):
            assert is_prime(n)

    def test_known_composites(self):
        # 561 is a Carmichael number, a classic trap for weak tests
        for n in (0, 1, 561, 1_000_004, 10**12):
            assert not is_prime(n)

    def test_field_validation(self, monkeypatch):
        # `check_prime` is the one prime check of an in-process verify, and
        # it runs before any draw.
        with pytest.raises(ValueError, match="modulus 1000004 is not prime"):
            oracle.check_prime(3, 1_000_004)
        draws = []
        monkeypatch.setattr(oracle, "_draw_cofactors", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="modulus 4 is not prime"):
            oracle.verify(Partition([2, 1]), prime=4)
        assert draws == []


class TestMonomialIndex:
    def test_round_trip_all_degrees(self):
        # Every product of monomials lands where the written-out order puts it.
        for degree in range(13):
            for m in range(degree + 1):
                n = degree - m
                position = {e: k for k, e in enumerate(exponents(degree))}
                want = [
                    [position[(a1 + a2, b1 + b2, c1 + c2)] for a2, b2, c2 in exponents(n)]
                    for a1, b1, c1 in exponents(m)
                ]
                np.testing.assert_array_equal(product_index(m, n), want)

    def test_graded_lex_order(self):
        assert exponents(2) == [
            (2, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (0, 2, 0),
            (0, 1, 1),
            (0, 0, 2),
        ]
        # x0*x0 = x0^2 comes first, x2*x2 = x2^2 last
        np.testing.assert_array_equal(
            product_index(1, 1), [[0, 1, 2], [1, 3, 4], [2, 4, 5]]
        )
        for d in range(1, 31):
            positions = product_index(d, 0)[:, 0]
            assert positions[0] == 0 and positions[-1] == num_monomials(d) - 1

    def test_bijection_onto_positions_hit(self):
        for m, n in ((0, 7), (7, 0), (3, 4), (6, 1), (5, 5)):
            positions = product_index(m, n)
            assert positions.shape == (num_monomials(m), num_monomials(n))
            # multiplying by one monomial is injective ...
            for row in positions:
                assert len(set(row.tolist())) == len(row)
            # ... and every degree-(m+n) monomial is some product
            assert set(positions.ravel().tolist()) == set(range(num_monomials(m + n)))
        np.testing.assert_array_equal(product_index(0, 9)[0], np.arange(num_monomials(9)))

    def test_x0_codegree(self):
        for degree in range(13):
            want = [degree - a for a, _, _ in exponents(degree)]
            np.testing.assert_array_equal(x0_codegree(degree), want)

    def test_cached_grading_is_read_only(self):
        assert x0_codegree(5) is x0_codegree(5)
        with pytest.raises(ValueError):
            x0_codegree(5)[0] = 1
        # product_index caches small tables and hands out every table
        # read-only, so no caller can corrupt another's positions.
        assert product_index(2, 3) is product_index(2, 3)
        big = product_index(30, 30)
        assert big.size > _CACHED_INDEX_ENTRIES
        assert big is not product_index(30, 30)
        for positions in (product_index(2, 3), big):
            with pytest.raises(ValueError):
                positions[0, 0] = -1

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            product_index(-1, 2)
        with pytest.raises(ValueError):
            product_index(2, -1)


class TestForm:
    def test_length_checked(self):
        for length in (0, 2, 4, 5, 7):
            with pytest.raises(ValueError):
                form_degree(np.zeros(length, dtype=np.int64))
        for degree in range(31):
            assert form_degree(np.zeros(num_monomials(degree), dtype=np.int64)) == degree

    def test_coefficients_normalized(self):
        form = np.array([-1, P, P + 2], dtype=np.int64)
        np.testing.assert_array_equal(multiply(form, ONE, P), [P - 1, 0, 2])

    def test_zero_one_monomial(self):
        assert not multiply(np.zeros(10, dtype=np.int64), random_form(P, 2, 3), P).any()
        np.testing.assert_array_equal(multiply(ONE, ONE, P), [1])
        assert x(0)[exponents(1).index((1, 0, 0))] == 1
        assert x(0)[exponents(1).index((0, 1, 0))] == 0


class TestRandomForm:
    def test_deterministic(self):
        np.testing.assert_array_equal(random_form(P, 2, 42), random_form(P, 2, 42))

    def test_seed_sensitivity(self):
        assert not np.array_equal(random_form(P, 2, 0), random_form(P, 2, 1))

    def test_shape_and_range(self):
        form = random_form(P, 3, 7)
        assert form.shape == (10,) and form.dtype == np.int64
        assert ((0 <= form) & (form < P)).all()

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            random_form(P, 0, 1)


class TestMultiply:
    def test_variables(self):
        np.testing.assert_array_equal(multiply(x(0), x(1), P), monomial(1, 1, 0))

    def test_identity(self):
        f = random_form(P, 3, 5)
        np.testing.assert_array_equal(multiply(f, ONE, P), f)

    def test_difference_of_squares(self):
        plus = np.array([1, 1, 0], dtype=np.int64)
        minus = np.array([1, P - 1, 0], dtype=np.int64)
        want = [1, 0, 0, P - 1, 0, 0]  # x0^2 - x1^2
        np.testing.assert_array_equal(multiply(plus, minus, P), want)

    def test_commutative_and_associative(self):
        f = random_form(P, 2, 11)
        g = random_form(P, 3, 12)
        h = random_form(P, 1, 13)
        np.testing.assert_array_equal(multiply(f, g, P), multiply(g, f, P))
        np.testing.assert_array_equal(
            multiply(multiply(f, g, P), h, P), multiply(f, multiply(g, h, P), P)
        )

    @pytest.mark.parametrize("m, n", [(1, 1), (4, 7), (12, 9)])
    def test_matches_schoolbook_at_largest_modulus(self, m, n):
        # Coefficients near 2**31 make every pairwise product near 2**62, where
        # a sum taken before reducing would overflow int64.
        modulus = 2**31 - 1
        f, g = random_form(modulus, m, 1), random_form(modulus, n, 2)
        assert multiply(f, g, modulus).tolist() == schoolbook(f, g, modulus)

    def test_degree_cap(self):
        # There is no cap on product degrees: degree 33 times degree 33 works.
        f = random_form(P, 33, 0)
        assert form_degree(multiply(f, f, P)) == 66


class TestCofactorProducts:
    def test_two_factors_swap(self):
        f1, f2 = random_form(P, 2, 1), random_form(P, 1, 2)
        assert_forms_equal(cofactor_products([f1, f2], P), [f2, f1])

    def test_three_factors(self):
        f1, f2, f3 = (random_form(P, deg, seed) for deg, seed in ((2, 1), (1, 2), (1, 3)))
        assert_forms_equal(
            cofactor_products([f1, f2, f3], P),
            [multiply(f2, f3, P), multiply(f1, f3, P), multiply(f1, f2, P)],
        )

    def test_degrees(self):
        factors = [random_form(P, deg, s) for s, deg in enumerate((2, 1, 1))]
        assert [form_degree(c) for c in cofactor_products(factors, P)] == [2, 3, 3]

    def test_product_reconstruction(self):
        factors = [random_form(P, deg, s) for s, deg in enumerate((3, 2, 2))]
        full = multiply(multiply(factors[0], factors[1], P), factors[2], P)
        for factor, cofactor in zip(factors, cofactor_products(factors, P)):
            np.testing.assert_array_equal(multiply(factor, cofactor, P), full)

    def test_product_degree_66(self):
        # Beyond the former cap of 64 on product degrees.
        factors = [random_form(P, deg, s) for s, deg in enumerate((33, 32, 1))]
        full = multiply(multiply(factors[0], factors[1], P), factors[2], P)
        cofactors = cofactor_products(factors, P)
        assert [form_degree(c) for c in cofactors] == [33, 34, 65]
        for factor, cofactor in zip(factors, cofactors):
            np.testing.assert_array_equal(multiply(factor, cofactor, P), full)

    @pytest.mark.parametrize(
        "degrees",
        [(2, 1), (2, 1, 1), (3, 2, 2, 1), (4, 3, 2, 2, 1)],
        ids=lambda degrees: f"r{len(degrees)}",
    )
    def test_each_output_omits_one_factor(self, monkeypatch, degrees):
        # Output i is the product of every factor but the i-th, built from
        # prefix and suffix products with 3r - 6 multiplications, none at r = 2.
        factors = [random_form(P, deg, seed) for seed, deg in enumerate(degrees)]
        want = []
        for i in range(len(factors)):
            others = factors[:i] + factors[i + 1 :]
            product = others[0] % P
            for factor in others[1:]:
                product = multiply(product, factor, P)
            want.append(product)
        calls = []

        def counted(f, g, modulus):
            calls.append(modulus)
            return multiply(f, g, modulus)

        monkeypatch.setattr(gfpoly, "multiply", counted)
        assert_forms_equal(cofactor_products(factors, P), want)
        assert len(calls) == 3 * len(factors) - 6

    @pytest.mark.parametrize("r", [2, 3])
    def test_outputs_are_reduced_new_arrays(self, r):
        # Unreduced inputs give reduced outputs, also at r = 2, where nothing
        # is multiplied; and writing to an output changes no input and no
        # other output.
        factors = [np.array([-1, P, P + 2], dtype=np.int64) + k for k in range(r)]
        inputs = [f.copy() for f in factors]
        cofactors = cofactor_products(factors, P)
        reduced = cofactor_products([f % P for f in factors], P)
        assert_forms_equal(cofactors, reduced)
        assert all(((0 <= c) & (c < P)).all() for c in cofactors)
        cofactors[0][:] = -7
        assert_forms_equal(factors, inputs)
        assert_forms_equal(cofactors[1:], reduced[1:])

    def test_too_few(self):
        with pytest.raises(ValueError):
            cofactor_products([random_form(P, 1, 0)], P)


class TestMonomialMultiples:
    def test_same_degree(self):
        f = random_form(P, 3, 9)
        np.testing.assert_array_equal(monomial_multiples(f, 3), [f])

    def test_variable_shifts(self):
        np.testing.assert_array_equal(
            monomial_multiples(x(0), 2),
            [monomial(2, 0, 0), monomial(1, 1, 0), monomial(1, 0, 1)],
        )

    def test_counts(self):
        f = random_form(P, 3, 4)
        got = monomial_multiples(f, 5)
        assert got.shape == (6, num_monomials(5))
        # row i is the i-th degree-2 monomial times f
        for row, (a, b, c) in zip(got, exponents(2)):
            np.testing.assert_array_equal(row, multiply(monomial(a, b, c), f, P))

    def test_written_into_given_rows(self):
        # The block written into chosen rows of a given array: row rows[k]
        # is the k-th multiple of the form, and the other rows stay zero.
        f = random_form(P, 2, 0)
        out = np.zeros((8, num_monomials(4)))
        rows = np.array([7, 0, 3, 5, 1, 6])
        assert monomial_multiples(f, 4, out, rows) is out
        np.testing.assert_array_equal(out[rows], monomial_multiples(f, 4))
        assert not out[[2, 4]].any()

    def test_chosen_monomials(self):
        # Only the products by the chosen monomials, in the order given,
        # from those rows of the product table alone.
        f = random_form(P, 2, 0)
        chosen = np.array([4, 0, 5])
        np.testing.assert_array_equal(
            monomial_multiples(f, 4, monomials=chosen), monomial_multiples(f, 4)[chosen]
        )
        # A small table is selected from the cache, a large one built in part.
        for m, n in ((2, 2), (30, 30)):
            np.testing.assert_array_equal(product_index(m, n, chosen), product_index(m, n)[chosen])

    def test_below_degree_is_empty(self):
        assert monomial_multiples(random_form(P, 3, 4), 2).shape == (0, num_monomials(2))


class TestSeeds:
    def test_stream_deterministic(self):
        a = [SeedStream(99).next_uint64() for _ in range(3)]
        b = [SeedStream(99).next_uint64() for _ in range(3)]
        assert a != [SeedStream(98).next_uint64() for _ in range(3)]
        assert a == b

    def test_derive_seed_tags(self):
        assert derive_seed(5, 0, 1) == derive_seed(5, 0, 1)
        assert derive_seed(5, 0, 1) != derive_seed(5, 1, 0)
        assert derive_seed(5) == 5  # no tags: the seed passes through
        assert derive_seed(DEFAULT_PRIME, 2) != DEFAULT_PRIME
