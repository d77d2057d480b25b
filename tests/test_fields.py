import random

import pytest
import sympy

from adjtorelli.fields import MR_BOUND, PrimeField, field_from_name, is_prime


@pytest.mark.parametrize("n, prime", [
    (561, False),  # Carmichael numbers
    (41041, False),
    (32003, True),
    (2 ** 31 - 1, True),
    (2 ** 61 - 1, True),
    (318665857834031151167461, False),  # strong pseudoprime to the bases 2..37
])
def test_primality_of_known_numbers(n, prime):
    assert is_prime(n) is prime


def test_the_bound_itself_is_composite_and_refused():
    assert not sympy.isprime(MR_BOUND)
    with pytest.raises(ValueError, match=str(MR_BOUND)):
        is_prime(MR_BOUND)


@pytest.mark.parametrize("modulus", [318665857834031151167461, 3317044064679887385961981,
                                     2 ** 89 - 1, 561])
def test_a_prime_field_refuses_a_composite_or_unproven_modulus(modulus):
    with pytest.raises(ValueError, match=str(modulus)):
        PrimeField(modulus)
    with pytest.raises(ValueError, match=str(modulus)):
        field_from_name(f"p:{modulus}")


def test_primality_agrees_with_sympy_below_10_to_the_5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == list(sympy.primerange(10 ** 5))


def test_primality_agrees_with_sympy_on_random_64_bit_numbers():
    rng = random.Random(64)
    for _ in range(5000):
        n = rng.getrandbits(64) | 1
        assert is_prime(n) == sympy.isprime(n), n
