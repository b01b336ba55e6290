"""A closed-form oracle for `coefficient_of` that uses neither engine's
search: the even-minus-odd count of Latin squares."""

from itertools import permutations

import pytest

from alontarsi import coefficient_of, complete_bipartite, line_graph


def _permutation_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def latin_square_parity(n: int) -> tuple[int, int]:
    """(even, odd) Latin squares of order n, by brute force.  A square's
    sign is the product of the signs of its rows and columns, each read as
    a permutation."""
    even = odd = 0

    def rec(rows):
        nonlocal even, odd
        if len(rows) == n:
            sign = 1
            for line in rows + list(zip(*rows)):
                sign *= _permutation_sign(line)
            if sign > 0:
                even += 1
            else:
                odd += 1
            return
        for row in permutations(range(n)):
            if all(row[j] != r[j] for r in rows for j in range(n)):
                rec(rows + [row])

    rec([])
    return even, odd


class TestLatinSquareIdentity:
    """Alon & Tarsi (1992): in the graph polynomial of L(K_{n,n}), the
    coefficient of prod x^(n-1) is ELS(n) - OLS(n), the number of even
    Latin squares of order n minus the number of odd ones."""

    @pytest.mark.parametrize("n, even, odd", [(2, 2, 0), (3, 6, 6), (4, 576, 0)])
    def test_coefficient_is_even_minus_odd(self, n, even, odd):
        assert latin_square_parity(n) == (even, odd)
        lg = line_graph(complete_bipartite(n, n))
        assert coefficient_of(lg, (n - 1,) * (n * n)) == even - odd
