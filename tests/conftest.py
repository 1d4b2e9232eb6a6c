from fractions import Fraction

import hypothesis
from hypothesis import strategies as st

hypothesis.settings.register_profile(
    "exact", deadline=None, max_examples=50,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("exact")


def bounded_fractions(bound: int, max_denominator: int):
    """Every Fraction p/q with |p/q| <= bound and 0 < q <= max_denominator,
    the values of st.fractions(-bound, bound, max_denominator), drawn as one
    pair of ints: st.fractions draws several times slower, enough to set
    the run time of the property tests.  p is folded into [-bound q,
    bound q], so it still shrinks towards 0 and q towards 1."""
    def fraction(pair):
        q, p = pair
        m = bound * q
        return Fraction((p + m) % (2 * m + 1) - m, q)

    m = bound * max_denominator
    return st.tuples(st.integers(1, max_denominator), st.integers(-m, m)).map(fraction)
