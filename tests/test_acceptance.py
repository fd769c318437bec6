"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact (integer arithmetic throughout); the
randomized criteria run on fixed seeds with at least 1000 instances each.
"""

import functools
import random
from fractions import Fraction as Q

import support
from pacioli import (
    Fraction,
    IntVec,
    NatVec,
    PriceVector,
    TTerm,
    build_table,
    consistency_check,
    decode_equation,
    journal_to_signed,
    net_changes,
    parse_journal,
    parse_ledger,
    post,
    reduce_ledger,
    render_ledger,
    signed_post,
    table_sums,
    to_signed,
    trial_balance,
    value_ledger,
)

nv = NatVec.of
iv = IntVec.of


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")

        return wrapper

    return decorate


@criterion(1, "scalar end-to-end")
def test_c1_scalar_end_to_end(scalar_ledger, scalar_journal):
    raw = post(scalar_ledger, scalar_journal)
    assert [acc.balance for acc in raw.accounts] == [
        TTerm(nv(16500), nv(2000)),
        TTerm(nv(800), nv(10000)),
        TTerm(nv(1200), nv(6500)),
    ]
    eq = decode_equation(reduce_ledger(raw))
    assert eq.lhs == (("Assets", iv(14500)),)
    assert eq.rhs == (("Liabilities", iv(9200)), ("Equity", iv(5300)))


@criterion(2, "vector end-to-end")
def test_c2_vector_end_to_end(vector_ledger, vector_journal):
    raw = post(vector_ledger, vector_journal)
    assert raw.account("Assets").balance == TTerm(nv(10500, 55, 50), nv(800, 15, 30))
    eq = decode_equation(reduce_ledger(raw))
    assert eq.lhs == (("Assets", iv(9700, 40, 20)),)
    assert eq.rhs == (
        ("Liabilities", iv(9200, 0, 0)),
        ("Equity", iv(500, 40, 20)),
    )


@criterion(3, "valuation collapse")
def test_c3_valuation_collapse(
    scalar_ledger, scalar_journal, vector_ledger, vector_journal
):
    prices = PriceVector.of(1, 100, 40)
    vector_ended = reduce_ledger(post(vector_ledger, vector_journal))
    scalar_ended = reduce_ledger(post(scalar_ledger, scalar_journal))
    assert value_ledger(vector_ended, prices, unit_name="usd") == scalar_ended
    assert value_ledger(vector_ledger, prices, unit_name="usd") == scalar_ledger


@criterion(4, "SSS equivalence, both examples + 1000 random instances")
def test_c4_sss_equivalence(
    scalar_ledger, scalar_journal, vector_ledger, vector_journal
):
    def square_commutes(ledger, journal):
        left = to_signed(post(ledger, journal))
        right = signed_post(to_signed(ledger), journal_to_signed(journal, ledger))
        return left == right

    assert square_commutes(scalar_ledger, scalar_journal)
    assert square_commutes(vector_ledger, vector_journal)
    rng = random.Random(20260810)
    for _ in range(1000):
        ledger = support.random_ledger(rng)  # dims 1-4, components 0-1000
        journal = support.random_journal(rng, ledger)
        assert square_commutes(ledger, journal)


@criterion(5, "transactions-table consistency")
def test_c5_matrix_consistency(scalar_ledger, scalar_journal):
    table = build_table(scalar_journal, scalar_ledger)
    expected_cells = {
        ("Assets", "Equity"): 1500,
        ("Liabilities", "Assets"): 800,
        ("Equity", "Assets"): 1200,
    }
    for debited in table.account_names:
        for credited in table.account_names:
            assert table.cell(debited, credited) == expected_cells.get(
                (debited, credited), 0
            )
    sums = table_sums(table)
    assert sums.row_sums == (1500, 800, 1200)
    assert sums.col_sums == (2000, 0, 1500)
    changes = net_changes(table, scalar_ledger)
    assert changes["Assets"] == -500
    assert 15000 + changes["Assets"] == 14500
    assert consistency_check(table, scalar_journal)
    rng = random.Random(1494)
    for _ in range(1000):
        ledger = support.random_ledger(rng, dim=1)
        journal = support.random_journal(rng, ledger, simple=True)
        t = build_table(journal, ledger)
        assert consistency_check(t, journal)


@criterion(6, "T-term algebra laws vs signed-integer oracle, 1000 instances")
def test_c6_algebra_laws():
    rng = random.Random(1837)
    for _ in range(1000):
        dim = rng.randint(1, 4)
        a = support.random_tterm(rng, dim)
        b = support.random_tterm(rng, dim)
        c = support.random_tterm(rng, dim)
        x = support.random_intvec(rng, dim)
        zero = TTerm.zero(dim)
        sa, sb = support.signed_of(a), support.signed_of(b)

        # group axioms
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert (a + -a).is_zero()

        # equality is the oracle's equality, and a congruence
        assert a.equivalent(b) == (sa == sb)
        pad = support.random_natvec(rng, dim, 100)
        padded = a + TTerm(pad, pad)
        assert padded.equivalent(a)
        assert (padded + c).equivalent(a + c)

        # canonical form: unique reduced representative
        assert a.reduced().is_reduced()
        assert a.reduced().reduced() == a.reduced()
        assert a.equivalent(b) == (a.reduced() == b.reduced())
        assert (a.reduced().debit.components, a.reduced().credit.components) == (
            support.jordan_signed(sa)
        )

        # the two signed decodings are additive homomorphisms
        assert support.signed_of(a + b) == support.add_signed(sa, sb)
        assert a.debit_balance().components == sa
        assert a.credit_balance().components == support.neg_signed(sa)
        assert (a.debit_balance() + b.debit_balance()) == (a + b).debit_balance()
        assert TTerm.from_debit_balance(a.debit_balance()).equivalent(a)
        assert TTerm.from_debit_balance(x).debit_balance() == x
        assert TTerm.from_credit_balance(x).credit_balance() == x

        # Jordan decomposition: the unique disjoint unsigned split
        pos, neg = x.jordan()
        assert (pos.components, neg.components) == support.jordan_signed(x.components)
        assert pos.to_signed() - neg.to_signed() == x
        assert pos.is_disjoint(neg)


@criterion(7, "fraction group vs exact-rational oracle, 1000 instances")
def test_c7_fraction_laws():
    assert Fraction(28, 35).reduced() == Fraction(4, 5)
    rng = random.Random(1202)
    for _ in range(1000):
        a = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        b = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        c = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        qa, qb = Q(a.numerator, a.denominator), Q(b.numerator, b.denominator)

        assert ((a * b) * c).equivalent(a * (b * c))
        assert (a * b).equivalent(b * a)
        assert a * Fraction.unit() == a
        assert (a * a.inverse()).equivalent(Fraction.unit())

        assert a.equivalent(b) == (qa == qb)  # cross-multiples == rational equality
        product = a * b
        assert Q(product.numerator, product.denominator) == qa * qb
        reduced = a.reduced()
        assert (reduced.numerator, reduced.denominator) == (qa.numerator, qa.denominator)
        assert a.equivalent(b) == (a.reduced() == b.reduced())


@criterion(8, "file-format round trip on both examples")
def test_c8_file_round_trip(tmp_path):
    for stem in ("scalar", "vector"):
        ledger_text = (support.DATA / f"{stem}.ledger").read_text()
        journal_text = (support.DATA / f"{stem}.journal").read_text()

        ledger = parse_ledger(ledger_text)
        assert trial_balance(ledger).balanced
        journal = parse_journal(journal_text)
        posted = post(ledger, journal)
        assert trial_balance(posted).balanced

        out_file = tmp_path / f"{stem}.ended.ledger"
        out_file.write_text(render_ledger(posted), encoding="utf-8")

        reparsed = parse_ledger(out_file.read_text(encoding="utf-8"))
        assert trial_balance(reparsed).balanced
        assert reparsed == reduce_ledger(posted)
        assert render_ledger(reparsed) == out_file.read_text(encoding="utf-8")
