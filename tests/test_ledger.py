"""The double-entry cycle: encode, validate, post, balance, reduce, decode,
close."""

import copy
import functools
import random
import re

import pytest
from hypothesis import given, strategies as st

import support
from pacioli import (
    Account,
    BalanceSheetEquation,
    DimensionMismatch,
    IntVec,
    JournalEntry,
    Ledger,
    LedgerError,
    NatVec,
    Posting,
    PostingError,
    Side,
    SignedAccount,
    SignedLedger,
    TTerm,
    build_table,
    close_nominal,
    decode_equation,
    encode_equation,
    journal_to_signed,
    post,
    reduce_ledger,
    render_ledger,
    trial_balance,
    validate_entry,
)

nv = NatVec.of
iv = IntVec.of


def tt(debit: int, credit: int) -> TTerm:
    return TTerm(nv(debit), nv(credit))


# --- encoding ---


def test_encode_scalar_equation(scalar_ledger):
    assert [acc.balance for acc in scalar_ledger.accounts] == [
        tt(15000, 0),
        tt(0, 10000),
        tt(0, 5000),
    ]
    assert [acc.role for acc in scalar_ledger.accounts] == [Side.DR, Side.CR, Side.CR]
    assert scalar_ledger.is_balanced()


def test_encode_vector_equation(vector_ledger):
    assert [acc.balance for acc in vector_ledger.accounts] == [
        TTerm(nv(9000, 40, 50), nv(0, 0, 0)),
        TTerm(nv(0, 0, 0), nv(10000, 0, 0)),
        TTerm(nv(1000, 0, 0), nv(0, 40, 50)),
    ]
    assert vector_ledger.is_balanced()


def test_encode_empty_equation():
    ledger = encode_equation(BalanceSheetEquation((), ()))
    assert ledger.accounts == ()
    assert ledger.is_balanced()
    assert trial_balance(ledger).balanced


def test_encode_equation_infers_its_dimension_and_units():
    empty = encode_equation(BalanceSheetEquation((), ()))
    assert (empty.dimension, empty.unit_names) == (1, ("u1",))
    eq = BalanceSheetEquation(lhs=(("A", iv(1, 2, 3)),), rhs=(("B", iv(1, 2, 3)),))
    ledger = encode_equation(eq)
    assert (ledger.dimension, ledger.unit_names) == (3, ("u1", "u2", "u3"))


def test_encode_rejects_unbalanced():
    eq = BalanceSheetEquation(lhs=(("A", iv(5)),), rhs=(("B", iv(4)),))
    with pytest.raises(LedgerError, match="balance"):
        encode_equation(eq)


def test_encode_rejects_duplicate_names():
    eq = BalanceSheetEquation(lhs=(("A", iv(5)),), rhs=(("A", iv(5)),))
    with pytest.raises(LedgerError, match="duplicate"):
        encode_equation(eq)


def test_encode_rejects_mixed_dimensions():
    eq = BalanceSheetEquation(lhs=(("A", iv(5, 0)),), rhs=(("B", iv(5)),))
    with pytest.raises(DimensionMismatch):
        encode_equation(eq)


def test_ledger_construction_errors():
    with pytest.raises(LedgerError):
        Ledger(1, ("usd", "eur"))
    with pytest.raises(LedgerError):
        Ledger(2, ("usd", "usd"))
    with pytest.raises(LedgerError):
        Ledger(1, ("usd",), (Account("A", Side.DR, tt(1, 0)),) * 2)
    with pytest.raises(DimensionMismatch):
        Ledger(2, ("a", "b"), (Account("A", Side.DR, tt(1, 0)),))
    with pytest.raises(LedgerError):
        Account("bad name", Side.DR, tt(0, 0))


@pytest.mark.parametrize("role", ["dr", "cr", None, 0])
def test_account_role_is_a_side(role):
    # A role of "dr" would be read as a credit: signed balance -5, and
    # `decode_equation` would leave the account out of both sides.
    with pytest.raises(TypeError, match=f"account 'A': role {role!r} is not a Side"):
        Account("A", role, tt(7, 2))


# A name or an account of the wrong type is refused where it is built, not
# met later as an `AttributeError` or as a wrong `is_balanced`.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Account(5, Side.DR, tt(0, 0)), "account name 5 is not a str"),
        (lambda: Ledger(1, (5,), ()), "unit name 5 is not a str"),
        (lambda: Ledger(1, ("u",), (1,)), "a Ledger holds Accounts, not 1"),
        (
            lambda: Ledger(1, ("u",), (SignedAccount("A", Side.DR, iv(-5)),)),
            "a Ledger holds Accounts, not SignedAccount(name='A'",
        ),
        (
            lambda: SignedLedger(1, ("u",), (Account("A", Side.DR, tt(0, 0)),)),
            "a SignedLedger holds SignedAccounts, not Account(name='A'",
        ),
    ],
    ids=["account-name", "unit-name", "int-account", "signed-in-ledger", "tterm-in-signed"],
)
def test_a_name_or_account_of_the_wrong_type_is_a_type_error(build, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        build()


def test_ledger_needs_a_positive_dimension():
    with pytest.raises(LedgerError, match="dimension must be >= 1, got 0"):
        Ledger(0, (), ())


@pytest.mark.parametrize(
    "role, encode",
    [(Side.DR, TTerm.from_debit_balance), (Side.CR, TTerm.from_credit_balance)],
    ids=["dr", "cr"],
)
@given(value=support.intvecs(), nominal=st.booleans())
def test_from_signed_inverts_signed_balance(role, encode, value, nominal):
    account = Account.from_signed("X", role, value, nominal)
    assert account.signed_balance() == value
    assert account.balance.is_reduced()
    assert account.balance == encode(value)
    assert (account.name, account.role, account.nominal) == ("X", role, nominal)


# --- validation ---


def test_validate_simple_transfer(scalar_ledger):
    entry = JournalEntry(
        "t1",
        (Posting("Assets", Side.CR, nv(1200)), Posting("Equity", Side.DR, nv(1200))),
    )
    report = validate_entry(entry, scalar_ledger)
    assert report.ok
    assert report.residual.is_zero()
    assert report.warnings == ()


def test_validate_unbalanced_entry(scalar_ledger):
    entry = JournalEntry(
        "bad",
        (Posting("Assets", Side.DR, nv(5)), Posting("Equity", Side.CR, nv(4))),
    )
    report = validate_entry(entry, scalar_ledger)
    assert not report.ok
    assert report.residual == tt(5, 4)
    assert "residual [5 // 4]" in report.problems()


def test_validate_vector_entry(vector_ledger):
    entry = JournalEntry(
        "t1",
        (
            Posting("Assets", Side.CR, nv(0, 0, 30)),
            Posting("Equity", Side.DR, nv(0, 0, 30)),
        ),
    )
    assert validate_entry(entry, vector_ledger).ok


def test_validate_unknown_account(scalar_ledger):
    entry = JournalEntry(
        "bad",
        (Posting("Nowhere", Side.DR, nv(5)), Posting("Equity", Side.CR, nv(5))),
    )
    report = validate_entry(entry, scalar_ledger)
    assert not report.ok
    assert report.unknown_accounts == ("Nowhere",)


def test_validate_dimension_mismatch(scalar_ledger):
    entry = JournalEntry(
        "bad",
        (Posting("Assets", Side.DR, nv(5, 5)), Posting("Equity", Side.CR, nv(5))),
    )
    report = validate_entry(entry, scalar_ledger)
    assert not report.ok
    assert report.dimension_mismatches == (0,)


def test_validate_same_account_both_sides_warns(scalar_ledger):
    entry = JournalEntry(
        "degenerate",
        (Posting("Assets", Side.DR, nv(5)), Posting("Assets", Side.CR, nv(5))),
    )
    report = validate_entry(entry, scalar_ledger)
    assert report.ok  # algebraically harmless
    assert any("Assets" in w for w in report.warnings)


# --- posting ---


def test_post_scalar_example(scalar_ledger, scalar_journal):
    ended = post(scalar_ledger, scalar_journal)
    assert [acc.balance for acc in ended.accounts] == [
        tt(16500, 2000),
        tt(800, 10000),
        tt(1200, 6500),
    ]
    assert ended.is_balanced()


def test_post_vector_example(vector_ledger, vector_journal):
    ended = post(vector_ledger, vector_journal)
    assert [acc.balance for acc in ended.accounts] == [
        TTerm(nv(10500, 55, 50), nv(800, 15, 30)),
        TTerm(nv(800, 0, 0), nv(10000, 0, 0)),
        TTerm(nv(1000, 15, 30), nv(1500, 55, 50)),
    ]
    assert ended.is_balanced()


def test_post_empty_journal(scalar_ledger):
    assert post(scalar_ledger, []) == scalar_ledger


def test_post_is_all_or_nothing(scalar_ledger):
    bad = JournalEntry(
        "bad", (Posting("Assets", Side.DR, nv(5)), Posting("Equity", Side.CR, nv(4)))
    )
    good = JournalEntry(
        "good", (Posting("Assets", Side.DR, nv(5)), Posting("Equity", Side.CR, nv(5)))
    )
    with pytest.raises(PostingError) as info:
        post(scalar_ledger, [good, bad])
    assert info.value.entry_index == 1
    assert not info.value.report.ok
    assert "residual" in str(info.value)


@pytest.mark.parametrize("side", ["dr", "cr", None, 1])
def test_a_side_that_is_not_a_side_is_refused(scalar_ledger, side):
    # Read as a credit, `side Assets 30` / `dr Equity 30` would post as
    # balanced and take 30 from both accounts.
    postings = [("Assets", side, (30,)), ("Equity", Side.DR, (30,))]
    rows = [("x", postings)]
    entry = JournalEntry("x", [Posting(a, s, NatVec(v)) for a, s, v in postings])
    message = re.escape(f"entry 'x', posting 1 ('Assets'): side {side!r} is not a Side")
    for refuse in (
        lambda: post(scalar_ledger, rows),
        lambda: journal_to_signed(rows, scalar_ledger),
        lambda: build_table(rows, scalar_ledger),
        lambda: validate_entry(entry, scalar_ledger),
    ):
        with pytest.raises(TypeError, match=message):
            refuse()


def test_post_order_insensitive_up_to_equality(scalar_ledger, scalar_journal):
    rng = random.Random(7)
    reference = post(scalar_ledger, scalar_journal)
    for _ in range(10):
        shuffled = scalar_journal[:]
        rng.shuffle(shuffled)
        again = post(scalar_ledger, shuffled)
        for name in scalar_ledger.names():
            assert again.account(name).balance.equivalent(
                reference.account(name).balance
            )


def test_post_preserves_zero_on_random_cases():
    rng = random.Random(11)
    for _ in range(50):
        ledger = support.random_ledger(rng)
        journal = support.random_journal(rng, ledger)
        assert ledger.is_balanced()
        posted = post(ledger, journal)
        assert posted.is_balanced()
        assert trial_balance(posted).balanced


def assert_unchanged(ledger, before, accounts):
    assert ledger == before
    assert ledger.accounts is accounts
    assert all(a is b for a, b in zip(ledger.accounts, accounts))


@given(st.data())
def test_post_matches_reference_fold(data):
    ledger = data.draw(support.ledgers())
    journal = data.draw(support.journals(ledger))
    before, accounts = copy.deepcopy(ledger), ledger.accounts
    expected = support.reference_post(ledger, journal)
    assert post(ledger, journal) == expected
    assert post(ledger, (e for e in journal)) == expected  # any iterable
    assert_unchanged(ledger, before, accounts)


@given(st.data())
def test_post_failure_matches_reference(data):
    ledger = data.draw(support.ledgers())
    journal = data.draw(support.journals(ledger))
    bad = data.draw(support.invalid_entries(ledger))
    journal.insert(data.draw(st.integers(0, len(journal))), bad)
    before, accounts = copy.deepcopy(ledger), ledger.accounts
    with pytest.raises(PostingError) as expected:
        support.reference_post(ledger, journal)
    with pytest.raises(PostingError) as got:
        post(ledger, iter(journal))
    assert got.value.entry_index == expected.value.entry_index
    assert str(got.value) == str(expected.value)
    assert got.value.report == expected.value.report
    assert_unchanged(ledger, before, accounts)


@given(st.data())
def test_validate_entry_matches_reference(data):
    ledger = data.draw(support.ledgers())
    entry = data.draw(
        st.one_of(support.valid_entries(ledger), support.invalid_entries(ledger))
    )
    assert validate_entry(entry, ledger) == support.reference_validate_entry(
        entry, ledger
    )


def test_account_lookup(scalar_ledger):
    assert scalar_ledger.has_account("Equity")
    assert not scalar_ledger.has_account("Nowhere")
    assert scalar_ledger.account("Liabilities") is scalar_ledger.accounts[1]
    with pytest.raises(LedgerError, match="unknown account 'Nowhere'"):
        scalar_ledger.account("Nowhere")


# --- trial balance ---


def test_trial_balance_vector_equation():
    eq = BalanceSheetEquation(
        lhs=(("x", iv(6, -3, 10)), ("y", iv(-2, 5, -2))),
        rhs=(("w", iv(4, 2, 8)),),
    )
    tb = trial_balance(encode_equation(eq))
    assert tb.debit_total == nv(6, 5, 10)
    assert tb.credit_total == nv(6, 5, 10)
    assert tb.balanced


def test_trial_balance_empty_ledger():
    tb = trial_balance(Ledger(2, ("a", "b")))
    assert tb.debit_total == nv(0, 0)
    assert tb.credit_total == nv(0, 0)
    assert tb.balanced


def test_trial_balance_unbalanced_ledger():
    ledger = Ledger(1, ("usd",), (Account("A", Side.DR, tt(7, 0)),))
    tb = trial_balance(ledger)
    assert (tb.debit_total, tb.credit_total) == (nv(7), nv(0))
    assert not tb.balanced


def test_trial_balance_iff_zero_sum():
    rng = random.Random(13)
    for _ in range(50):
        ledger = support.random_ledger(rng)
        assert trial_balance(ledger).balanced == ledger.total().is_zero()
        # break it and check the other direction
        broken = Ledger(
            ledger.dimension,
            ledger.unit_names,
            ledger.accounts
            + (Account("odd", Side.DR, TTerm(nv(*(1,) * ledger.dimension), NatVec.zeros(ledger.dimension))),),
        )
        assert not trial_balance(broken).balanced


@given(support.ledgers())
def test_total_is_the_fold_of_balances(ledger):
    empty = Ledger(ledger.dimension, ledger.unit_names)
    for case in (ledger, empty):
        zero = TTerm.zero(case.dimension)
        fold = functools.reduce(TTerm.__add__, (a.balance for a in case.accounts), zero)
        total = case.total()
        assert total == fold
        tb = trial_balance(case)
        assert (tb.debit_total, tb.credit_total) == (total.debit, total.credit)
        assert tb.balanced == case.is_balanced() == total.is_zero()


# --- reduction and decoding ---


def test_reduce_ledger_examples(scalar_ledger, scalar_journal):
    reduced = reduce_ledger(post(scalar_ledger, scalar_journal))
    assert [acc.balance for acc in reduced.accounts] == [
        tt(14500, 0),
        tt(0, 9200),
        tt(0, 5300),
    ]
    assert reduce_ledger(reduced) == reduced  # idempotent
    assert reduced.is_balanced()


def test_decode_scalar_example(scalar_ledger, scalar_journal):
    eq = decode_equation(reduce_ledger(post(scalar_ledger, scalar_journal)))
    assert eq.lhs == (("Assets", iv(14500)),)
    assert eq.rhs == (("Liabilities", iv(9200)), ("Equity", iv(5300)))
    assert eq.balances()


def test_decode_vector_example(vector_ledger, vector_journal):
    ended = reduce_ledger(post(vector_ledger, vector_journal))
    assert [acc.balance for acc in ended.accounts] == [
        TTerm(nv(9700, 40, 20), nv(0, 0, 0)),
        TTerm(nv(0, 0, 0), nv(9200, 0, 0)),
        TTerm(nv(0, 0, 0), nv(500, 40, 20)),
    ]
    eq = decode_equation(ended)
    assert eq.lhs == (("Assets", iv(9700, 40, 20)),)
    assert eq.rhs == (
        ("Liabilities", iv(9200, 0, 0)),
        ("Equity", iv(500, 40, 20)),
    )


def test_decode_empty_ledger():
    eq = decode_equation(Ledger(1, ("usd",)))
    assert eq.terms() == ()
    assert eq.balances()


@given(support.ledgers())
def test_decode_and_render_need_no_reduction(ledger):
    reduced = reduce_ledger(ledger)
    assert decode_equation(ledger) == decode_equation(reduced)
    assert render_ledger(ledger) == render_ledger(reduced)


def test_encode_decode_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        dim = rng.randint(1, 4)
        lhs_terms = [
            (f"L{i}", support.random_intvec(rng, dim)) for i in range(rng.randint(1, 3))
        ]
        rhs_head = [
            (f"R{i}", support.random_intvec(rng, dim)) for i in range(rng.randint(0, 2))
        ]
        balance = IntVec.total([v for _, v in lhs_terms], dim) - IntVec.total(
            [v for _, v in rhs_head], dim
        )
        eq = BalanceSheetEquation(tuple(lhs_terms), tuple(rhs_head + [("Rz", balance)]))
        assert eq.balances()
        assert decode_equation(encode_equation(eq)) == eq


# --- closing nominal accounts ---


def nominal_ledger() -> Ledger:
    return Ledger(
        1,
        ("usd",),
        (
            Account("Assets", Side.DR, tt(5300, 0)),
            Account("Equity", Side.CR, tt(0, 5000)),
            Account("Revenue", Side.CR, tt(0, 1500), nominal=True),
            Account("Expenses", Side.DR, tt(1200, 0), nominal=True),
        ),
    )


def test_close_nominal_example():
    ledger = nominal_ledger()
    assert ledger.is_balanced()
    closed, entries = close_nominal(ledger, "Equity")
    assert len(entries) == 2
    assert closed.account("Equity").balance == tt(1200, 6500)
    assert closed.account("Equity").balance.reduced() == tt(0, 5300)
    assert closed.account("Revenue").balance.is_zero()
    assert closed.account("Expenses").balance.is_zero()
    assert closed.is_balanced()


def test_close_without_nominals(scalar_ledger):
    closed, entries = close_nominal(scalar_ledger, "Equity")
    assert entries == []
    assert closed == scalar_ledger


def test_close_skips_zero_balance_nominal():
    ledger = Ledger(
        1,
        ("usd",),
        (
            Account("Equity", Side.CR, tt(0, 0)),
            Account("Revenue", Side.CR, tt(40, 40), nominal=True),
        ),
    )
    closed, entries = close_nominal(ledger, "Equity")
    assert entries == []
    assert closed == ledger


def test_close_vector_nominal_with_two_sided_balance():
    flows = TTerm(nv(0, 0, 30), nv(1500, 15, 0))  # reduced, both sides nonzero
    ledger = Ledger(
        3,
        ("cash", "widgets", "half-widgets"),
        (
            Account("Assets", Side.DR, TTerm.from_debit_balance(iv(1500, 15, -30))),
            Account("Equity", Side.CR, TTerm.zero(3)),
            Account("Flows", Side.CR, flows, nominal=True),
        ),
    )
    assert ledger.is_balanced()
    closed, entries = close_nominal(ledger, "Equity")
    assert len(entries) == 1 and len(entries[0].postings) == 4
    assert closed.account("Flows").balance.is_zero()
    assert closed.account("Equity").balance.equivalent(flows)
    assert closed.is_balanced()


def test_close_errors(scalar_ledger):
    with pytest.raises(LedgerError, match="unknown"):
        close_nominal(scalar_ledger, "Nowhere")
    with pytest.raises(LedgerError, match="credit"):
        close_nominal(scalar_ledger, "Assets")
    ledger = Ledger(
        1,
        ("usd",),
        (
            Account("Equity", Side.CR, tt(0, 0), nominal=True),
            Account("Assets", Side.DR, tt(0, 0)),
        ),
    )
    with pytest.raises(LedgerError, match="nominal"):
        close_nominal(ledger, "Equity")
