"""`Account` and `SignedAccount` share one check where they are built: a
valid name, a `Side` role and a balance of their book's type, so a wrong
value fails there and not later inside a `Ledger` or a report."""

import re
from dataclasses import replace

import pytest

import support
from pacioli import (
    Account,
    IntVec,
    LedgerError,
    NatVec,
    Side,
    SignedAccount,
    TTerm,
)

T_TERM = TTerm.zero(1)
SIGNED = IntVec.of(0)
HUGE = 10 ** (support.DIGIT_LIMIT + 1)  # one digit past the int/str limit


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: Account("A", Side.DR, 5),
            "account 'A': balance 5 is not of type TTerm",
        ),
        (
            lambda: Account("A", Side.CR, IntVec.of(5)),
            "account 'A': balance IntVec(components=(5,)) is not of type TTerm",
        ),
        (
            lambda: SignedAccount("A", Side.DR, 5),
            "account 'A': balance 5 is not of type IntVec",
        ),
        (
            lambda: SignedAccount("A", Side.DR, NatVec.of(5)),
            "account 'A': balance NatVec(components=(5,)) is not of type IntVec",
        ),
        (
            lambda: SignedAccount("A", Side.CR, T_TERM),
            "account 'A': balance TTerm(debit=NatVec(components=(0,)), "
            "credit=NatVec(components=(0,))) is not of type IntVec",
        ),
        (lambda: SignedAccount(5, Side.DR, SIGNED), "account name 5 is not a str"),
        (
            lambda: SignedAccount("A", "dr", SIGNED),
            "account 'A': role 'dr' is not a Side",
        ),
        (
            lambda: SignedAccount("A", None, SIGNED),
            "account 'A': role None is not a Side",
        ),
        # An int past the int/str digit limit has no repr: its type is named.
        pytest.param(
            lambda: Account("A", HUGE, T_TERM),
            "account 'A': role <int> is not a Side",
            marks=support.needs_digit_limit,
        ),
        pytest.param(
            lambda: Account("A", Side.DR, HUGE),
            "account 'A': balance <int> is not of type TTerm",
            marks=support.needs_digit_limit,
        ),
        pytest.param(
            lambda: SignedAccount("A", Side.DR, HUGE),
            "account 'A': balance <int> is not of type IntVec",
            marks=support.needs_digit_limit,
        ),
    ],
    ids=[
        "int-in-account",
        "intvec-in-account",
        "int-in-signed",
        "natvec-in-signed",
        "tterm-in-signed",
        "signed-name",
        "signed-role-str",
        "signed-role-none",
        "huge-role-in-account",
        "huge-in-account",
        "huge-in-signed",
    ],
)
def test_an_account_field_of_the_wrong_type_is_a_type_error(build, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        build()


def test_a_signed_account_name_is_checked_as_an_account_name():
    # The name comes first: "a b" is refused before its role and balance.
    with pytest.raises(LedgerError, match=re.escape("invalid account name 'a b'")):
        SignedAccount("a b", "dr", 5)
    for name in ("", "#x", "a\tb"):
        with pytest.raises(LedgerError, match="invalid account name"):
            SignedAccount(name, Side.DR, SIGNED)


def test_replace_checks_the_new_balance():
    account = Account("A", Side.DR, T_TERM)
    signed = SignedAccount("A", Side.DR, SIGNED)
    assert replace(account, balance=TTerm.zero(2)).balance == TTerm.zero(2)
    assert replace(signed, balance=IntVec.of(-3)).balance == IntVec.of(-3)
    with pytest.raises(TypeError, match="is not of type TTerm"):
        replace(account, balance=SIGNED)
    with pytest.raises(TypeError, match="is not of type IntVec"):
        replace(signed, balance=T_TERM)

