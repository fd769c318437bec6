"""The SSS path is an independent implementation, so the commuting square
can see a fault in `post`'s netting.

`journal_to_signed` nets each entry in its own signed loop and reaches
`ledger._net` only for an entry that fails, to raise its `PostingError`.
"""

import pytest

import pacioli.ledger
import pacioli.sss
import support
from pacioli import (
    JournalEntry,
    NatVec,
    Posting,
    Side,
    journal_to_signed,
    post,
    signed_post,
    to_signed,
)
from pacioli.fileformat import _journal, parse_journal, parse_ledger

EXAMPLES = ("scalar", "vector")


def example(name: str):
    """The ledger and journal of ``tests/data/<name>.*``, and the journal's
    text."""
    ledger = parse_ledger((support.DATA / f"{name}.ledger").read_text(encoding="utf-8"))
    text = (support.DATA / f"{name}.journal").read_text(encoding="utf-8")
    return ledger, parse_journal(text), text


@pytest.mark.parametrize("name", EXAMPLES)
def test_the_square_sees_a_side_swap_in_posts_netting(monkeypatch, name):
    # `_net` with every posting's side swapped: each amount lands on the
    # wrong side, and every entry still balances.
    ledger, journal, _ = example(name)
    net = pacioli.ledger._net
    swap = {Side.DR: Side.CR, Side.CR: Side.DR}

    def swapped(i, description, postings, book, sums):
        flipped = [(account, swap[side], v) for account, side, v in postings]
        return net(i, description, flipped, book, sums)

    for module in (pacioli.ledger, pacioli.sss):
        monkeypatch.setattr(module, "_net", swapped, raising=False)
    left = to_signed(post(ledger, journal))
    right = signed_post(to_signed(ledger), journal_to_signed(journal, ledger))
    assert left != right


@pytest.mark.parametrize("name", EXAMPLES)
def test_journal_to_signed_routes_through_no_double_entry_code(monkeypatch, name):
    """With `post`, `validate_entry` and `_net` made to raise wherever
    `ledger` and `sss` look them up, `journal_to_signed` still builds the
    reference rows, from entries and from the grammar's rows alike."""
    ledger, journal, text = example(name)
    expected = support.reference_journal_to_signed(journal, ledger)
    rows = list(_journal(text))

    def refuse(*args, **kwargs):
        raise AssertionError("journal_to_signed reached the double-entry path")

    for module in (pacioli.ledger, pacioli.sss):
        for attr in ("post", "validate_entry", "_net"):
            monkeypatch.setattr(module, attr, refuse, raising=False)
    assert journal_to_signed(journal, ledger) == expected
    assert journal_to_signed(rows, ledger) == expected


def test_an_entry_refused_here_but_accepted_by_net_is_an_assertion_error(
    monkeypatch, scalar_ledger
):
    # `_net` is only asked for the `PostingError` of an entry that failed;
    # if it returns instead, the two netting loops disagree.
    entry = JournalEntry("lopsided", (Posting("Assets", Side.DR, NatVec.of(5)),))
    monkeypatch.setattr(pacioli.sss, "_net", lambda *args: None)
    with pytest.raises(AssertionError, match="entry 1: refused by this loop"):
        journal_to_signed([entry], scalar_ledger)
