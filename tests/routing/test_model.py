"""Space accounting and the scheme contract."""

import enum

import numpy as np
import pytest

from repro.routing.model import SizedTable, aggregate_scheme_stats, words_of


def _words_of_reference(value):
    """The ``isinstance``-chain ``words_of``, frozen before its fast path."""
    if value is None or isinstance(value, bool):
        return 0
    if isinstance(value, (int, float, str)):
        return 1
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(_words_of_reference(item) for item in value)
    if isinstance(value, dict):
        return sum(
            _words_of_reference(k) + _words_of_reference(v)
            for k, v in value.items()
        )
    if hasattr(value, "words"):
        return int(value.words())
    raise TypeError(f"cannot size value of type {type(value)!r}")


class _Port(enum.IntEnum):
    UP = 3


class _Record:
    def words(self):
        return 7


class _Tagged(tuple):
    """A tuple subclass that also sizes itself (the tuple rule wins)."""

    def words(self):
        return 99


_PARITY_VALUES = [
    True, False, None, 0, -5, 2**70, 2.5, float("nan"), "", "tag",
    _Port.UP, np.float64(1.5), (True, None, _Port.UP, np.float64(2.0)),
    (), [], (1, (2, [3, "x"]), {4: (5, None)}), [(1, 2.0), (3, "y")],
    {1: 2, "k": [3, 4], (5, 6): {7: frozenset({8, 9})}},
    {1, 2, 3}, frozenset({(1, 2), "z"}), _Record(), (_Record(), 1),
    [_Record(), [_Record()]], {_Port.UP: _Record()}, _Tagged((1, 2)),
]


class TestWordsOf:
    def test_scalars(self):
        assert words_of(5) == 1
        assert words_of(2.5) == 1
        assert words_of("tag") == 1

    def test_none_and_bool_free(self):
        assert words_of(None) == 0
        assert words_of(True) == 0

    def test_containers(self):
        assert words_of((1, 2, 3)) == 3
        assert words_of([1, (2, 3)]) == 3
        assert words_of({1: 2, 3: (4, 5)}) == 5
        assert words_of(()) == 0

    def test_nested_none_free(self):
        assert words_of((1, None, 2)) == 2

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            words_of(object())

    def test_custom_words_protocol(self):
        class Thing:
            def words(self):
                return 7

        assert words_of(Thing()) == 7

    @pytest.mark.parametrize(
        "value", _PARITY_VALUES, ids=lambda v: type(v).__name__
    )
    def test_fast_path_matches_reference(self, value):
        assert words_of(value) == _words_of_reference(value)

    @pytest.mark.parametrize(
        "value", [np.int64(3), (1, np.int64(3)), [[np.int64(3)]]]
    )
    def test_numpy_int_rejected_like_reference(self, value):
        with pytest.raises(TypeError) as fast:
            words_of(value)
        with pytest.raises(TypeError) as ref:
            _words_of_reference(value)
        assert str(fast.value) == str(ref.value)


class TestSizedTable:
    def test_put_get_has(self):
        t = SizedTable(0)
        t.put("cat", 1, (10, 20))
        assert t.get("cat", 1) == (10, 20)
        assert t.has("cat", 1)
        assert not t.has("cat", 2)
        assert t.get("missing", 1) is None
        assert t.get("cat", 9, default="x") == "x"

    def test_overwrite(self):
        t = SizedTable(0)
        t.put("cat", 1, 5)
        t.put("cat", 1, 6)
        assert t.get("cat", 1) == 6
        assert t.total_words() == 2  # key + value

    def test_words_by_category(self):
        t = SizedTable(0)
        t.put("a", 1, (2, 3))       # 1 + 2 = 3 words
        t.put("b", "k", [1, 2, 3])  # 1 + 3 = 4 words
        by_cat = t.words_by_category()
        assert by_cat == {"a": 3, "b": 4}
        assert t.total_words() == 7

    def test_categories_listing(self):
        t = SizedTable(3)
        t.put("x", 0, 0)
        t.put("y", 0, 0)
        assert set(t.categories()) == {"x", "y"}
        assert t.owner == 3

    def test_category_raw_access(self):
        t = SizedTable(0)
        t.put("c", 5, 50)
        assert t.category("c") == {5: 50}
        assert t.category("nope") == {}


class TestAggregateSchemeStats:
    def test_one_walk_per_table(self, monkeypatch):
        tables = [SizedTable(v) for v in range(3)]
        tables[0].put("a", 1, (2, 3))
        tables[1].put("a", 1, 2)
        tables[1].put("b", "k", [1, 2, 3])
        calls = []
        original = SizedTable.words_by_category

        def counted(self):
            calls.append(self.owner)
            return original(self)

        monkeypatch.setattr(SizedTable, "words_by_category", counted)
        stats = aggregate_scheme_stats("s", 3, tables, [(1, 2), 3, None])
        assert calls == [0, 1, 2]
        assert stats.max_table_words == 6
        assert stats.total_table_words == 9
        assert stats.avg_table_words == 3.0
        assert stats.table_breakdown_max == {"a": 3, "b": 4}
        assert stats.max_label_words == 2
        assert stats.avg_label_words == 1.0
