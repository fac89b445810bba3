"""Unit tests for rule-group persistence."""

import hashlib
import json
import os
import stat
import threading

import pytest

from repro import Constraints, mine_irgs
from repro.core.serialize import load_rule_groups, save_rule_groups
from repro.errors import DataError


@pytest.fixture
def mined(paper_dataset):
    result = mine_irgs(
        paper_dataset, "C", minsup=1, compute_lower_bounds=True
    )
    return result


class TestRoundTrip:
    def test_groups_survive(self, tmp_path, mined):
        path = tmp_path / "groups.irgs"
        save_rule_groups(
            path, mined.groups, constraints=mined.constraints,
            dataset_name="figure1",
        )
        loaded, header = load_rule_groups(path)
        assert {g.upper for g in loaded} == mined.upper_antecedents()
        by_upper = {g.upper: g for g in loaded}
        for group in mined.groups:
            twin = by_upper[group.upper]
            assert twin.rows == group.rows
            assert twin.support == group.support
            assert twin.lower_bounds == group.lower_bounds
            assert twin.confidence == pytest.approx(group.confidence)

    def test_header_metadata(self, tmp_path, mined):
        path = tmp_path / "groups.irgs"
        save_rule_groups(
            path, mined.groups, constraints=Constraints(minsup=1),
            dataset_name="figure1",
        )
        _, header = load_rule_groups(path)
        assert header["dataset"] == "figure1"
        assert header["consequent"] == "C"
        assert header["n"] == 5 and header["m"] == 3
        assert header["constraints"]["minsup"] == 1
        assert header["count"] == len(mined.groups)

    def test_groups_without_lower_bounds(self, tmp_path, paper_dataset):
        result = mine_irgs(paper_dataset, "C", minsup=2)
        path = tmp_path / "nolb.irgs"
        save_rule_groups(path, result.groups)
        loaded, _ = load_rule_groups(path)
        assert all(group.lower_bounds is None for group in loaded)

    def test_empty_result(self, tmp_path):
        path = tmp_path / "empty.irgs"
        save_rule_groups(path, [])
        loaded, header = load_rule_groups(path)
        assert loaded == [] and header["count"] == 0


def _fresh_bytes(tmp_path, groups, name="fresh.irgs"):
    """What ``save_rule_groups`` writes for ``groups`` to a new file."""
    path = tmp_path / name
    save_rule_groups(path, groups, dataset_name="figure1")
    return path.read_bytes()


class TestDestinations:
    """``save_rule_groups`` rewrites an existing file in place, then
    trims it; every destination the truncating write served still
    works."""

    def test_dev_null(self, mined):
        save_rule_groups(os.devnull, mined.groups)

    def test_fifo_read_by_a_thread(self, tmp_path, mined):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []

        def read() -> None:
            with open(fifo, "rb") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        save_rule_groups(fifo, mined.groups, dataset_name="figure1")
        reader.join(timeout=10)
        assert received == [_fresh_bytes(tmp_path, mined.groups)]

    @pytest.mark.parametrize("keep", [0, 1, 2])
    def test_smaller_answer_over_larger_file(self, tmp_path, mined, keep):
        path = tmp_path / "answer.irgs"
        save_rule_groups(path, mined.groups, dataset_name="figure1")
        larger = path.stat().st_size
        save_rule_groups(path, mined.groups[:keep], dataset_name="figure1")
        written = path.read_bytes()
        assert len(written) < larger
        fresh = _fresh_bytes(tmp_path, mined.groups[:keep])
        assert hashlib.sha256(written).digest() == hashlib.sha256(fresh).digest()

    def test_new_file_mode_follows_umask(self, tmp_path, mined):
        previous = os.umask(0o027)
        try:
            save_rule_groups(tmp_path / "new.irgs", mined.groups)
            with open(tmp_path / "reference.irgs", "w"):
                pass
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "new.irgs").stat().st_mode)
        assert mode == 0o640
        assert mode == stat.S_IMODE((tmp_path / "reference.irgs").stat().st_mode)

    @pytest.mark.parametrize("keep", [0, 1, 2, 3])
    def test_torn_rewrite_is_rejected(self, tmp_path, mined, monkeypatch, keep):
        path = tmp_path / "answer.irgs"
        save_rule_groups(path, mined.groups, dataset_name="figure1")
        old = path.read_bytes()
        new = _fresh_bytes(tmp_path, mined.groups[:keep])
        # A crash between the write and the trim: new bytes, old tail.
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: None)
        save_rule_groups(path, mined.groups[:keep], dataset_name="figure1")
        monkeypatch.undo()
        assert path.read_bytes() == new + old[len(new) :]
        with pytest.raises(DataError):
            load_rule_groups(path)


class TestValidation:
    def test_mixed_consequents_rejected(self, tmp_path, paper_dataset):
        c_groups = mine_irgs(paper_dataset, "C", minsup=1).groups
        n_groups = mine_irgs(paper_dataset, "N", minsup=1).groups
        with pytest.raises(DataError):
            save_rule_groups(tmp_path / "x.irgs", c_groups + n_groups)

    def test_bad_format(self, tmp_path):
        path = tmp_path / "bad.irgs"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(DataError, match="format"):
            load_rule_groups(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "corrupt.irgs"
        path.write_text("not json at all\n")
        with pytest.raises(DataError):
            load_rule_groups(path)

    def test_count_mismatch(self, tmp_path, mined):
        path = tmp_path / "short.irgs"
        save_rule_groups(path, mined.groups)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one group
        with pytest.raises(DataError, match="promises"):
            load_rule_groups(path)

    def test_corrupt_record(self, tmp_path, mined):
        path = tmp_path / "rec.irgs"
        save_rule_groups(path, mined.groups)
        lines = path.read_text().splitlines()
        lines[1] = '{"upper": [0]}'  # missing fields
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":2"):
            load_rule_groups(path)

    def test_record_that_is_a_list(self, tmp_path, mined):
        path = tmp_path / "list.irgs"
        save_rule_groups(path, mined.groups)
        lines = path.read_text().splitlines()
        lines[2] = "[1, 2]"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r":3: record must be a JSON object"):
            load_rule_groups(path)

    @pytest.mark.parametrize("field", ["upper", "rows", "lower_bounds"])
    def test_field_that_is_not_a_list(self, tmp_path, mined, field):
        path = tmp_path / "field.irgs"
        save_rule_groups(path, mined.groups)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = 5
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf":2: {field} must be a list"):
            load_rule_groups(path)

    @pytest.mark.parametrize(
        "changes,named",
        [
            ({"rows": ["a", 1.5], "upper": [True], "support": 1.0}, "upper id"),
            ({"rows": [True, 5]}, "rows id"),
            ({"rows": [0, 1.0]}, "rows id"),
            ({"upper": [True]}, "upper id"),
            ({"upper": ["x", 2]}, "upper id"),
            ({"upper": [1], "lower_bounds": [[True]]}, "lower bound id"),
            ({"support": 1.0}, "support"),
            ({"support": True}, "support"),
            ({"antecedent_support": 2.0}, "antecedent_support"),
            (
                {"rows": [0], "support": 1, "antecedent_support": True},
                "antecedent_support",
            ),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_ids_and_supports_must_be_integers(
        self, tmp_path, mined, changes, named
    ):
        """A record whose ids or supports are not JSON integers (a
        boolean included) is refused with its line, not loaded."""
        path = tmp_path / "types.irgs"
        save_rule_groups(path, mined.groups[:1])
        header = path.read_text().splitlines()[0]
        record = {
            "antecedent_support": 2,
            "lower_bounds": None,
            "rows": [0, 1],
            "support": 1,
            "upper": [3],
            **changes,
        }
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        with pytest.raises(
            DataError, match=rf"types.irgs:2: {named} must be an integer"
        ):
            load_rule_groups(path)

    def test_header_that_is_not_an_object(self, tmp_path, mined):
        path = tmp_path / "header.irgs"
        save_rule_groups(path, mined.groups)
        lines = path.read_text().splitlines()
        lines[0] = "[1]"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r":1: header must be a JSON object"):
            load_rule_groups(path)

    def test_header_without_constants(self, tmp_path, mined):
        path = tmp_path / "header.irgs"
        save_rule_groups(path, mined.groups)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["m"]
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r":1: header misses 'm'"):
            load_rule_groups(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "void.irgs"
        path.write_text("")
        with pytest.raises(DataError):
            load_rule_groups(path)
