"""Fixture-driven tests for every farmer-lint rule (FRM001..FRM008).

Each rule gets at least: a snippet that triggers it, a near-identical
snippet that must not, and a suppression-comment check.  Fixtures are
written under ``tmp_path/repro/...`` so package-scoped rules (core/,
baselines/) see the same package paths as the real tree.
"""

from pathlib import Path

import pytest

from repro.analysis import Engine
from repro.analysis.rules import ALL_RULES, RULES_BY_ID


def lint_snippet(tmp_path, package_path: str, source: str):
    """Write ``source`` at ``tmp_path/<package_path>`` and lint it."""
    target = tmp_path / package_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    engine = Engine(root=tmp_path)
    module = engine.parse_module(target)
    findings, n_suppressed = engine.lint_module(module)
    return findings, n_suppressed


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestCatalogue:
    def test_eleven_rules_with_unique_ids(self):
        """FRM001-FRM012, with FRM010 retired and its id left unused."""
        assert len(ALL_RULES) == 11
        assert sorted(RULES_BY_ID) == [
            f"FRM{i:03d}" for i in range(1, 13) if i != 10
        ]

    def test_every_rule_documented(self):
        for rule in ALL_RULES:
            assert rule.name
            assert rule.description
            assert rule.__doc__


class TestFRM001NondeterministicIteration:
    TRIGGERS = [
        "for x in {1, 2, 3}:\n    print(x)\n",
        "for x in set(items):\n    print(x)\n",
        "for x in frozenset(items):\n    print(x)\n",
        "for x in mapping.keys():\n    print(x)\n",
        "out = [x for x in {1, 2}]\n",
        "out = list({str(x) for x in items})\n",
        "for i, x in enumerate(set(items)):\n    print(i, x)\n",
    ]

    @pytest.mark.parametrize("snippet", TRIGGERS)
    def test_triggers_in_core(self, tmp_path, snippet):
        findings, _ = lint_snippet(tmp_path, "repro/core/mod.py", snippet)
        assert "FRM001" in rule_ids(findings)

    def test_sorted_wrapping_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "for x in sorted(set(items)):\n    print(x)\n",
        )
        assert "FRM001" not in rule_ids(findings)

    def test_list_iteration_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path, "repro/core/mod.py", "for x in [1, 2]:\n    print(x)\n"
        )
        assert "FRM001" not in rule_ids(findings)

    def test_out_of_scope_module_not_checked(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/experiments/mod.py",
            "for x in {1, 2, 3}:\n    print(x)\n",
        )
        assert "FRM001" not in rule_ids(findings)

    def test_suppression(self, tmp_path):
        findings, n_suppressed = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "for x in {1, 2}:  # farmer-lint: disable=FRM001\n    print(x)\n",
        )
        assert "FRM001" not in rule_ids(findings)
        assert n_suppressed == 1


class TestFRM002NondeterminismSource:
    TRIGGERS = [
        "import random\nvalue = random.random()\n",
        "import random\nrng = random.Random()\n",
        "import time\nstamp = time.time()\n",
        "import os\npid = os.getpid()\n",
        "import os\nnoise = os.urandom(8)\n",
        "import uuid\ntoken = uuid.uuid4()\n",
        "key = id(node)\n",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nvalue = np.random.rand()\n",
        "from datetime import datetime\nnow = datetime.now()\n",
    ]
    CLEAN = [
        "import random\nrng = random.Random(42)\n",
        "import time\nstarted = time.perf_counter()\n",
        "import time\ndeadline = time.monotonic() + 5\n",
        "import numpy as np\nrng = np.random.default_rng(0)\n",
    ]

    @pytest.mark.parametrize("snippet", TRIGGERS)
    def test_triggers_in_core(self, tmp_path, snippet):
        findings, _ = lint_snippet(tmp_path, "repro/core/mod.py", snippet)
        assert "FRM002" in rule_ids(findings)

    @pytest.mark.parametrize("snippet", CLEAN)
    def test_seeded_and_monotonic_are_clean(self, tmp_path, snippet):
        findings, _ = lint_snippet(tmp_path, "repro/core/mod.py", snippet)
        assert "FRM002" not in rule_ids(findings)

    def test_applies_to_baselines_package(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path, "repro/baselines/mod.py", "import time\nt = time.time()\n"
        )
        assert "FRM002" in rule_ids(findings)

    def test_suppression(self, tmp_path):
        findings, n_suppressed = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "import time\nt = time.time()  # farmer-lint: disable=FRM002\n",
        )
        assert "FRM002" not in rule_ids(findings)
        assert n_suppressed == 1


class TestFRM003WorkerPicklability:
    def test_lambda_attribute_in_multiprocessing_module(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/workers.py",
            "import multiprocessing\n"
            "class Task:\n"
            "    def __init__(self):\n"
            "        self.score = lambda x: x + 1\n",
        )
        assert "FRM003" in rule_ids(findings)

    def test_named_worker_class_checked_everywhere(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/state.py",
            "class NodeState:\n"
            "    def __init__(self):\n"
            "        self.stream = open('x.txt')\n",
        )
        assert "FRM003" in rule_ids(findings)

    def test_generator_and_closure_attributes(self, tmp_path):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "class Task:\n"
            "    def __init__(self, rows):\n"
            "        self.rows = (r for r in rows)\n"
            "    def bind(self, offset):\n"
            "        def shifted(x):\n"
            "            return x + offset\n"
            "        self.shift = shifted\n"
        )
        findings, _ = lint_snippet(tmp_path, "repro/core/workers.py", source)
        messages = [f.message for f in findings if f.rule_id == "FRM003"]
        assert len(messages) == 2
        assert any("generator" in m for m in messages)
        assert any("closure" in m for m in messages)

    def test_class_level_lambda(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/workers.py",
            "import multiprocessing\nclass Task:\n    key = lambda x: x\n",
        )
        assert "FRM003" in rule_ids(findings)

    def test_plain_class_in_plain_module_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "class Helper:\n"
            "    def __init__(self):\n"
            "        self.score = lambda x: x\n",
        )
        assert "FRM003" not in rule_ids(findings)

    def test_picklable_worker_state_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/workers.py",
            "import multiprocessing\n"
            "class Task:\n"
            "    def __init__(self, rows):\n"
            "        self.rows = list(rows)\n",
        )
        assert "FRM003" not in rule_ids(findings)

    def test_suppression(self, tmp_path):
        findings, n_suppressed = lint_snippet(
            tmp_path,
            "repro/core/workers.py",
            "import multiprocessing\n"
            "class Task:\n"
            "    def __init__(self):\n"
            "        self.f = lambda: 0  # farmer-lint: disable=FRM003\n",
        )
        assert "FRM003" not in rule_ids(findings)
        assert n_suppressed == 1


class TestFRM004BitsetDiscipline:
    def test_bin_count_popcount(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/extensions/mod.py",
            'def popcount(x):\n    return bin(x).count("1")\n',
        )
        assert "FRM004" in rule_ids(findings)

    def test_format_b_count_popcount(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/extensions/mod.py",
            'def popcount(x):\n    return format(x, "b").count("1")\n',
        )
        assert "FRM004" in rule_ids(findings)

    def test_format_padded_binary_count_popcount(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/extensions/mod.py",
            'def popcount(x):\n    return format(x, "064b").count("1")\n',
        )
        assert "FRM004" in rule_ids(findings)

    def test_fstring_binary_count_popcount(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/extensions/mod.py",
            'def popcount(x):\n    return f"{x:b}".count("1")\n',
        )
        assert "FRM004" in rule_ids(findings)

    def test_format_decimal_count_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/extensions/mod.py",
            'def digits(x):\n    return format(x, "d").count("1")\n',
        )
        assert "FRM004" not in rule_ids(findings)

    def test_fstring_decimal_count_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/extensions/mod.py",
            'def digits(x):\n    return f"{x:d}".count("1")\n',
        )
        assert "FRM004" not in rule_ids(findings)

    def test_bit_count_helper_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/extensions/mod.py",
            "from repro.core import bitset\n"
            "def popcount(x):\n"
            "    return bitset.bit_count(x)\n",
        )
        assert "FRM004" not in rule_ids(findings)

    def test_popcount_outside_lut_construction_still_flagged(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "import numpy as np\n"
            'COUNTS = [bin(value).count("1") for value in range(256)]\n',
        )
        assert "FRM004" in rule_ids(findings)

    @pytest.mark.parametrize("constructor", ["np.array", "np.fromiter"])
    def test_popcount_inside_numpy_constructor_is_flagged(
        self, tmp_path, constructor
    ):
        # No construction idiom is exempt: np.bitwise_count is the one
        # vectorized popcount, so a string-popcount table is flagged too.
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "import numpy as np\n"
            f"TABLE = {constructor}(\n"
            '    [bin(value).count("1") for value in range(256)]\n'
            ")\n",
        )
        assert "FRM004" in rule_ids(findings)

    def test_float_equality_in_measures(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/measures.py",
            "def degenerate(conf):\n    return conf == 1.0\n",
        )
        assert "FRM004" in rule_ids(findings)

    def test_float_inequality_bound_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/measures.py",
            "def saturated(conf):\n    return conf >= 1.0\n",
        )
        assert "FRM004" not in rule_ids(findings)

    def test_float_equality_outside_measures_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "def degenerate(conf):\n    return conf == 1.0\n",
        )
        assert "FRM004" not in rule_ids(findings)

    def test_suppression(self, tmp_path):
        findings, n_suppressed = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "def popcount(x):\n"
            '    return bin(x).count("1")  # farmer-lint: disable=FRM004\n',
        )
        assert "FRM004" not in rule_ids(findings)
        assert n_suppressed == 1


class TestFRM005PublicApiHygiene:
    CLEAN = (
        '"""Module docstring."""\n'
        '__all__ = ["helper"]\n'
        "def helper():\n"
        '    """Docstring."""\n'
    )

    def test_clean_module(self, tmp_path):
        findings, _ = lint_snippet(tmp_path, "repro/mod.py", self.CLEAN)
        assert "FRM005" not in rule_ids(findings)

    def test_missing_dunder_all(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/mod.py",
            '"""Doc."""\ndef helper():\n    """Doc."""\n',
        )
        assert any(
            f.rule_id == "FRM005" and "no __all__" in f.message
            for f in findings
        )

    def test_undefined_name_in_dunder_all(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/mod.py",
            '"""Doc."""\n__all__ = ["ghost"]\n',
        )
        assert any(
            f.rule_id == "FRM005" and "'ghost'" in f.message for f in findings
        )

    def test_public_def_missing_from_dunder_all(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/mod.py",
            '"""Doc."""\n'
            '__all__ = ["helper"]\n'
            "def helper():\n"
            '    """Doc."""\n'
            "def stray():\n"
            '    """Doc."""\n',
        )
        assert any(
            f.rule_id == "FRM005" and "'stray'" in f.message for f in findings
        )

    def test_missing_docstrings(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/mod.py",
            '__all__ = ["helper"]\ndef helper():\n    pass\n',
        )
        messages = [f.message for f in findings if f.rule_id == "FRM005"]
        assert any("module has no docstring" in m for m in messages)
        assert any("'helper' has no docstring" in m for m in messages)

    def test_private_names_ignored(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/mod.py",
            '"""Doc."""\ndef _internal():\n    pass\n',
        )
        assert "FRM005" not in rule_ids(findings)

    def test_reexporting_init_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/sub/__init__.py",
            '"""Doc."""\nfrom .mod import helper\n__all__ = ["helper"]\n',
        )
        assert "FRM005" not in rule_ids(findings)

    LAZY_INIT = (
        '"""Doc."""\n'
        "import importlib\n"
        '__all__ = ["helper", "ghost"]\n'
        '_LAZY = {"helper": ".mod"}\n'
        "def __getattr__(name):\n"
        "    module = _LAZY.get(name)\n"
        "    if module is None:\n"
        "        raise AttributeError(name)\n"
        "    return getattr(importlib.import_module(module, __name__), name)\n"
    )

    def test_lazy_table_exports_its_keys(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path, "repro/sub/__init__.py", self.LAZY_INIT
        )
        messages = [f.message for f in findings if f.rule_id == "FRM005"]
        assert not any("'helper'" in m for m in messages)
        assert any("'ghost'" in m for m in messages)

    def test_table_unread_by_getattr_exports_nothing(self, tmp_path):
        source = self.LAZY_INIT.replace(
            "    module = _LAZY.get(name)\n", "    module = None\n"
        )
        findings, _ = lint_snippet(tmp_path, "repro/sub/__init__.py", source)
        assert any(
            f.rule_id == "FRM005" and "'helper'" in f.message for f in findings
        )

    def test_type_checking_import_declares_a_re_export(self, tmp_path):
        source = (
            '"""Doc."""\n'
            "from typing import TYPE_CHECKING\n"
            "from . import mod\n"
            '__all__ = ["helper", "ghost"]\n'
            "if TYPE_CHECKING:\n"
            "    from .mod import helper\n"
            "def __getattr__(name):\n"
            "    return getattr(mod, name)\n"
        )
        findings, _ = lint_snippet(tmp_path, "repro/sub/__init__.py", source)
        messages = [f.message for f in findings if f.rule_id == "FRM005"]
        assert not any("'helper'" in m for m in messages)
        assert any("'ghost'" in m for m in messages)


class TestFRM006ExceptionDiscipline:
    def test_builtin_raise_in_core(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            'def check(x):\n    raise ValueError("bad")\n',
        )
        assert "FRM006" in rule_ids(findings)

    def test_repro_errors_raise_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "from repro.errors import DataError\n"
            "def check(x):\n"
            '    raise DataError("bad")\n',
        )
        assert "FRM006" not in rule_ids(findings)

    def test_bare_reraise_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "def check(x):\n"
            "    try:\n"
            "        x()\n"
            "    except Exception:\n"
            "        raise\n",
        )
        assert "FRM006" not in rule_ids(findings)

    def test_builtin_raise_outside_core_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/classify/mod.py",
            'def check(x):\n    raise ValueError("bad")\n',
        )
        assert "FRM006" not in rule_ids(findings)

    def test_assert_in_library_code(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/classify/mod.py",
            "def check(x):\n    assert x is not None\n",
        )
        assert "FRM006" in rule_ids(findings)

    def test_assert_in_tests_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "tests/test_mod.py",
            "def test_x():\n    assert 1 + 1 == 2\n",
        )
        assert findings == []

    def test_suppression(self, tmp_path):
        findings, n_suppressed = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            'def check(x):\n'
            '    raise ValueError("bad")  # farmer-lint: disable=FRM006\n',
        )
        assert "FRM006" not in rule_ids(findings)
        assert n_suppressed == 1


class TestFRM007PersistenceDiscipline:
    TRIGGERS = [
        "import pickle\npickle.dump(state, fh)\n",
        "import pickle\nblob = pickle.dumps(state)\n",
        "import pickle\nstate = pickle.load(fh)\n",
        "import json\njson.dump(payload, fh)\n",
        "import json\ntext = json.dumps(payload)\n",
        "import json\npayload = json.loads(text)\n",
        "import marshal\nmarshal.dump(code, fh)\n",
        "import shelve\ndb = shelve.open('state')\n",
        "from pickle import dump\ndump(state, fh)\n",
        "from json import dumps as render\ntext = render(payload)\n",
    ]

    @pytest.mark.parametrize("snippet", TRIGGERS)
    def test_triggers_in_core(self, tmp_path, snippet):
        findings, _ = lint_snippet(tmp_path, "repro/core/mod.py", snippet)
        assert "FRM007" in rule_ids(findings)

    def test_serialize_module_is_exempt(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/serialize.py",
            "import json\ntext = json.dumps(payload)\n",
        )
        assert "FRM007" not in rule_ids(findings)

    def test_out_of_scope_module_not_checked(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/experiments/mod.py",
            "import json\njson.dump(payload, fh)\n",
        )
        assert "FRM007" not in rule_ids(findings)

    def test_unrelated_dump_name_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "def dump(x):\n    return x\n\nvalue = dump(1)\n",
        )
        assert "FRM007" not in rule_ids(findings)

    def test_envelope_calls_are_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "from .serialize import canonical_json, save_checkpoint\n"
            "save_checkpoint(path, canonical_json(payload))\n",
        )
        assert "FRM007" not in rule_ids(findings)

    def test_suppression(self, tmp_path):
        findings, n_suppressed = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "import json\n"
            "text = json.dumps(x)  # farmer-lint: disable=FRM007\n",
        )
        assert "FRM007" not in rule_ids(findings)
        assert n_suppressed == 1


class TestFRM012RawWriteSurface:
    TRIGGERS = [
        "fh = open(path, 'w')\n",
        "fh = open(path, mode='wb')\n",
        "fh = open(path, 'a')\n",
        "fh = open(path, 'x')\n",
        "fh = open(path, 'r+')\n",
        "fh = path.open('w')\n",
        "path.write_text(body)\n",
        "path.write_bytes(blob)\n",
        "import os\nos.replace(tmp, path)\n",
        "import os\nos.rename(tmp, path)\n",
        "import os\nfd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)\n",
        "import os\nos.write(fd, data)\n",
        "import os\nos.ftruncate(fd, size)\n",
    ]

    CLEAN = [
        "fh = open(path)\n",
        "fh = open(path, 'r')\n",
        "fh = open(path, mode='rb')\n",
        "fh = path.open('r')\n",
        "fh = path.open()\n",
        "text = path.read_text()\n",
        "fh = open(path, flags)\n",
        "import os\nos.remove(path)\n",
        "import os\nfd = os.open(path, os.O_RDONLY)\n",
        "import os\nfd = os.open(path, flags)\n",
        "from .serialize import save_checkpoint\nsave_checkpoint(path, payload)\n",
    ]

    @pytest.mark.parametrize("snippet", TRIGGERS)
    def test_triggers_in_core(self, tmp_path, snippet):
        findings, _ = lint_snippet(tmp_path, "repro/core/mod.py", snippet)
        assert "FRM012" in rule_ids(findings)

    @pytest.mark.parametrize("snippet", CLEAN)
    def test_read_surfaces_are_clean(self, tmp_path, snippet):
        findings, _ = lint_snippet(tmp_path, "repro/core/mod.py", snippet)
        assert "FRM012" not in rule_ids(findings)

    def test_serialize_module_is_exempt(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/serialize.py",
            "import os\nfh = open(path, 'w')\nos.replace(tmp, path)\n"
            "fd = os.open(path, os.O_WRONLY | os.O_CREAT)\n"
            "os.write(fd, data)\nos.ftruncate(fd, size)\n",
        )
        assert "FRM012" not in rule_ids(findings)

    def test_out_of_scope_module_not_checked(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/experiments/mod.py",
            "path.write_text(body)\n",
        )
        assert "FRM012" not in rule_ids(findings)

    def test_suppression(self, tmp_path):
        findings, n_suppressed = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            "path.write_text(body)  # farmer-lint: disable=FRM012\n",
        )
        assert "FRM012" not in rule_ids(findings)
        assert n_suppressed == 1


class TestFRM008DocstringSections:
    MULTILINE_TWO_PARAMS = (
        '"""Doc."""\n'
        '__all__ = ["combine"]\n'
        "def combine(left: int, right: int) -> int:\n"
        '    """Combine two values.\n\n'
        "    Longer explanation of the combination.\n"
        '    """\n'
        "    return left + right\n"
    )

    def test_multiline_docstring_without_args_triggers(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path, "repro/core/mod.py", self.MULTILINE_TWO_PARAMS
        )
        assert any(
            f.rule_id == "FRM008" and "'Args:'" in f.message for f in findings
        )

    def test_applies_to_obs_package(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path, "repro/obs/mod.py", self.MULTILINE_TWO_PARAMS
        )
        assert "FRM008" in rule_ids(findings)

    def test_out_of_scope_package_exempt(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path, "repro/baselines/mod.py", self.MULTILINE_TWO_PARAMS
        )
        assert "FRM008" not in rule_ids(findings)

    def test_one_line_docstring_is_legal(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            '"""Doc."""\n'
            '__all__ = ["combine"]\n'
            "def combine(left: int, right: int) -> int:\n"
            '    """Combine two values."""\n'
            "    return left + right\n",
        )
        assert "FRM008" not in rule_ids(findings)

    def test_single_parameter_exempt(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            '"""Doc."""\n'
            '__all__ = ["double"]\n'
            "def double(value: int) -> int:\n"
            '    """Double a value.\n\n'
            "    Longer explanation.\n"
            '    """\n'
            "    return value * 2\n",
        )
        assert "FRM008" not in rule_ids(findings)

    def test_structured_docstring_without_returns_triggers(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            '"""Doc."""\n'
            '__all__ = ["combine"]\n'
            "def combine(left: int, right: int) -> int:\n"
            '    """Combine two values.\n\n'
            "    Args:\n"
            "        left: first value.\n"
            "        right: second value.\n"
            '    """\n'
            "    return left + right\n",
        )
        assert any(
            f.rule_id == "FRM008" and "'Returns:'" in f.message
            for f in findings
        )

    def test_args_and_returns_is_clean(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            '"""Doc."""\n'
            '__all__ = ["combine"]\n'
            "def combine(left: int, right: int) -> int:\n"
            '    """Combine two values.\n\n'
            "    Args:\n"
            "        left: first value.\n"
            "        right: second value.\n\n"
            "    Returns:\n"
            "        The sum.\n"
            '    """\n'
            "    return left + right\n",
        )
        assert "FRM008" not in rule_ids(findings)

    def test_yields_satisfies_returns(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            '"""Doc."""\n'
            "from typing import Iterator\n"
            '__all__ = ["pairs"]\n'
            "def pairs(left: int, right: int) -> Iterator[int]:\n"
            '    """Yield both values.\n\n'
            "    Args:\n"
            "        left: first value.\n"
            "        right: second value.\n\n"
            "    Yields:\n"
            "        Each value in turn.\n"
            '    """\n'
            "    yield left\n"
            "    yield right\n",
        )
        assert "FRM008" not in rule_ids(findings)

    def test_none_return_needs_no_returns_section(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            '"""Doc."""\n'
            '__all__ = ["record"]\n'
            "def record(name: str, value: int) -> None:\n"
            '    """Record a value.\n\n'
            "    Args:\n"
            "        name: the key.\n"
            "        value: the value.\n"
            '    """\n',
        )
        assert "FRM008" not in rule_ids(findings)

    def test_property_and_private_and_dunder_exempt(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            '"""Doc."""\n'
            '__all__ = ["Box"]\n'
            "class Box:\n"
            '    """A box."""\n'
            "    @property\n"
            "    def content(self) -> int:\n"
            '        """The content.\n\n'
            "        Longer explanation.\n"
            '        """\n'
            "        return 1\n"
            "    def _helper(self, a: int, b: int) -> int:\n"
            '        """Private.\n\n'
            "        Longer explanation.\n"
            '        """\n'
            "        return a + b\n"
            "    def __call__(self, a: int, b: int) -> int:\n"
            '        """Dunder.\n\n'
            "        Longer explanation.\n"
            '        """\n'
            "        return a + b\n",
        )
        assert "FRM008" not in rule_ids(findings)

    def test_missing_docstring_left_to_frm005(self, tmp_path):
        findings, _ = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            '"""Doc."""\n'
            '__all__ = ["combine"]\n'
            "def combine(left: int, right: int) -> int:\n"
            "    return left + right\n",
        )
        assert "FRM008" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        findings, n_suppressed = lint_snippet(
            tmp_path,
            "repro/core/mod.py",
            '"""Doc."""\n'
            '__all__ = ["combine"]\n'
            "def combine(left: int, right: int) -> int:  "
            "# farmer-lint: disable=FRM008\n"
            '    """Combine two values.\n\n'
            "    Longer explanation.\n"
            '    """\n'
            "    return left + right\n",
        )
        assert "FRM008" not in rule_ids(findings)
        assert n_suppressed >= 1


class TestRepoIsClean:
    def test_shipped_tree_has_zero_findings(self):
        """Acceptance: the shipped tree lints clean with no baseline."""
        import repro

        package_root = Path(repro.__file__).resolve().parent
        result = Engine(root=package_root.parent).lint_paths([package_root])
        assert result.findings == [], [
            finding.format() for finding in result.findings
        ]
        assert result.n_files > 60
