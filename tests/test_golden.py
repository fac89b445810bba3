"""Golden regression tests: pinned numbers for the registry workloads.

The registry datasets are pure functions of their seeds, and every miner
is deterministic, so exact counts are stable across runs and platforms.
If one of these fails after a code change, either the change altered
mining semantics (a bug — the oracle tests should also fail) or it
intentionally altered the generator (update the goldens *and* the
recorded numbers in EXPERIMENTS.md together).
"""

import dataclasses
import hashlib

import pytest

from repro import mine_irgs
from repro.baselines import mine_closed_charm
from repro.core.constraints import Constraints
from repro.core.farmer import Farmer
from repro.core.serialize import save_rule_groups
from repro.data.discretize import EqualDepthDiscretizer
from repro.data.registry import PAPER_DATASETS, load
from repro.experiments.workloads import DATASET_ORDER, MINSUP_GRIDS


@pytest.fixture(scope="module")
def ct_small():
    matrix = load("CT", scale=0.02)
    return EqualDepthDiscretizer(n_buckets=10).fit_transform(matrix)


class TestGeneratorGoldens:
    def test_ct_matrix_fingerprint(self):
        matrix = load("CT", scale=0.02)
        assert matrix.n_samples == 62
        assert matrix.n_genes == 64
        # A few fixed cells pin the RNG stream end-to-end.
        assert matrix.values[0, 0] == pytest.approx(1.2117620649612577)
        assert matrix.values[61, 63] == pytest.approx(-0.8372009252055121)

    def test_all_matrix_fingerprint(self):
        matrix = load("ALL", scale=0.02)
        assert matrix.n_samples == 72
        assert matrix.values[0, 0] == pytest.approx(0.1492119443097944)

    def test_discretized_shape(self, ct_small):
        assert ct_small.n_rows == 62
        assert ct_small.n_items == 640
        assert ct_small.max_row_length() == 64


class TestMiningGoldens:
    @pytest.mark.parametrize(
        ("minsup", "expected_irgs"),
        [(6, 87), (5, 237), (4, 441)],
    )
    def test_ct_irg_counts(self, ct_small, minsup, expected_irgs):
        result = mine_irgs(ct_small, "negative", minsup=minsup)
        assert len(result.groups) == expected_irgs

    def test_ct_irg_counts_with_confidence(self, ct_small):
        result = mine_irgs(ct_small, "negative", minsup=5, minconf=0.9)
        assert len(result.groups) == 68

    def test_ct_closed_set_count(self, ct_small):
        closed = mine_closed_charm(ct_small, minsup=5)
        assert len(closed) == 711

    def test_counts_stable_across_pruning_configs(self, ct_small):
        for prunings in [(), ("p1", "p2", "p3")]:
            result = mine_irgs(
                ct_small, "negative", minsup=6, prunings=prunings
            )
            assert len(result.groups) == 87


class TestRegistryGoldens:
    def test_table1_constants(self):
        rows = {
            "BC": (97, 24481, 46),
            "LC": (181, 12533, 31),
            "CT": (62, 2000, 40),
            "PC": (136, 12600, 52),
            "ALL": (72, 7129, 47),
        }
        for name, (n_rows, paper_cols, n_class1) in rows.items():
            spec = PAPER_DATASETS[name]
            assert (spec.n_rows, spec.paper_cols, spec.n_class1) == (
                n_rows,
                paper_cols,
                n_class1,
            )

    def test_table2_split_sizes(self):
        sizes = {
            "BC": (78, 19),
            "LC": (32, 149),
            "CT": (47, 15),
            "PC": (102, 34),
            "ALL": (38, 34),
        }
        for name, (train, test) in sizes.items():
            spec = PAPER_DATASETS[name]
            assert (spec.n_train, spec.n_test) == (train, test)


#: ``NodeCounters`` fields (declaration order) and the ``.irgs`` sha256
#: of every cold-mine op: the five registry datasets at scale 0.02 (10
#: equal-depth buckets, the first class label as consequent), each
#: Figure 10 minsup at minconf 0 and 0.8.  Search speedups must leave
#: every node count and pruning count where it was; a new pruning moves
#: them, never the sha (the root's class-support item filter did, and so
#: did the per-node one below it).
COLD_MINE_PINS = {
    ("LC", 16, 0.0): (0, 0, 0, 0, 0, 0, 0, "89ad22d44a56c9468fc807ccc4bc8e0eec078bee791b4c07fc7b6f788c39e057"),
    ("LC", 16, 0.8): (0, 0, 0, 0, 0, 0, 0, "610aca40d216ffcfd90688af45a59fa9b3100dbd31eacb0c2e2bc557cdf28013"),
    ("LC", 14, 0.0): (25, 16, 0, 6, 29, 2, 0, "bef023756f6c911f727e231b6cda6efeda0733b23a1c03610b4b52a425cae6d9"),
    ("LC", 14, 0.8): (25, 16, 2, 6, 7, 0, 0, "1964942b39cffcb9114d286f57e3a2c6f5a93bf232baf208ccfa06aa74e7bdc5"),
    ("LC", 12, 0.0): (227, 147, 0, 67, 84, 6, 0, "d3b99fc8a6109930d4dcb3a0ef9071f2384fc2c6aa17f976a734a78caaadbb47"),
    ("LC", 12, 0.8): (227, 147, 6, 67, 18, 0, 0, "953804f69fefcf5a4cc6c05e2f545657def8ccd096d92a5d966e767e20c7f8ca"),
    ("LC", 11, 0.0): (555, 361, 0, 161, 206, 14, 0, "6749e17c0f5ea30e16e08910294becbb6a449cd84cb694a842d333c4e7da26b6"),
    ("LC", 11, 0.8): (504, 335, 12, 142, 33, 0, 0, "3542cac808d5af387e612d87e0245330c8aa01bcfbd26cc45dc90e50492ae34a"),
    ("BC", 9, 0.0): (442, 177, 0, 200, 340, 46, 0, "e23bf716a5735cdadb898e17eb480979b66c472c4d2b0193b47f01515fa7f1d0"),
    ("BC", 9, 0.8): (442, 177, 0, 200, 340, 46, 0, "4efb88208e364726ee7a83d99e1ef715077bc26264b336adf502ee0ba0588b4f"),
    ("BC", 8, 0.0): (2426, 1098, 0, 1031, 1226, 182, 0, "32d749773d4eda70f286b949f20ed0cd15451a2e8c3bd29321e9e667855ec376"),
    ("BC", 8, 0.8): (2426, 1098, 0, 1031, 1226, 182, 0, "2170be37dd52ee451096353da392361a76c378799fed56a4dfda4ab14d11274b"),
    ("BC", 7, 0.0): (9907, 4970, 0, 3841, 3887, 601, 3, "2e03c6d38dfdc44d3dddc245cde292af2b02c39338bdc4cf21d6099bd20dff70"),
    ("BC", 7, 0.8): (9893, 4970, 418, 3830, 1329, 183, 2, "3e2021f9debc25f2230ca1ddbaed148e7ba74968e38c79d9000a1a20161b8c6e"),
    ("BC", 6, 0.0): (31158, 17264, 0, 10815, 8525, 1383, 15, "c5b67fbd8534e4c7b1391ea881e7c17c9fd87a014f7626cd5730c3d540c163fb"),
    ("BC", 6, 0.8): (31116, 17270, 1195, 10778, 1616, 191, 6, "d8f3d13051f18fdfcec833e7ca7a5c763f2615accac34a69704ceb0b6433e651"),
    ("PC", 12, 0.0): (449, 200, 0, 208, 259, 24, 1, "911b7da7d5a146e35be34f8e26d7cd0dc8d42dfde88c61f57abdeb94fbf568cc"),
    ("PC", 12, 0.8): (449, 200, 0, 208, 259, 24, 1, "11074639887cfdd0687297925a192371fb235459f4e383e085f1ad8849368152"),
    ("PC", 11, 0.0): (1235, 577, 0, 560, 509, 48, 2, "5fe96e2e13a06724d88fc3db275b3a388e3e876575772acf4ab8b67f772fdfc0"),
    ("PC", 11, 0.8): (1235, 577, 16, 560, 376, 32, 2, "7d346eb18d0581580989bfcb7a2f8ea64f01ed6768e874fa4fece31622fac603"),
    ("PC", 10, 0.0): (2900, 1412, 0, 1288, 853, 77, 5, "8f1157ca7b0f82c37e7d33940df0683498c42ac8bed411a8a8b058470f78a205"),
    ("PC", 10, 0.8): (2896, 1410, 43, 1288, 466, 33, 5, "e519e05f51d46e5c1f7568b6bea04936f48c612109604958039b944a6806b69a"),
    ("PC", 9, 0.0): (6990, 3610, 0, 2915, 1887, 184, 10, "09f970c3d441e9ae446c208e59c19b8414dd042ba044f45b5cc261d129e7e79a"),
    ("PC", 9, 0.8): (6963, 3601, 141, 2903, 591, 41, 10, "15a4b3262c18cf007560581b8beeb1fef864cd518044435b6b8047890902d668"),
    ("ALL", 7, 0.0): (931, 274, 0, 454, 612, 138, 5, "7045d853050d8a3ae452a37e8bc44df60fd7a216163520579ef38e99c6547298"),
    ("ALL", 7, 0.8): (931, 274, 0, 454, 612, 138, 5, "b93c2c0376df2b13b5e5223d1bec9dc827639a8ad7d7aef5e8da2f9e2fdb0353"),
    ("ALL", 6, 0.0): (4089, 1444, 0, 1923, 1699, 416, 20, "8f0f4fa1ed69013bacf7fd41323fda6c39943649ebf11d100980b24c5dc3dfa0"),
    ("ALL", 6, 0.8): (4089, 1444, 68, 1923, 1374, 348, 20, "e8724cb2af8e027f42e50b103828204417e33aeeed704aabadb73a7be3e2d9bf"),
    ("ALL", 5, 0.0): (11056, 4273, 0, 5072, 3172, 828, 41, "96a1bf4b79d64a33fda0902b11602a86471fcecf2626d7f8ed557fbd44804d13"),
    ("ALL", 5, 0.8): (11052, 4274, 474, 5068, 1385, 354, 41, "b9cb06e479a1e590690a9ed82e4aea1828b1c84dccfb685cba030f0b6a35a2c2"),
    ("ALL", 4, 0.0): (23401, 9511, 0, 10432, 4352, 1281, 276, "19180954b168823445b930bbc6a7970a1c17152e49ace86598101b090ef10b16"),
    ("ALL", 4, 0.8): (23392, 9550, 801, 10391, 1499, 477, 273, "c0370d5435cb6a8c2c46e91f447ce4081a1a6098bb539e5d54120aefd1ce88da"),
    ("CT", 6, 0.0): (554, 159, 0, 258, 304, 87, 4, "43049327c726805ed5dc2d76f57c3a01d8d8fa7e18c8eaa996ed5bf65a83fab5"),
    ("CT", 6, 0.8): (554, 159, 0, 258, 304, 87, 4, "e0426a2368d464a2a1bfcb2387c54df5529dc991916439b21bb88baea1570afa"),
    ("CT", 5, 0.0): (1910, 611, 0, 873, 780, 237, 18, "b5f60bf6b1a315cd14a09160cb8fe59d0596290e3b387ca7b339ad7de4e51c84"),
    ("CT", 5, 0.8): (1910, 614, 17, 873, 710, 217, 18, "383effe23c8576d281ab1f6a83db68ae5cefd0a0a6005b20c70b11fb7933d2a4"),
    ("CT", 4, 0.0): (4763, 1739, 0, 2047, 1232, 441, 83, "5150bc9b17e1ef1f40fabbd252d0fb5ef2830e3c942f5bbee503a44f74299718"),
    ("CT", 4, 0.8): (4754, 1753, 196, 2043, 676, 230, 80, "e76f15d111633d39f3691a7cb4ba27d2ba128bf18736d71f83b7db2e821bfc18"),
    ("CT", 3, 0.0): (8837, 2824, 0, 4184, 1529, 785, 530, "033d3595d944f486ff5976c9ca4994ae0a210bde1edf6b31f81a4a66ff84f2a6"),
    ("CT", 3, 0.8): (8733, 4030, 294, 2992, 643, 424, 468, "54eb99468af97ef4cb80a1c65698295fbd29241bd1943dee254e7acbdb8b6508"),
}


def _assert_pinned(pin, data, table, constraints, tmp_path, **options):
    result = Farmer(constraints=constraints, **options).mine_table(table)
    out = tmp_path / "mine.irgs"
    save_rule_groups(
        out, result.groups, constraints=constraints, dataset_name=data.name
    )
    *counters, sha = pin
    assert dataclasses.astuple(result.counters) == tuple(counters)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


@pytest.fixture(scope="module")
def cold_mine_tables():
    from repro.data.transpose import TransposedTable

    tables = {}
    for name in DATASET_ORDER:
        data = EqualDepthDiscretizer(n_buckets=10).fit_transform(
            load(name, scale=0.02)
        )
        tables[name] = (data, TransposedTable.build(data, data.class_labels[0]))
    return tables


class TestColdMineCounters:
    @pytest.mark.parametrize(
        ("name", "minsup", "minconf"),
        [
            (name, minsup, minconf)
            for name in DATASET_ORDER
            for minsup in MINSUP_GRIDS[name]
            for minconf in (0.0, 0.8)
        ],
    )
    def test_counters_and_output_pinned(
        self, cold_mine_tables, tmp_path, name, minsup, minconf
    ):
        data, table = cold_mine_tables[name]
        _assert_pinned(
            COLD_MINE_PINS[(name, minsup, minconf)],
            data,
            table,
            Constraints(minsup=minsup, minconf=minconf),
            tmp_path,
        )


#: The same pins at the paper's column counts (``scale=1.0``, Table 1)
#: on the Figure 10 points that mine in well under a second each: the
#: LC grid, PC 12/11, CT 6 and BC 9, minconf 0.  Here the Step-7 store
#: holds thousands of groups over 20k-245k items, a regime the 0.02
#: sweep never reaches.
PAPER_SIZE_PINS = {
    ("LC", 16): (0, 0, 0, 0, 0, 0, 0, "89ad22d44a56c9468fc807ccc4bc8e0eec078bee791b4c07fc7b6f788c39e057"),
    ("LC", 14): (1, 0, 0, 0, 19, 1, 0, "cdfa44e66bad450e132262709b19a7decb992167aa1663391b89ce6a519f850a"),
    ("LC", 12): (545, 346, 0, 157, 218, 15, 0, "ae93f24a456314d83832c3241c7c8572f185796d83da87a4011a9d4b4c7d9150"),
    ("LC", 11): (1473, 938, 0, 444, 371, 24, 0, "c079c5e9c482d1dfc2792b4a97d98b509f63b8a97a4fa3a4044ca541255ad1bf"),
    ("PC", 12): (760, 354, 0, 339, 415, 39, 0, "ec88bdd0de8bea6618da43a5fb1fa3cfe70831cf5918124b97fc1ebf7f9b0aaa"),
    ("PC", 11): (3919, 2008, 0, 1596, 2010, 189, 0, "8eb64efd0fb4f34997ba167d1d7212507b748f836e21fb2cebfab2a42a372575"),
    ("CT", 6): (9833, 3013, 0, 4091, 5101, 1877, 6, "059b3e8219e008f6b3ab9de3d542b0738d9d931545d172a5f0b90efeb2ddfb4c"),
    ("BC", 9): (8424, 3508, 0, 3631, 5362, 876, 0, "65a24c5b588c982c73d41e3f5b92dda1faf8c276db5364322ab1619f7c72c942"),
}

#: Each dataset's lowest scale-0.02 grid point with Pruning 2 off
#: (``{"p1", "p3"}``, minconf 0).  Without Step 1's identified-subtree
#: cut the same upper bound reaches the store again from later nodes;
#: ``candidates_rejected`` pins that such a re-offer is skipped, not
#: counted as a rejection.
PRUNING_2_OFF_PINS = {
    ("LC", 11): (1492, 1040, 254, 0, 1051, 14, 0, "6749e17c0f5ea30e16e08910294becbb6a449cd84cb694a842d333c4e7da26b6"),
    ("BC", 6): (86697, 59655, 14909, 0, 29237, 1383, 72, "c5b67fbd8534e4c7b1391ea881e7c17c9fd87a014f7626cd5730c3d540c163fb"),
    ("PC", 9): (26046, 15786, 6081, 0, 13290, 184, 114, "09f970c3d441e9ae446c208e59c19b8414dd042ba044f45b5cc261d129e7e79a"),
    ("ALL", 4): (38008, 20054, 3288, 0, 17476, 1281, 685, "19180954b168823445b930bbc6a7970a1c17152e49ace86598101b090ef10b16"),
    ("CT", 3): (11105, 4546, 96, 0, 5009, 785, 765, "033d3595d944f486ff5976c9ca4994ae0a210bde1edf6b31f81a4a66ff84f2a6"),
}


@pytest.fixture(scope="module")
def paper_size_tables():
    from repro.data.transpose import TransposedTable

    tables = {}
    for name in sorted({name for name, _ in PAPER_SIZE_PINS}):
        data = EqualDepthDiscretizer(n_buckets=10).fit_transform(
            load(name, scale=1.0)
        )
        tables[name] = (data, TransposedTable.build(data, data.class_labels[0]))
    return tables


#: Figure 11's ``minchi = 10`` series at scale 0.02: each dataset at
#: ``FIXED_MINSUP`` of ``benchmarks/bench_fig11_minconf.py``, minconf 0
#: and 0.8.  The only pins whose walk evaluates Lemma 3.9's chi-square
#: bound and Step 7's chi-square threshold.
CHI_PINS = {
    ("LC", 11, 0.0): (555, 361, 0, 161, 206, 14, 0, "3dc17c4b05df76539846a199e86e3dfbb5a51575bf807e3e41edda279b04f144"),
    ("LC", 11, 0.8): (504, 335, 12, 142, 33, 0, 0, "59cdfd99b4fe20176783c31bac256941fc01dd87d375fe0e33d85c2494d68904"),
    ("BC", 6, 0.0): (31158, 17264, 0, 10815, 8525, 9, 0, "3ea1124b1271603e8324eb2ab0744552a635085024e2471ebd7e9dc61b7deffc"),
    ("BC", 6, 0.8): (31116, 17270, 1195, 10778, 1616, 9, 0, "d0be711c865e779df8429ce88f560caf97c142eaa572bd1f3201872c67a61cc8"),
    ("PC", 9, 0.0): (6990, 3610, 0, 2915, 1887, 56, 9, "0dd7c99b3e7af0e932a96bbbdaebba347b227a4d7fd89b63c7072d563f3690e2"),
    ("PC", 9, 0.8): (6963, 3601, 141, 2903, 591, 40, 9, "858f518660880ab20938c018bf9b5943514dd2bf59eb15242bd129cc157dec22"),
    ("ALL", 4, 0.0): (23401, 9511, 0, 10432, 4352, 0, 0, "0f1a82b4bc6a1bba70b9f0628a00f11b524bb1f7bdddfe5ce963adc0b7d9e990"),
    ("ALL", 4, 0.8): (23392, 9550, 801, 10391, 1499, 0, 0, "b4421d1de454ca9d5b5a88225894e75cafff85a1d79e8628c4219d1251cc9b6b"),
    ("CT", 4, 0.0): (4763, 1739, 0, 2047, 1232, 0, 0, "efde85a7bbed4c8ae3459f840f624a11cd4f54ab42a34523a680fc88e3258c3b"),
    ("CT", 4, 0.8): (4754, 1753, 196, 2043, 676, 0, 0, "dd4636607a49599863629125c8c2f1972b0b6aa406b65938883777db66589fe3"),
}


class TestChiCounters:
    @pytest.mark.parametrize(("name", "minsup", "minconf"), sorted(CHI_PINS))
    def test_counters_and_output_pinned(
        self, cold_mine_tables, tmp_path, name, minsup, minconf
    ):
        data, table = cold_mine_tables[name]
        _assert_pinned(
            CHI_PINS[(name, minsup, minconf)],
            data,
            table,
            Constraints(minsup=minsup, minconf=minconf, minchi=10.0),
            tmp_path,
        )


class TestPaperSizeCounters:
    @pytest.mark.parametrize(("name", "minsup"), sorted(PAPER_SIZE_PINS))
    def test_counters_and_output_pinned(
        self, paper_size_tables, tmp_path, name, minsup
    ):
        data, table = paper_size_tables[name]
        _assert_pinned(
            PAPER_SIZE_PINS[(name, minsup)],
            data,
            table,
            Constraints(minsup=minsup),
            tmp_path,
        )


class TestPruning2OffCounters:
    @pytest.mark.parametrize(("name", "minsup"), sorted(PRUNING_2_OFF_PINS))
    def test_counters_and_output_pinned(
        self, cold_mine_tables, tmp_path, name, minsup
    ):
        data, table = cold_mine_tables[name]
        _assert_pinned(
            PRUNING_2_OFF_PINS[(name, minsup)],
            data,
            table,
            Constraints(minsup=minsup),
            tmp_path,
            prunings=frozenset({"p1", "p3"}),
        )
