"""Per-rule unit tests: each rule must flag the positive snippet and
stay silent on the negative one."""

import textwrap

import pytest

from repro.analysis.engine import check_source
from repro.analysis.registry import get_rule

CORE = "src/repro/core/snippet.py"


def run(rule_id: str, source: str, relpath: str = CORE):
    return check_source(get_rule(rule_id), textwrap.dedent(source), relpath)


# The determinism rules' snippets, shared with the detector parity test
# in test_dataflow.py.
RL001_FLAGGED = [
    "import random\nx = random.random()\n",
    "import random\nrandom.seed(0)\n",
    "import random as rnd\nx = rnd.randint(0, 3)\n",
    "from random import random\nx = random()\n",
    "import numpy as np\nx = np.random.rand(3)\n",
]
RL001_ALLOWED = [
    "import random\nrng = random.Random(7)\nx = rng.random()\n",
    "from random import Random\nrng = Random(7)\n",
    "import numpy as np\nrng = np.random.default_rng(7)\n",
    "x = 1 + 2\n",
]
RL002_FLAGGED = [
    "import time\nt = time.perf_counter()\n",
    "import time\nt = time.monotonic_ns()\n",
    "import datetime\nd = datetime.datetime.now()\n",
    "from time import perf_counter\nt = perf_counter()\n",
]
RL003_FLAGGED = [
    "s = {1, 2, 3}\nfor x in s:\n    pass\n",
    "s = set([1, 2])\nout = list(s)\n",
    "s = {x for x in range(3)}\nout = [y for y in s]\n",
    "def f(s: set):\n    for x in s:\n        pass\n",
    "def f(x):\n    s = set(x)\n    for y in s:\n        pass\n",
    "def f(x):\n    s = set(x)\n    def g():\n        return list(s)\n    return g\n",
]
RL003_ALLOWED = [
    "s = {1, 2, 3}\nfor x in sorted(s):\n    pass\n",
    "s = {1, 2}\nout = sorted(s)\n",
    "d = {'a': 1}\nfor k in d:\n    pass\n",  # dicts are ordered
    "xs = [1, 2]\nfor x in xs:\n    pass\n",
]


class TestRL001NoUnseededRandom:
    @pytest.mark.parametrize("source", RL001_FLAGGED)
    def test_flags_global_rng(self, source):
        findings = run("RL001", source)
        assert len(findings) == 1 and findings[0].rule == "RL001"

    @pytest.mark.parametrize("source", RL001_ALLOWED)
    def test_allows_instance_seeded(self, source):
        assert run("RL001", source) == []


class TestRL002NoWallClock:
    @pytest.mark.parametrize("source", RL002_FLAGGED)
    def test_flags_wallclock(self, source):
        findings = run("RL002", source)
        assert len(findings) == 1 and findings[0].rule == "RL002"

    def test_allows_time_in_telemetry(self):
        source = "import time\nt = time.perf_counter()\n"
        assert run("RL002", source, "src/repro/telemetry/snippet.py") == []

    def test_allows_time_in_runner(self):
        source = "import time\nt = time.perf_counter()\n"
        assert run("RL002", source, "src/repro/experiments/runner.py") == []

    def test_allows_sleepless_code(self):
        assert run("RL002", "import time\nx = time.gmtime\n") == []


class TestRL003NoOrderingHazard:
    @pytest.mark.parametrize("source", RL003_FLAGGED)
    def test_flags_set_iteration(self, source):
        findings = run("RL003", source)
        assert findings and all(f.rule == "RL003" for f in findings)

    @pytest.mark.parametrize("source", RL003_ALLOWED)
    def test_allows_sorted_iteration(self, source):
        assert run("RL003", source) == []

    def test_out_of_scope_path_ignored(self):
        source = "s = {1, 2}\nfor x in s:\n    pass\n"
        assert run("RL003", source, "src/repro/analysis/snippet.py") == []


class TestRL004NoFloatEquality:
    @pytest.mark.parametrize(
        "source",
        [
            "x = 1.0\nok = x == 0.5\n",
            "def f(a: float):\n    return a != 0.0\n",
            "ok = (3 / 4) == 0.75\n",
            "import math\nok = math.pi == 3.14\n",
        ],
    )
    def test_flags_float_comparison(self, source):
        findings = run("RL004", source)
        assert len(findings) == 1 and findings[0].rule == "RL004"

    @pytest.mark.parametrize(
        "source",
        [
            "x = 1\nok = x == 2\n",  # ints compare exactly
            "import math\nok = math.isclose(1.0, 1.0)\n",
            "x = 1.0\nok = x < 0.5\n",  # orderings are fine
            "s = 'a'\nok = s == 'b'\n",
        ],
    )
    def test_allows_exact_or_tolerant(self, source):
        assert run("RL004", source) == []

    def test_out_of_scope_path_ignored(self):
        source = "x = 1.0\nok = x == 0.5\n"
        assert run("RL004", source, "src/repro/engine/snippet.py") == []


class TestRL006NoMutableDefaultArgs:
    def test_flags_list_default(self):
        findings = run("RL006", "def f(xs=[]):\n    return xs\n")
        assert len(findings) == 1 and findings[0].rule == "RL006"

    def test_flags_dict_and_set_defaults(self):
        assert run("RL006", "def f(d={}):\n    pass\n")
        assert run("RL006", "def f(s=set()):\n    pass\n")

    def test_allows_none_and_tuple(self):
        assert run("RL006", "def f(xs=None, t=()):\n    pass\n") == []


class TestRL007NoBareExcept:
    def test_flags_bare_except(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        findings = run("RL007", source)
        assert len(findings) == 1 and findings[0].rule == "RL007"

    def test_allows_typed_except(self):
        source = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert run("RL007", source) == []


class TestRL008NoUnsupervisedPool:
    @pytest.mark.parametrize(
        "source",
        [
            "import multiprocessing\n"
            "pool = multiprocessing.Pool(4)\n",
            "from multiprocessing import Pool\n"
            "p = Pool()\n",
            "import multiprocessing.pool as mpool\n",  # module alone is fine
        ],
    )
    def test_flags_pool_constructors(self, source):
        findings = run("RL008", source, "src/repro/experiments/snippet.py")
        expected = 0 if "mpool" in source else 1
        assert len(findings) == expected
        assert all(f.rule == "RL008" for f in findings)

    def test_flags_map_on_bound_pool(self):
        source = (
            "import multiprocessing\n"
            "with multiprocessing.Pool(2) as pool:\n"
            "    out = pool.map(f, xs)\n"
        )
        findings = run("RL008", source, "src/repro/experiments/snippet.py")
        # constructor + .map on the bound name
        assert len(findings) == 2

    def test_flags_executor_submit(self):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "ex = ProcessPoolExecutor()\n"
            "fut = ex.submit(f, 1)\n"
        )
        findings = run("RL008", source, "src/repro/experiments/snippet.py")
        assert len(findings) == 2

    @pytest.mark.parametrize(
        "source",
        [
            "from repro.experiments.supervisor import Supervisor\n"
            "out = Supervisor(f, tasks, jobs=2).run()\n",
            # A helper named like a map is not a pool: the rule keys on
            # pool constructions, not on what a called function is named.
            "from repro.experiments.runner import parallel_map\n"
            "out = parallel_map(f, xs)\n",
            # Process-per-task supervision primitives are not pools.
            "import multiprocessing\n"
            "p = multiprocessing.Process(target=f)\n"
            "p.start()\n",
            # .map on something that is not a pool
            "out = mapping.map(f, xs)\n",
        ],
    )
    def test_allows_supervised_and_non_pool(self, source):
        assert run("RL008", source, "src/repro/experiments/snippet.py") == []

    def test_supervised_executor_is_exempt(self):
        source = "from multiprocessing import Pool\np = Pool()\n"
        assert run("RL008", source, "src/repro/experiments/runner.py") == []
        assert run("RL008", source,
                   "src/repro/experiments/supervisor.py") == []

    def test_out_of_scope_path_ignored(self):
        source = "from multiprocessing import Pool\np = Pool()\n"
        assert run("RL008", source, "benchmarks/snippet.py") == []
