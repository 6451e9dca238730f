"""Fixture-driven positive/negative tests, one battery per rule.

Each case is ``(snippet, expected_codes)`` — the snippet is linted in
isolation (optionally under a pretend path) and the produced code
*multiset* must match exactly, so a fixture can assert both "fires
once" and "stays quiet".
"""

from repro.lint import lint_source


def check(snippet, expected, path="pkg/mod.py", **kw):
    found = sorted(f.code for f in lint_source(snippet, path=path, **kw))
    assert found == sorted(expected), (
        f"expected {sorted(expected)} got {found} for:\n{snippet}"
    )


# -- REP001 wallclock --------------------------------------------------------

def test_rep001_direct_call():
    check("import time\nt = time.time()\n", ["REP001"])


def test_rep001_from_import_alias():
    check("from time import perf_counter as pc\npc()\n", ["REP001"])


def test_rep001_datetime_now():
    check("import datetime\nd = datetime.datetime.now()\n", ["REP001"])


def test_rep001_sleep_is_not_a_clock_read():
    check("import time\ntime.sleep(1)\n", [])


def test_rep001_flags_engine_hooks():
    # No module is allowlisted: the old profiler's home is linted too.
    check("import time\nt0 = time.perf_counter()\n", ["REP001"],
          path="src/repro/obs/engine_hooks.py")


def test_rep001_local_name_shadowing_not_flagged():
    # `time` here is a local, not the module; resolution must say None.
    check("def f(time):\n    return time.time()\n", [])


# -- REP002 randomness -------------------------------------------------------

def test_rep002_global_module_function():
    check("import random\nx = random.random()\n", ["REP002"])


def test_rep002_unseeded_random_instance():
    check("import random\nr = random.Random()\n", ["REP002"])


def test_rep002_explicit_none_seed_is_unseeded():
    check("import random\nr = random.Random(None)\n", ["REP002"])


def test_rep002_seeded_random_instance_ok():
    check("import random\nr = random.Random(42)\n", [])


def test_rep002_os_urandom_and_uuid4():
    check("import os\nimport uuid\nos.urandom(8)\nuuid.uuid4()\n",
          ["REP002", "REP002"])


def test_rep002_numpy_default_rng():
    check("import numpy as np\nrng = np.random.default_rng()\n", ["REP002"])
    check("import numpy as np\nrng = np.random.default_rng(7)\n", [])


def test_rep002_instance_methods_ok():
    # Draws on an owned (presumably seeded) generator are the sanctioned
    # pattern; only the global-module functions are flagged.
    check("def f(rng):\n    return rng.choice([1, 2])\n", [])


def test_rep002_retry_backoff_jitter_must_be_seeded():
    # Regression for the overload layer's retry paths: backoff jitter
    # drawn from module-level random is exactly the nondeterminism that
    # breaks byte-identical soak reruns; it must come from an
    # engine-seeded stream (ModuleOverload.jitter_ns).
    check(
        "import random\n"
        "def backoff(base_ns, attempt):\n"
        "    return base_ns * 2 ** attempt + random.randrange(1000)\n",
        ["REP002"],
    )
    check(
        "import random\n"
        "class Retrier:\n"
        "    def __init__(self, seed, name):\n"
        "        self.rng = random.Random(f'overload-client:{seed}:{name}')\n"
        "    def backoff(self, base_ns, attempt):\n"
        "        return base_ns * 2 ** attempt + self.rng.randrange(1000)\n",
        [],
    )


# -- REP003 iteration order --------------------------------------------------

def test_rep003_for_over_set_literal():
    check("for x in {1, 2, 3}:\n    pass\n", ["REP003"])


def test_rep003_set_difference():
    check("def f(a, b):\n    for x in set(a) - set(b):\n        pass\n",
          ["REP003"])


def test_rep003_list_of_set():
    check("def f(a):\n    return list(set(a))\n", ["REP003"])


def test_rep003_comprehension_over_vars():
    check("def f(o):\n    return [k for k in vars(o)]\n", ["REP003"])


def test_rep003_unsorted_listdir():
    check("import os\ndef f(p):\n    return os.listdir(p)\n", ["REP003"])


def test_rep003_sorted_launders():
    check("import os\ndef f(a, p):\n"
          "    for x in sorted(set(a)):\n        pass\n"
          "    return sorted(os.listdir(p))\n", [])


def test_rep003_dict_iteration_ok():
    check("def f(d):\n    for k in d:\n        pass\n", [])


def test_rep003_len_of_set_ok():
    check("def f(a):\n    return len(set(a))\n", [])


# -- REP004 float equality ---------------------------------------------------

def test_rep004_float_literal():
    check("def f(x):\n    return x == 1.5\n", ["REP004"])


def test_rep004_division_operand():
    check("def f(a, b, c):\n    if a / b != c:\n        return 1\n",
          ["REP004"])


def test_rep004_assert_exempt():
    check("def f(x):\n    assert x == 1.5\n", [])


def test_rep004_integer_comparison_ok():
    check("def f(x):\n    return x == 1\n", [])


# -- REP005 fidelity gates ---------------------------------------------------

_FID = "from repro.sim.fidelity import FIDELITY\n"


def test_rep005_gate_without_twin():
    check(_FID + "def f():\n"
          "    if FIDELITY.fast:\n        x = 1\n    return 2\n",
          ["REP005"])


def test_rep005_nested_gates():
    check(_FID + "def f():\n"
          "    if FIDELITY.fast:\n"
          "        if FIDELITY.fast:\n            return 1\n"
          "        return 2\n"
          "    return 3\n",
          ["REP005"])


def test_rep005_else_twin_ok():
    check(_FID + "def f():\n"
          "    if FIDELITY.fast:\n        a = 1\n"
          "    else:\n        a = 2\n    return a\n", [])


def test_rep005_early_return_twin_ok():
    check(_FID + "def f():\n"
          "    if FIDELITY.fast:\n        return 1\n"
          "    return 2\n", [])


def test_rep005_negated_gate_early_return_ok():
    check(_FID + "def f(n):\n"
          "    if not FIDELITY.fast or n <= 0:\n"
          "        return False\n"
          "    return True\n", [])


def test_rep005_unrelated_if_ok():
    check("def f(x):\n    if x:\n        y = 1\n    return 0\n", [])


def test_rep005_fidelity_gate_without_twin():
    check(_FID + "def f():\n"
          "    if FIDELITY.detailed:\n        x = 1\n    return 2\n",
          ["REP005"])


def test_rep005_fidelity_else_twin_ok():
    check(_FID + "def f():\n"
          "    if FIDELITY.detailed:\n        a = 1\n"
          "    else:\n        a = 2\n    return a\n", [])


def test_rep005_cross_switchboard_nesting():
    check(_FID + "def f():\n"
          "    if FIDELITY.fast:\n"
          "        if FIDELITY.detailed:\n            return 1\n"
          "        return 2\n"
          "    return 3\n",
          ["REP005"])


# -- REP006 engine discipline ------------------------------------------------

def test_rep006_heapq_outside_engine():
    check("import heapq\ndef f(q):\n    heapq.heappush(q, 1)\n", ["REP006"])


def test_rep006_queue_poke():
    check("def f(engine, cb):\n    engine._queue.append(cb)\n", ["REP006"])


def test_rep006_now_assignment():
    check("def f(engine):\n    engine.now = 5\n", ["REP006"])
    check("def f(engine):\n    engine.now += 5\n", ["REP006"])


def test_rep006_now_read_ok():
    check("def f(engine):\n    return engine.now\n", [])


def test_rep006_engine_file_exempt():
    check("import heapq\ndef f(q):\n    heapq.heappush(q, 1)\n", [],
          path="src/repro/sim/engine.py")


# -- REP007 handler hygiene --------------------------------------------------

def test_rep007_swallowing_broad_except():
    check("try:\n    f()\nexcept Exception:\n    pass\n", ["REP007"])


def test_rep007_bare_except():
    check("try:\n    f()\nexcept:\n    pass\n", ["REP007"])


def test_rep007_reraise_ok():
    check("try:\n    f()\nexcept Exception:\n    raise\n", [])


def test_rep007_counting_ok():
    check("import repro.obs as obs\n"
          "try:\n    f()\n"
          "except Exception:\n    obs.get().counter('x').inc()\n", [])


def test_rep007_narrow_except_ok():
    check("try:\n    f()\nexcept ValueError:\n    pass\n", [])


def test_rep007_broad_in_tuple():
    check("try:\n    f()\nexcept (ValueError, Exception):\n    pass\n",
          ["REP007"])


# -- REP008 mutable defaults -------------------------------------------------

def test_rep008_list_default():
    check("def f(x=[]):\n    return x\n", ["REP008"])


def test_rep008_dict_and_ctor_defaults():
    check("def f(x={}, y=set()):\n    return x, y\n", ["REP008", "REP008"])


def test_rep008_lambda_and_kwonly():
    check("g = lambda x=[]: x\n", ["REP008"])
    check("def f(*, x=dict()):\n    return x\n", ["REP008"])


def test_rep008_immutable_defaults_ok():
    check("def f(x=None, y=(), z='s', n=3):\n    return x, y, z, n\n", [])


# -- select / ignore ---------------------------------------------------------

def test_select_restricts_battery():
    src = "import time\ndef f(x=[]):\n    return time.time()\n"
    check(src, ["REP001", "REP008"])
    check(src, ["REP001"], select=["REP001"])
    check(src, ["REP008"], ignore=["REP001"])


# -- REP101 wallclock taint (transitive) -------------------------------------

def test_rep101_helper_one_call_away():
    check("import time\n"
          "def wall():\n"
          "    return time.time()\n"
          "def caller():\n"
          "    return wall()\n",
          ["REP001", "REP101"])


def test_rep101_noqa_on_source_cuts_the_chain():
    check("import time\n"
          "def wall():\n"
          "    return time.time()  "
          "# repro: noqa[REP001] reason=progress display only\n"
          "def caller():\n"
          "    return wall()\n",
          [])


def test_rep101_untainted_call_is_quiet():
    check("def helper():\n"
          "    return 1\n"
          "def caller():\n"
          "    return helper()\n",
          [])


# -- REP102 entropy taint (transitive) ---------------------------------------

def test_rep102_helper_one_call_away():
    check("import random\n"
          "def draw():\n"
          "    return random.random()\n"
          "def roll():\n"
          "    return draw()\n",
          ["REP002", "REP102"])


def test_rep102_seeded_stream_is_quiet():
    check("import random\n"
          "def draw(rng):\n"
          "    return rng.random()\n"
          "def roll():\n"
          "    return draw(random.Random(7))\n",
          [])


# -- REP103 environment reads (direct + transitive) --------------------------

def test_rep103_direct_getenv():
    check("import os\n"
          "def flagged():\n"
          "    return os.getenv('X')\n",
          ["REP103"])


def test_rep103_environ_get_and_subscript():
    check("import os\n"
          "def a():\n"
          "    return os.environ.get('X')\n"
          "def b():\n"
          "    return os.environ['X']\n",
          ["REP103", "REP103"])


def test_rep103_transitive_caller_also_flagged():
    check("import os\n"
          "def flagged():\n"
          "    return os.getenv('X')\n"
          "def caller():\n"
          "    return flagged()\n",
          ["REP103", "REP103"])


def test_rep103_switchboard_module_is_sanctioned():
    check("import os\n"
          "def load():\n"
          "    return os.getenv('REPRO_FIDELITY')\n",
          [], path="src/repro/sim/fidelity.py")


def test_rep103_whole_environ_copy_for_subprocess_ok():
    check("import os\n"
          "def env():\n"
          "    return dict(os.environ)\n",
          [])


# -- REP104 id()/hash() dependence -------------------------------------------

def test_rep104_id_and_hash():
    check("def k(o):\n    return id(o)\n", ["REP104"])
    check("def h(s):\n    return hash(s)\n", ["REP104"])


def test_rep104_transitive_caller():
    check("def k(o):\n"
          "    return id(o)\n"
          "def use(o):\n"
          "    return k(o)\n",
          ["REP104", "REP104"])


def test_rep104_method_named_hash_ok():
    check("def f(o):\n    return o.hash()\n", [])


# -- REP110 module-level mutable state ---------------------------------------

def test_rep110_subscript_write_to_module_dict():
    check("CACHE = {}\n"
          "def put(k, v):\n"
          "    CACHE[k] = v\n",
          ["REP110"])


def test_rep110_global_rebind():
    check("TOTAL = 0\n"
          "def bump():\n"
          "    global TOTAL\n"
          "    TOTAL = TOTAL + 1\n",
          ["REP110"])


def test_rep110_mutator_method_on_module_list():
    check("EVENTS = []\n"
          "def push(e):\n"
          "    EVENTS.append(e)\n",
          ["REP110"])


def test_rep110_local_container_ok():
    check("def f(k, v):\n"
          "    cache = {}\n"
          "    cache[k] = v\n"
          "    return cache\n",
          [])


def test_rep110_module_constant_read_ok():
    check("LIMIT = 8\n"
          "def f(x):\n"
          "    return x < LIMIT\n",
          [])


# -- REP111 class-attribute mutation -----------------------------------------

def test_rep111_write_through_dunder_class():
    check("class Gate:\n"
          "    armed = False\n"
          "    def arm(self):\n"
          "        self.__class__.armed = True\n",
          ["REP111"])


def test_rep111_class_level_mutable_mutated_via_self():
    check("class Registry:\n"
          "    shared = []\n"
          "    def add(self, x):\n"
          "        self.shared.append(x)\n",
          ["REP111"])


def test_rep111_instance_shadow_makes_it_per_object():
    check("class Registry:\n"
          "    shared = []\n"
          "    def __init__(self):\n"
          "        self.shared = []\n"
          "    def add(self, x):\n"
          "        self.shared.append(x)\n",
          [])


def test_rep111_plain_instance_attr_ok():
    check("class Point:\n"
          "    def move(self, dx):\n"
          "        self.x = dx\n",
          [])


# -- REP112 singletons and process-wide caches -------------------------------

def test_rep112_lru_cache_decorator():
    check("import functools\n"
          "@functools.lru_cache\n"
          "def memo(n):\n"
          "    return n\n",
          ["REP112"])


def test_rep112_module_singleton_attr_store():
    check("class Config:\n"
          "    pass\n"
          "CONFIG = Config()\n"
          "def tune(v):\n"
          "    CONFIG.mode = v\n",
          ["REP112"])


def test_rep112_singleton_read_ok():
    check("class Config:\n"
          "    pass\n"
          "CONFIG = Config()\n"
          "def mode():\n"
          "    return CONFIG.mode\n",
          [])


# -- REP113 loop-variable closure capture ------------------------------------

def test_rep113_lambda_captures_loop_var():
    check("def build():\n"
          "    fns = []\n"
          "    for i in (1, 2):\n"
          "        fns.append(lambda: i)\n"
          "    return fns\n",
          ["REP113"])


def test_rep113_comprehension_loop_var():
    check("def build(xs):\n"
          "    return [lambda: x for x in xs]\n",
          ["REP113"])


def test_rep113_default_binding_ok():
    check("def build():\n"
          "    fns = []\n"
          "    for i in (1, 2):\n"
          "        fns.append(lambda i=i: i)\n"
          "    return fns\n",
          [])


def test_rep113_lambda_outside_loop_ok():
    check("def build(i):\n"
          "    return lambda: i\n",
          [])
