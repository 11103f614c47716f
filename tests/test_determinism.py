"""No answer path reads a wall clock or draws from an unseeded random stream.

The bit-identity pins (warm and cold, serial and pooled, SQL and fluent, the
quality matrix re-run from its recorded seeds) hold only while the modules
that produce answers draw no ambient entropy.  This check parses
``hermes/``, ``qut/``, ``sql/`` and ``eval/quality.py`` and fails on a call
that reads the wall clock (``time.time``, ``datetime.now``, ``date.today``
and their kin) or draws from an interpreter-global stream (module-level
``random.*`` or ``numpy.random.*``).  Measuring a duration
(``time.perf_counter``) and constructing a seeded generator
(``random.Random(seed)``, ``np.random.default_rng(seed)``, a numpy bit
generator) stay legal; ``random.SystemRandom`` reads the operating system's
entropy pool and is not.

A call is resolved through the names its module imported, so
``from time import time as now; now()`` is found as ``time.time``; a method
on a local generator object (``rng.random()``) is never a module-level draw.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Packages and modules (under ``src/repro``) that must stay deterministic.
SCOPE = ("hermes", "qut", "sql", "eval/quality.py")

#: Fully qualified calls that read the wall clock.
CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Attributes of ``random`` / ``numpy.random`` that build or seed a generator
#: instead of drawing from the global one.
SEEDED = frozenset(
    {
        "Random",
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "seed",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)


def imported_names(tree: ast.Module) -> dict[str, str]:
    """Each name a module's absolute imports bind, mapped to what it names."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def call_target(func: ast.expr, names: dict[str, str]) -> str | None:
    """The dotted name a call resolves to through the imports, if it does."""
    attrs: list[str] = []
    while isinstance(func, ast.Attribute):
        attrs.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in names:
        return None
    return ".".join([names[func.id], *reversed(attrs)])


def is_ambient(target: str) -> bool:
    """Whether a resolved call reads the wall clock or draws from a global stream."""
    module, _, attr = target.rpartition(".")
    return target in CLOCKS or (module in ("random", "numpy.random") and attr not in SEEDED)


def scope_files(root: Path) -> list[Path]:
    package = root / "src" / "repro"
    files: list[Path] = []
    for entry in SCOPE:
        path = package / entry
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.exists():
            files.append(path)
    return files


def ambient_calls(root: Path = ROOT) -> list[str]:
    """``"<file>:<line>: <call>"`` for every ambient-entropy call in scope."""
    found = []
    for path in scope_files(root):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = imported_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                target = call_target(node.func, names)
                if target is not None and is_ambient(target):
                    found.append(f"{path.relative_to(root)}:{node.lineno}: {target}()")
    return found


def test_answer_paths_read_no_clock_and_no_global_random_stream():
    assert ambient_calls() == []


def test_every_scope_entry_exists():
    package = ROOT / "src" / "repro"
    assert [entry for entry in SCOPE if not (package / entry).exists()] == []


def tree_with(tmp_path: Path, source: str) -> Path:
    path = tmp_path / "src" / "repro" / "qut" / "m.py"
    path.parent.mkdir(parents=True)
    path.write_text(source)
    return tmp_path


@pytest.mark.parametrize(
    ("source", "call"),
    [
        ("import time\nt = time.time()\n", "time.time"),
        ("from time import time as now\ndef f():\n    return now()\n", "time.time"),
        ("import time as clock\nclock.time_ns()\n", "time.time_ns"),
        ("from datetime import datetime\ndatetime.now()\n", "datetime.datetime.now"),
        ("import datetime\ndatetime.date.today()\n", "datetime.date.today"),
        ("import random\nrandom.random()\n", "random.random"),
        ("from random import shuffle\nshuffle([])\n", "random.shuffle"),
        ("import numpy as np\nnp.random.rand()\n", "numpy.random.rand"),
        ("import numpy.random\nnumpy.random.permutation(3)\n", "numpy.random.permutation"),
        ("from numpy import random as npr\nnpr.normal()\n", "numpy.random.normal"),
        ("from time import time_ns\ntime_ns()\n", "time.time_ns"),
        ("from datetime import datetime as dt\ndt.utcnow()\n", "datetime.datetime.utcnow"),
        ("import datetime as d\nd.datetime.today()\n", "datetime.datetime.today"),
        ("from datetime import date\ndate.today()\n", "datetime.date.today"),
        ("import random as r\nr.choice([1])\n", "random.choice"),
        ("import random\nrandom.SystemRandom().random()\n", "random.SystemRandom"),
        ("from numpy.random import rand\nrand()\n", "numpy.random.rand"),
        ("import numpy.random as npr\nnpr.shuffle([])\n", "numpy.random.shuffle"),
    ],
)
def test_each_ambient_shape_is_found(tmp_path, source, call):
    line = len(source.splitlines())
    assert ambient_calls(tree_with(tmp_path, source)) == [f"src/repro/qut/m.py:{line}: {call}()"]


@pytest.mark.parametrize(
    "source",
    [
        "import time\nt0 = time.perf_counter()\ntime.monotonic()\n",
        "import random\nrng = random.Random(7)\nrng.random()\n",
        "import numpy as np\nrng = np.random.default_rng(7)\nrng.normal()\n",
        "import numpy as np\nnp.random.RandomState(3).rand()\n",
        "def time():\n    return 0\ntime()\n",
        "import time\nt0 = time.perf_counter_ns()\n",
        "import numpy as np\nrng = np.random.Generator(np.random.PCG64(7))\n",
        "import numpy as np\nchildren = np.random.SeedSequence(7).spawn(2)\n",
        "from . import random\nrandom.random()\n",
        "class C:\n    def time(self):\n        return 0\n\n    def f(self):\n        return self.time()\n",
    ],
)
def test_timers_and_seeded_generators_are_legal(tmp_path, source):
    assert ambient_calls(tree_with(tmp_path, source)) == []
