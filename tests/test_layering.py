"""The packed monomial format stays inside ``nhq.repspace``.

The contraction kernel packs each monomial into one int (``_Codec``) and
multiplies on those ints (``_times``, ``_contract``,
``_contract_packed``), each contraction running the index schedule of its
shape (``_plan``, kept in ``_plans``), charging each sum's index
assignments first (``_charge``).  Every trace, block matrix and moment block is summed by
one public front-end, ``contracted``, from coded configurations and
``int`` numerators, closed items summed by ``_closed_sum`` and quantum
ones read from the trace cache (``_packed_trace``).  The reduction-ideal
check sums its four traced parts in that form with the same
``_closed_sum`` and compares them there (``_ratio``), and an
``IdealDecomposition`` holds them with their ``codec``.  The same trace
cache keeps each image's parts under its marked word, and
``ideal_image``, the one maker of a decomposition, sums them on a miss
itself (``_image_parts``), so no other module names the cache.  A
``WeylElement`` holds its terms in that form too (``_codec``,
``_packed``), and so does a ``PolyElement``:
both are made by ``_from_packed`` and re-packed by ``_join``.  Only
``repspace`` may know that format, so that changing it touches one
module: no other module of the package imports those names or reads them
as attributes.

Every element keyed by combinatorial data (``HH0Element``,
``PathAlgebraElement``, ``TensorElement``, ``QPAElement``, ``SymElement``,
``GlElement``) is packed too, in one store of its own: ``int`` numerators
per power of h over one denominator (``_sums``, ``_den``), a public
constructor's pairs kept until packed (``_given``), made by ``_from_sums``
and put in and out of canonical form by ``_canonical``, ``_pack`` and
``_view`` (``_pack`` is not checked: ``repspace`` names its own packing
so).  Only ``linear`` may know that form, but for ``_den``: a packed
operator holds ``int`` numerators over one denominator too and names it
so, and ``repspace`` reads its operators' (a keyed element's only
through ``int_terms``: ``_sums`` stays out of it); the kernels of the other
modules read and make it through the small API ``linear`` exports
(``packed``, ``int_terms``, ``bilinear``, ``rekeyed``, ``from_ints``), so
no other module names those; ``repspace`` puts its operators in the same
canonical form with ``lowest_terms`` and coerces rationals with
``numerators``.  The bracket's reading of packed necklaces
(``_cycles``) and HH0's cyclic check of a public constructor's words
(``_check_cyclic``) stay in ``necklace``.

The tuple-keyed ring arithmetic is gone from the package: the Weyl
product (``_weyl_mono_mul``), the monomial merge (``_merge_exponents``)
and the partial derivative (``poly_partial``) are oracles in
``tests/weyl_oracle.py``, and no module defines or names them.  Nor does
any module define or name the pass that multiplied each open-word entry
by tau's tokens (``_times_tau``): the re-expansion E is a sum of traces
of closed words, and the entries-times-tau route is the oracle
``contraction_oracle.tau_expansion``.  Nor are the contraction's former
front-ends left (``_contract_letters``, ``trace_configurations``,
``_traced``, ``_check_traces``, ``_boundary_entries``): each summed its
terms its own way, where ``contracted`` now sums them all.  Nor is the
renumbering of a straightening correction from its two dropped heights
(``_drop_pair``): a correction is cut from the successor permutation of
its configuration in height form, times one transposition.  Nor is the
second route to a generator image (``kept_image``, ``_kept_parts``,
``_made_image``), which built an image, kept its parts and built it again,
nor the second name of the trace cache's clearer (``clear_packed_traces``).
Nor is a second class or entry point of one generator's decomposition:
the parameter-free image (``IdealImage``), whose views took (r, lambda),
and its maker (``generator_image``) are one ``repspace.IdealDecomposition``
with its (r, lambda) bound, ``trace`` defines no wrapper class of it, and
a failed one is reported by ``trace.compare_report`` alone.
Nor is what only a get-or-compute call of the caches needed (``_split``,
``_Memo``, ``_trace_pairs``): every reader of a ``GenerationalCache`` reads
it with ``get`` and stores with ``put``, and the tests decode keys.  Nor
is the module-level rewrite budget (``_rewrites_left``): each top-level
straightening call makes its own and passes it down with the memo.

Every bound the package chooses is assigned in ``nhq.work`` alone, and
read as an attribute of that module when it is checked, so no module
imports one by name.  The two bounds of ``quiver`` are the capacity of the
``chr`` letter code, fixed by ``sys.maxunicode``, not chosen, and stay
there.

No private name is test-only code: every single-underscore function, class
or module-level name defined in the package is read somewhere in it.
"""

import ast
import os

import pytest

import nhq
from nhq import repspace, work
from nhq.schedler import clear_straighten_cache
from test_cli import q, run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nhq")
PACKED = {
    "_Codec",
    "_times",
    "_contract",
    "_contract_packed",
    "_plan",
    "_plans",
    "_charge",
    "_closed_sum",
    "_packed_trace",
    "_ratio",
    "codec",
    "_codec",
    "_packed",
    "_from_packed",
    "_join",
}
PACKED_SUMS = {"_sums", "_den", "_given", "_from_sums", "_canonical", "_view"}
#: the name of the rational form's denominator, in both packed stores
BOTH_STORES = {"_den"}
HH0_PACKED = {"_cycles", "_check_cyclic"}
TUPLE_KERNEL = {"_weyl_mono_mul", "_merge_exponents", "poly_partial"}
FRONT_ENDS = {"_contract_letters", "trace_configurations", "_traced", "_check_traces", "_boundary_entries"}
IMAGE_ROUTE = {"kept_image", "_kept_parts", "_made_image", "clear_packed_traces", "IdealImage", "generator_image"}
CACHE_CALL = {"_split", "_Memo", "_trace_pairs"}
RETIRED = TUPLE_KERNEL | {"_times_tau", "_drop_pair", "_rewrites_left"} | FRONT_ENDS | IMAGE_ROUTE | CACHE_CALL
LIMITS = {
    "MAX_NESTING",
    "MAX_EXPONENT",
    "MAX_MERGE_LETTERS",
    "MAX_INDEX_ASSIGNMENTS",
    "MAX_REWRITES",
    "MAX_KEY_BITS",
    "CACHE_SIZE",
    "CACHE_WEIGHT",
    "PLAN_WEIGHT",
}
#: the capacity of the ``chr`` letter code, fixed by ``sys.maxunicode``
CAPACITY = {("quiver.py", "MAX_ARROWS"), ("quiver.py", "MAX_VERTICES")}
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def packed_names_used(source: str, names=PACKED) -> set:
    """The ``names`` (by default ``PACKED``) that ``source`` imports or
    reads as attributes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names if alias.name in names)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.attr)
    return found


def names_anywhere(source: str, names) -> set:
    """The ``names`` that ``source`` defines, names or imports."""
    found = packed_names_used(source, names)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
            found.add(node.name)
        elif isinstance(node, ast.Name) and node.id in names:
            found.add(node.id)
    return found


def test_the_check_sees_both_forms():
    assert packed_names_used("from .repspace import _Codec, tau\n") == {"_Codec"}
    assert packed_names_used("from . import repspace\nrepspace._times(a, b, c, d)\n") == {"_times"}
    assert packed_names_used("from .repspace import _contract_letters\n") == set()
    assert packed_names_used("image = ideal_image(q, d, v, w, g, p)\nimage.codec\n") == {"codec"}
    assert packed_names_used("x = trace_quantum(c, d)\nx._packed\n") == {"_packed"}
    assert packed_names_used("x = necklace_bracket(a, b)\nx._sums, x._den\n", PACKED_SUMS) == {"_sums", "_den"}
    assert packed_names_used("from .linear import _canonical, from_ints\n", PACKED_SUMS) == {"_canonical"}
    assert packed_names_used("from .necklace import _cycles, necklace_key\n", HH0_PACKED) == {"_cycles"}
    assert names_anywhere("def _weyl_mono_mul(m1, m2):\n    pass\n", TUPLE_KERNEL) == {"_weyl_mono_mul"}
    assert names_anywhere("list(_weyl_mono_mul(a, b))\n", TUPLE_KERNEL) == {"_weyl_mono_mul"}
    assert names_anywhere("from .linear import _merge_exponents\n", TUPLE_KERNEL) == {"_merge_exponents"}
    assert names_anywhere("x = repspace.poly_partial(f, v)\n", TUPLE_KERNEL) == {"poly_partial"}
    assert names_anywhere("def _times_tau(acc, sign):\n    pass\n", RETIRED) == {"_times_tau"}
    assert names_anywhere("from .repspace import _contract_letters, contracted\n", RETIRED) == {"_contract_letters"}
    assert names_anywhere("total = trace_configurations(q, d, terms)\n", RETIRED) == {"trace_configurations"}
    assert names_anywhere("key = _drop_pair(pieces, idems, h)\n", RETIRED) == {"_drop_pair"}
    assert names_anywhere("return kept_image(q, d, v, w, _made_image)\n", RETIRED) == {"kept_image", "_made_image"}
    assert names_anywhere("class _Memo(dict):\n    put = dict.__setitem__\n", RETIRED) == {"_Memo"}
    assert names_anywhere("return _rewrite(*_split(key), pick, None, memo)\n", RETIRED) == {"_split"}
    assert names_anywhere("_rewrites_left[0] = MAX_REWRITES\n", RETIRED) == {"_rewrites_left"}
    assert names_anywhere("return IdealImage(q, d, v, w)\n", RETIRED) == {"IdealImage"}
    assert names_anywhere("from .trace import generator_image\n", RETIRED) == {"generator_image"}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "repspace.py"])
def test_only_repspace_knows_the_packed_format(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert packed_names_used(fh.read()) == set()


@pytest.mark.parametrize("module", [m for m in MODULES if m != "necklace.py"])
def test_only_necklace_knows_the_packed_hh0_form(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert packed_names_used(fh.read(), HH0_PACKED) == set()


@pytest.mark.parametrize("module", [m for m in MODULES if m != "linear.py"])
def test_only_linear_knows_the_packed_sums(module):
    names = PACKED_SUMS - BOTH_STORES if module == "repspace.py" else PACKED_SUMS
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert packed_names_used(fh.read(), names) == set()


@pytest.mark.parametrize("module", MODULES)
def test_the_tuple_weyl_product_lives_in_the_tests(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert names_anywhere(fh.read(), RETIRED) == set()


def test_one_class_holds_a_generator_decomposition():
    defining = set()
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if any(isinstance(node, ast.ClassDef) and node.name == "IdealDecomposition" for node in ast.walk(tree)):
            defining.add(module)
    assert defining == {"repspace.py"}
    assert nhq.IdealDecomposition is repspace.IdealDecomposition
    assert not hasattr(repspace.IdealDecomposition, "report")


def module_level_names(tree) -> set:
    """The names the module-level assignments of ``tree`` bind."""
    found = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        found.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store))
    return found


def private_names(source: str) -> tuple:
    """The single-underscore names ``source`` defines (functions and
    classes at any depth, module-level assignments) and those it reads (by
    name, as an attribute, or by import)."""
    tree = ast.parse(source)
    private = lambda name: name.startswith("_") and not name.startswith("__")
    defined, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    defined |= module_level_names(tree)
    return {name for name in defined if private(name)}, read


def test_the_private_name_scan_sees_every_reader():
    source = "_A = 1\n_B, c = 2, 3\n_T[0] = 4\ndef _f():\n    return _A\nclass _K:\n    def _m(self):\n        pass\n"
    assert private_names(source)[0] == {"_A", "_B", "_f", "_K", "_m"}
    unread = lambda src: private_names(src)[0] - private_names(src)[1]
    assert unread(source) == {"_B", "_f", "_K", "_m"}
    assert unread(source + "_f()\nx = _K()._m\nfrom .m import _B\n") == set()
    assert unread("def __init__(self):\n    pass\n") == set()


def test_every_private_name_has_a_reader_in_src():
    defined, read = set(), set()
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            names, reads = private_names(fh.read())
        defined |= names
        read |= reads
    assert defined - read == set()


def bounds(source: str) -> set:
    """The module-level names ``source`` assigns that name a bound:
    ``MAX_*``, ``*_WEIGHT`` and ``CACHE_SIZE``."""
    names = module_level_names(ast.parse(source))
    return {n for n in names if n.startswith("MAX_") or n.endswith("_WEIGHT") or n == "CACHE_SIZE"}


def test_the_bound_scan_sees_every_assignment():
    source = "MAX_A = 1\nB_WEIGHT: int = 2\nCACHE_SIZE, c = 3, 4\nMAX_D[0] = 5\ndef f():\n    MAX_E = 6\n"
    assert bounds(source) == {"MAX_A", "B_WEIGHT", "CACHE_SIZE"}


def test_every_chosen_bound_is_assigned_in_work_alone():
    found = set()
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            found |= {(module, name) for name in bounds(fh.read())}
    assert found - CAPACITY == {("work.py", name) for name in LIMITS}


@pytest.mark.parametrize("module", MODULES)
def test_bounds_are_read_from_work_when_checked(module):
    # no module binds a bound of its own by import, so patching ``work``
    # reaches every reader; repspace takes one name from schedler
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert not names & LIMITS, (module, node.module)
            if (module, node.module) == ("repspace.py", "schedler"):
                assert names == {"ideal_normal_forms"}


@pytest.mark.parametrize(
    "limit, amount, argv, code, message",
    [
        ("MAX_NESTING", 4, ("bracket", "((([x])))", "[x']"), 2, "position 3: brackets nest deeper than 3 levels"),
        ("MAX_EXPONENT", 4, ("bracket", "h^4*[x]", "[x']"), 2, "position 2: exponent 4 is above the limit 3"),
        (
            "MAX_INDEX_ASSIGNMENTS",
            4,
            ("bracket", "(1+h)^2*[x]", "[x']"),
            2,
            "position 5: power needs a product of 2*2 terms, above the limit 3",
        ),
        (
            "MAX_INDEX_ASSIGNMENTS",
            4,
            ("trace", "--dim", "v=2", "[x.x']"),
            3,
            "contraction has 4 index assignments, above the limit 3",
        ),
        ("MAX_MERGE_LETTERS", 4, ("bracket", "[x.x']", "[x.x']"), 3, "bracket merges hold up to 4 letters, above the limit 3"),
        ("MAX_MERGE_LETTERS", 2, ("dbracket", "x.x", "x'"), 3, "double bracket terms hold up to 2 letters, above the limit 1"),
        ("MAX_REWRITES", 1, ("qmul", "(x',1)", "(x,1)"), 3, "straightening needs more rewrites than the limit 0"),
        # 4 coordinates at v=2, two fields each, and the h field, one bit wide
        ("MAX_KEY_BITS", 9, ("trace", "--dim", "v=2", "[x]"), 3, "packed keys need 9 bits, above the limit 8"),
    ],
)
def test_a_lowered_bound_refuses_a_small_load(limit, amount, argv, code, message, monkeypatch, capsys):
    """Each bound, lowered on ``work`` alone, admits a load of exactly its
    amount and refuses it one below, with the message and exit code of the
    refusal at the default bound.  The layouts are made afresh, as the
    first of a process is."""
    verb, *rest = argv
    repspace._codec.cache_clear()
    monkeypatch.setattr(work, limit, amount - 1)
    assert run(verb, "-q", q("jordan"), *rest) == (code, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.setattr(work, limit, amount)
    clear_straighten_cache()
    assert run(verb, "-q", q("jordan"), *rest)[0] == 0


def test_each_straightening_call_has_a_budget_of_its_own(J, monkeypatch):
    """Two ``qpa_mul`` calls in a row, each with cold caches, under a bound
    of exactly what one of them needs: both pass, so the second starts
    from a budget of its own."""
    from nhq import WorkLimitError, qpa_mul
    from nhq.expr import parse_qpa_element

    x, y = parse_qpa_element(J, "(x',1)(x',2)"), parse_qpa_element(J, "(x,1)(x,2)")
    expected = qpa_mul(x, y)
    monkeypatch.setattr(work, "MAX_REWRITES", 4)
    clear_straighten_cache()
    with pytest.raises(WorkLimitError, match="needs more rewrites than the limit 4"):
        qpa_mul(x, y)
    monkeypatch.setattr(work, "MAX_REWRITES", 5)
    for _ in range(2):
        clear_straighten_cache()
        assert qpa_mul(x, y) == expected
