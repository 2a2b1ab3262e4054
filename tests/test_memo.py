"""What a sweep reuses lives in the plans of the command that asked, not in a module."""

import copy
import importlib
import pkgutil
import random
import tracemalloc
import types

import ccodes
from ccodes import cli, enumerator, oracle


def _contents(value):
    """What a command could change inside a value: a container's items, an object's fields."""
    if isinstance(value, (dict, list, set)):
        return copy.copy(value)
    if isinstance(value, (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)):
        return None
    fields = {name: getattr(value, name, None) for name in getattr(type(value), "__slots__", ())}
    attrs = getattr(value, "__dict__", None)  # a class's or an alias's is a read-only proxy
    return fields or (dict(attrs) if isinstance(attrs, dict) else None)


def _module_globals() -> dict:
    """(module, name) -> (value, _contents(value)) for every global of every ccodes module."""
    names = ["ccodes"] + [f"ccodes.{info.name}" for info in pkgutil.iter_modules(ccodes.__path__)]
    return {(name, attr): (value, _contents(value))
            for name in names for attr, value in vars(importlib.import_module(name)).items()
            if not attr.startswith("__")}


def test_no_module_keeps_a_value_across_commands(capsys):
    # every route keeps what a sweep reuses in its plan, which its command drops
    before = _module_globals()
    assert ("ccodes.enumerator", "weight_enumerators") in before
    for argv in (("table", "--family", "vt", "--quantity", "nt", "--n", "1..8", "--b", "all"),
                 ("table", "--family", "levenshtein", "--k", "10", "--n", "7", "--b", "all"),
                 ("verify", "--family", "vt", "--n", "1..8", "--b", "all",
                  "--methods", "exact,closed,float,brute")):
        assert cli.main(list(argv)) == 0
    assert capsys.readouterr().err == ""
    after = _module_globals()
    assert after.keys() == before.keys()
    for key, (value, contents) in before.items():
        assert after[key][0] is value, key
        assert _contents(value) == contents, key


def test_another_code_frees_the_last_codes_values(monkeypatch, capsys):
    # a fold of 16 random coefficients mod 10^9+7 reaches 2^16 residues, about 7.9 MB;
    # verify drops the first code's plans, that fold among them, before the second code
    # builds anything
    rng = random.Random(35)
    coeffs = ",".join(str(rng.randrange(10**9 + 7)) for _ in range(16))
    held = []
    for name in ("fold_plan", "brute_plan"):
        make = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda code, make=make: held.append(
            tracemalloc.get_traced_memory()[0]) or make(code))
    tracemalloc.start()
    try:
        assert cli.main(["verify", "--family", "blcc", "--coeffs", coeffs,
                         "--mod", "1000000007..1000000008", "--b", "0",
                         "--methods", "exact,brute", "--quiet"]) == 0
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.count("PASS ") == 2
    # each code plans its fold, then its brute force with the fold held
    assert len(held) == 4
    assert held[1] - held[0] > 5 << 20
    assert held[2] - held[0] < 1 << 20


def test_one_codes_routes_coexist(monkeypatch, capsys):
    # a --b all sweep of one code keeps its fold, float rows and brute cells together
    built = []
    fold, cells, float_plan = enumerator.residue_product, oracle._cells, enumerator._float_plan

    def counting_plan(code, width, size, build, *reads):
        def counted(ms, *tables):
            built.append("float")
            return build(ms, *tables)

        return float_plan(code, width, size, counted, *reads)

    monkeypatch.setattr(enumerator, "residue_product",
                        lambda *args: built.append("fold") or fold(*args))
    monkeypatch.setattr(oracle, "_cells", lambda *args: built.append("brute") or cells(*args))
    monkeypatch.setattr(enumerator, "_float_plan", counting_plan)
    assert cli.main(["verify", "--family", "levenshtein", "--k", "10", "--n", "7",
                     "--b", "all", "--methods", "exact,float,brute"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["PASS"] * 7 + ["7/7"]
    assert built == ["fold", "float", "brute"]  # 7 * 11 cells: one float block
