"""Tests for the reprolint engine, the shipped rules, and the CLI.

The fixture tree under ``fixtures/lint`` embeds the path markers
(``repro/gp/``, ``repro/data/``, ``repro/serve/``) that scope the rules,
with one deliberate violation per commented line -- the regression suite
the acceptance criteria call for.
"""

from pathlib import Path

import pytest

from repro.analysis.__main__ import main as lint_main
from repro.analysis.lint.engine import Allowlist, scan
from repro.analysis.lint.rules import default_rules

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _scan_fixtures(allowlist=None):
    return scan([FIXTURES], default_rules(), allowlist)


# ----------------------------------------------------------------------
# the seeded violations, rule by rule
# ----------------------------------------------------------------------
def test_fixtures_trigger_every_rule():
    reported, _ = _scan_fixtures()
    assert {f.rule for f in reported} == {
        "REPRO-L001", "REPRO-L002", "REPRO-L003", "REPRO-L004",
        "REPRO-L005", "REPRO-L006", "REPRO-L007",
    }


def test_guarded_attr_flags_only_the_unlocked_access():
    reported, _ = _scan_fixtures()
    l001 = [f for f in reported if f.rule == "REPRO-L001"]
    assert [f.qualname for f in l001] == ["LeakyStore.racy_bump"]
    # the locked access in locked_bump is NOT flagged
    assert all("locked_bump" not in f.qualname for f in l001)


def test_determinism_rule_finds_all_five_violations():
    reported, _ = _scan_fixtures()
    l002 = [f for f in reported if f.rule == "REPRO-L002"]
    assert len(l002) == 5
    assert all(f.qualname == "jitter" for f in l002)  # `fine` is clean


def test_atomic_publish_flags_the_direct_write():
    reported, _ = _scan_fixtures()
    l003 = [f for f in reported if f.rule == "REPRO-L003"]
    assert [f.qualname for f in l003] == [
        "LeakyStore.sneaky_write",
        "LeakyStore.sneaky_rename",
        "LeakyStore.sneaky_remove",
    ]


def test_swallowed_exception_flags_both_patterns():
    reported, _ = _scan_fixtures()
    assert {f.qualname for f in reported if f.rule == "REPRO-L004"} == {
        "LeakyStore.swallow", "LeakyStore.swallow_persistence",
    }


def test_fork_discipline_flags_rogue_process_and_dynamic_context():
    reported, _ = _scan_fixtures()
    l005 = [f for f in reported if f.rule == "REPRO-L005"]
    assert len(l005) == 2


def test_metric_names_flags_conventions_and_kind_conflict():
    reported, _ = _scan_fixtures()
    messages = [f.message for f in reported if f.rule == "REPRO-L006"]
    assert len(messages) == 4
    assert any("registered as gauge here but as counter" in m
               for m in messages)


def test_wall_clock_rule_flags_calls_and_references_tree_wide():
    reported, _ = _scan_fixtures()
    l007 = [f for f in reported if f.rule == "REPRO-L007"]
    # jitter's time.time() (seeded path, also L002) plus the non-seeded
    # fixture's datetime.now() call and default_factory=time.time reference.
    assert len(l007) == 3
    assert {f.qualname for f in l007} == {"jitter", "stamp_now", "Stamped"}
    assert any("default_factory" in f.message for f in l007)
    # time.perf_counter is monotonic, not wall clock: never flagged
    assert all("elapsed" not in f.qualname for f in l007)


# ----------------------------------------------------------------------
# allowlist mechanics
# ----------------------------------------------------------------------
def test_allowlist_suppresses_by_rule_path_and_qualname(tmp_path):
    allow = tmp_path / "allow"
    allow.write_text(
        "REPRO-L001 repro/data/bad_store.py::LeakyStore.racy_bump  # test\n"
    )
    reported, suppressed = _scan_fixtures(Allowlist.load(allow))
    assert all(f.rule != "REPRO-L001" for f in reported)
    assert any(f.rule == "REPRO-L001" for f in suppressed)


def test_allowlist_requires_justification(tmp_path):
    allow = tmp_path / "allow"
    allow.write_text("REPRO-L001 repro/data/bad_store.py\n")
    with pytest.raises(ValueError, match="justification"):
        Allowlist.load(allow)


def test_unused_allowlist_entries_are_reported(tmp_path, capsys):
    allow = tmp_path / "allow"
    allow.write_text("REPRO-L001 no/such/file.py  # stale\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    status = lint_main([str(clean), "--allowlist", str(allow)])
    assert status == 1
    assert "unused allowlist entry" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI exit codes (the acceptance criteria)
# ----------------------------------------------------------------------
def test_cli_exits_nonzero_on_fixture_violations(capsys):
    assert lint_main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "REPRO-L00" in out


def test_cli_exits_zero_on_clean_source(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f():\n    return 1\n")
    assert lint_main([str(clean)]) == 0


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules", "unused"]) == 0
    out = capsys.readouterr().out
    for number in range(1, 8):
        assert f"REPRO-L00{number}" in out


# ----------------------------------------------------------------------
# the tree itself is clean under the shipped allowlist
# ----------------------------------------------------------------------
def test_src_repro_is_clean_with_shipped_allowlist():
    allowlist = Allowlist.load(REPO_ROOT / "reprolint.allow")
    reported, suppressed = scan(
        [REPO_ROOT / "src" / "repro"], default_rules(), allowlist
    )
    assert reported == [], "\n".join(f.render() for f in reported)
    assert suppressed, "expected the allowlisted sites to be suppressed"
    assert not allowlist.unused_entries()
