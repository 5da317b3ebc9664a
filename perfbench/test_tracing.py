"""The traced run must see every call, including those made through names a
module imported from another (cli and reference_checks import hull,
build_code and min_distance; lcd_construct_maxcur calls hull through the
globals of codes)."""

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import kummer_lcd.cli  # noqa: E402
from tracing import NAME, PARENT, TASK, Tracer, has_ancestor, layer_metrics  # noqa: E402


def test_lcd_check_hull_calls_are_all_traced():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.escaped() == []
        tracer.task = "task-0"
        with contextlib.redirect_stdout(io.StringIO()):
            code = kummer_lcd.cli.main(
                ["code", "lcd-check", "--construction", "hermitian", "--q", "3"])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.spans
    names = Counter(s[NAME] for s in spans)
    assert names["codes.lcd_construct_maxcur"] == 2
    assert names["codes.hull"] == 6
    hull_parents = Counter(spans[s[PARENT]][NAME] for s in spans if s[NAME] == "codes.hull")
    assert hull_parents == {"codes.lcd_construct_maxcur": 2, "cli._code_report": 4}
    assert all(s[TASK] == "task-0" for s in spans)
    assert spans[0][NAME] == "cli.main"
    assert all(has_ancestor(spans, i, "cli.main") for i in range(1, len(spans)))
    assert layer_metrics(tracer)["codes.hull_calls_per_cert"] == ("ratio", 3.0)


def test_uninstall_restores_every_binding():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert kummer_lcd.cli.hull is tracer.originals["codes.hull"]
    assert kummer_lcd.codes.hull is tracer.originals["codes.hull"]
    assert kummer_lcd.reference_checks.build_code is tracer.originals["codes.build_code"]
    assert kummer_lcd.cli.main is tracer.originals["cli.main"]
    from_rows = kummer_lcd.codes.LinearCode.__dict__["from_rows"]
    assert from_rows.__func__ is tracer.originals["codes.LinearCode.from_rows"]
