"""SVG rendering: the inputs it refuses, with a plain ValueError before any file exists."""
import math

import pytest

from qrmt.svg import Series, render_svg


@pytest.mark.parametrize("call, message", [
    (lambda path: Series([0.0, 1.0], [1.0]), "series x and y must have equal length"),
    (lambda path: Series([0.0], [1.0], style="wavy"),
     "style must be one of ['dashed', 'dotted', 'solid'], got 'wavy'"),
    (lambda path: render_svg(path, [Series([0.0, 1.0], [math.nan, math.inf])]), "nothing to plot"),
    # a log axis drops every value <= 0
    (lambda path: render_svg(path, [Series([1.0, 2.0], [0.0, -1.0])], ylog=True), "nothing to plot"),
], ids=["unequal-lengths", "unknown-style", "no-finite-point", "no-positive-point-on-log-axis"])
def test_svg_rejects_unplottable_input(call, message, tmp_path):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError) as exc:
        call(str(path))
    assert str(exc.value) == message
    assert not path.exists()
