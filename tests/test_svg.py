"""SVG rendering: the inputs it refuses, with a plain ValueError before any file exists, and the bytes of degenerate plots."""
import hashlib
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


@pytest.mark.parametrize("series, sha256", [
    # y0 == y1: the y span opens to one unit
    ([Series([0.0, 1.0, 2.0], [3.0, 3.0, 3.0], label="flat")],
     "6fdc56fc177eaa575ab93749712b81551d2439d2b1b1fb0d921a78a7f057191d"),
    # x0 == x1: the x span opens to one unit
    ([Series([2.0, 2.0], [1.0, 3.0], label="vertical")],
     "34db070535a7c76aeddd373c70e0119fca726d6ec30f9fa46285214ec1fea2f5"),
    # a series with no plottable point draws nothing, beside one that has some
    ([Series([0.0, 1.0], [1.0, 2.0], label="line"), Series([0.0, 1.0], [math.nan, math.inf], label="none")],
     "b9adb799ecbf66700a70681531056d498b619b0680c7c83fbf45fb8dd7cc67fe"),
    # an unlabeled series has no legend entry
    ([Series([0.0, 1.0], [1.0, 2.0]), Series([0.0, 1.0], [2.0, 1.0], label="down")],
     "9541579ca2db75ca4ff6369f56a266369d2c79dc5a881dd7cf3bf773e39baed7"),
], ids=["constant", "one-x", "one-empty", "unlabeled"])
def test_svg_degenerate_input_bytes_frozen(series, sha256, tmp_path):
    path = tmp_path / "plot.svg"
    render_svg(str(path), series)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
