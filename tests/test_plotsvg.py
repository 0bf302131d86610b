import math
import xml.etree.ElementTree as ET

import numpy as np

from floorsurvey.loopclosure import StepLoopClosure
from floorsurvey.plotsvg import EST_COLOR, SvgCanvas, render_scene
from floorsurvey.simulate import office_floorplan


def test_canvas_transform():
    c = SvgCanvas((0.0, 0.0, 10.0, 5.0), width=800.0, margin=20.0)
    # world y axis points up, pixel y axis points down
    assert c.to_px(0.0, 5.0) == (20.0, 20.0)
    px, py = c.to_px(10.0, 0.0)
    assert math.isclose(px, 780.0)
    assert math.isclose(py, c.height - 20.0)
    assert math.isclose(c.scale, 76.0)


def test_canvas_polyline_skips_degenerate():
    c = SvgCanvas((0, 0, 1, 1))
    c.polyline(np.array([[0.5, 0.5]]), "red")
    assert c.parts == []


def test_render_scene_is_valid_xml_and_deterministic():
    fp = office_floorplan()
    path = np.array([[2.0, 14.625], [10.0, 14.625], [10.0, 5.0]])
    closures = [StepLoopClosure(0, 2)]
    svg1 = render_scene(fp, [(path, EST_COLOR)], closures)
    svg2 = render_scene(fp, [(path, EST_COLOR)], closures)
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    tags = [el.tag.split("}")[1] for el in root]
    assert tags.count("polyline") == 1
    assert tags.count("circle") == 1
    assert tags.count("text") == len(fp.rooms)
