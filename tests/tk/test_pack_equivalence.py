"""The packer's layout pass against a reference that always lays out.

``Packer.arrange`` returns right after geometry propagation when the
parent's resize already re-arranged it through a nested pass that
finished with no pass started since: the outer pass would repeat that
pass on the same inputs.  Each test here runs a seeded random script of
pack changes twice, once with the reference pass below (the layout as
it was before the cut), and requires byte-identical wire traffic.
"""

import io
import random

import pytest

from repro.tk import TkApp
from repro.tk import geometry
from repro.x11 import XServer

SEEDS = range(12)

SIDES = ("top", "bottom", "left", "right")


def reference_arrange(packer, parent) -> None:
    """Propagate the parent's size, then always lay its slots out."""
    slots = packer._slots.get(parent)
    if not slots:
        return
    if not parent.explicit_size:
        need_width, need_height = packer.requested_size(parent)
        geometry.request_size(parent, need_width, need_height)
    width, height = parent.width, parent.height
    extra_x, extra_y = packer._expand_extras(slots, width, height)
    cavity_x, cavity_y = 0, 0
    cavity_w, cavity_h = width, height
    for slot in slots:
        if slot.side in ("top", "bottom"):
            band_h = min(slot.window.requested_height + 2 * slot.pady
                         + extra_y.get(slot, 0), cavity_h)
            band_w, band_x = cavity_w, cavity_x
            if slot.side == "top":
                band_y = cavity_y
                cavity_y += band_h
            else:
                band_y = cavity_y + cavity_h - band_h
            cavity_h -= band_h
        else:
            band_w = min(slot.window.requested_width + 2 * slot.padx
                         + extra_x.get(slot, 0), cavity_w)
            band_h, band_y = cavity_h, cavity_y
            if slot.side == "left":
                band_x = cavity_x
                cavity_x += band_w
            else:
                band_x = cavity_x + cavity_w - band_w
            cavity_w -= band_w
        packer._place(slot, band_x, band_y, band_w, band_h, width, height)


def _options(rng) -> str:
    tokens = [rng.choice(SIDES)]
    if rng.random() < 0.3:
        tokens.append("expand")
    if rng.random() < 0.4:
        tokens.append(rng.choice(("fill", "fillx", "filly")))
    for pad in ("padx", "pady"):
        if rng.random() < 0.25:
            tokens += [pad, str(rng.randrange(0, 9))]
    if rng.random() < 0.15:
        tokens += ["frame", rng.choice(("n", "se", "w", "center"))]
    return " ".join(tokens)


def random_script(seed, steps=70):
    """Tcl commands building, repacking and tearing down a seeded
    random tree of frames (some ``-geometry``-pinned) and buttons."""
    rng = random.Random(seed)
    lines = []
    containers, leaves, packed, unpacked = ["."], [], {}, []
    for step in range(steps):
        roll = rng.random()
        parent = rng.choice(containers)
        path = "%s.w%d" % ("" if parent == "." else parent, step)
        if roll < 0.22 and len(containers) < 7:
            pinned = rng.random() < 0.35
            lines.append("frame %s%s" % (path, " -geometry %dx%d" % (
                rng.randrange(20, 160), rng.randrange(20, 120))
                if pinned else ""))
            containers.append(path)
        elif roll < 0.55:
            lines.append("button %s -text %s"
                         % (path, "x" * rng.randrange(1, 14)))
            leaves.append(path)
        elif roll < 0.65 and leaves:
            lines.append("%s configure -text %s"
                         % (rng.choice(leaves), "y" * rng.randrange(1, 20)))
            continue
        elif roll < 0.74 and packed:
            path = rng.choice(sorted(packed))
            lines.append("pack unpack %s" % path)
            unpacked.append((path, packed.pop(path)))
            continue
        elif roll < 0.8 and unpacked:
            path, parent = unpacked.pop(rng.randrange(len(unpacked)))
            lines.append("pack append %s %s {%s}"
                         % (parent, path, _options(rng)))
            packed[path] = parent
            continue
        elif roll < 0.88 and len(containers) + len(leaves) > 1:
            path = rng.choice(containers[1:] + leaves)
            lines.append("destroy %s" % path)
            gone = [name for name in containers + leaves
                    if name == path or name.startswith(path + ".")]
            containers = [name for name in containers if name not in gone]
            leaves = [name for name in leaves if name not in gone]
            for name in gone:
                packed.pop(name, None)
            unpacked = [entry for entry in unpacked
                        if entry[0] not in gone]
            continue
        else:
            lines.append("update")
            continue
        lines.append("pack append %s %s {%s}"
                     % (parent, path, _options(rng)))
        packed[path] = parent
    lines.append("update")
    return lines


def run(lines, reference):
    """The wire frames, the final geometry and the number of window
    placements of one run of ``lines``."""
    app = TkApp(XServer(), name="packeq")
    app.interp.stdout = io.StringIO()
    packer = app.packer
    if reference:
        packer.arrange = lambda parent: reference_arrange(packer, parent)
    placed = []
    place = packer._place

    def counted_place(slot, *band):
        placed.append(slot.window.path)
        place(slot, *band)

    packer._place = counted_place
    frames = app.display.transport.capture_wire()
    for line in lines:
        app.interp.eval(line)
    layout = sorted((window.path, window.x, window.y, window.width,
                     window.height, window.mapped)
                    for window in app._windows_by_path.values())
    return frames, layout, len(placed)


@pytest.mark.parametrize("seed", SEEDS)
def test_wire_identical_to_always_outer_pass(seed):
    lines = random_script(seed)
    frames, layout, placed = run(lines, reference=False)
    ref_frames, ref_layout, ref_placed = run(lines, reference=True)
    assert frames == ref_frames
    assert layout == ref_layout
    assert placed < ref_placed          # the repeated passes are gone


def test_scripts_cover_every_feature():
    script = "\n".join(line for seed in SEEDS
                       for line in random_script(seed))
    for feature in ("-geometry", "pack unpack", "destroy", "expand",
                    "fillx", "filly", "padx", "pady", "{bottom",
                    "{left", "{right", "{top", "configure -text"):
        assert feature in script, feature
    # frames nested in frames
    assert any(line.startswith("frame .w") and line.count(".") >= 2
               for seed in SEEDS for line in random_script(seed))
