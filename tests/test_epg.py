from __future__ import annotations

import gc
import math
import pickle
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palatogram import (
    DomainError,
    DomeShape,
    DomeSlice,
    EPGFrame,
    Intersection,
    NoContact,
    PalateGeometry,
    ShapingParams,
    TipManner,
    TongueContour,
    classify_slice,
    compute_epg,
    default_library,
    default_palate,
    epg_text,
    epg_to_dict,
    slice_at,
)
from palatogram import epg
from conftest import s0_geometry
import oracles


def flat(u: float, x0: float = 0.0, x1: float = 10.0) -> TongueContour:
    return TongueContour(points=((x0, u), (x1, u)))


def test_all_false_below_baseline():
    frame = compute_epg(s0_geometry(DomeShape.COSINE), flat(-2.0), ShapingParams())
    assert frame.contact_count == 0


def test_all_true_above_apex():
    frame = compute_epg(s0_geometry(DomeShape.COSINE), flat(20.0), ShapingParams())
    assert frame.contact_count == 64


def test_flat_half_height_matches_inversion():
    geometry = s0_geometry(DomeShape.COSINE)
    frame = compute_epg(geometry, flat(5.0), ShapingParams(), rows=8, cols=8)
    contact = classify_slice(geometry.slices[0], 5.0)
    assert isinstance(contact, Intersection)
    for i, x in enumerate(frame.x_of_row):
        sl = slice_at(geometry, x)
        for j, f in enumerate(frame.z_frac_of_col):
            z = sl.z_center + (f - 0.5) * sl.span
            expected = z <= contact.z_left or z >= contact.z_right
            assert frame.cells[i][j] == expected
    # outer two columns on each side sit beyond the half-height crossing
    assert list(frame.cells[0]) == [True, True, False, False, False, False, True, True]


@pytest.mark.parametrize("shape", list(DomeShape))
@pytest.mark.parametrize("cols", [4, 8, 16, 64])
def test_consistency_with_analytic_solver(shape, cols):
    geometry = default_palate(shape)
    for u in (-1.0, 0.0, 2.3, 5.0, 8.7, 11.5, 14.0):
        contour = flat(u, geometry.x_min, geometry.x_max)
        frame = compute_epg(geometry, contour, ShapingParams(), rows=8, cols=cols)
        for i, x in enumerate(frame.x_of_row):
            sl = slice_at(geometry, x)
            contact = classify_slice(sl, u)
            for j, f in enumerate(frame.z_frac_of_col):
                z = sl.z_center + (f - 0.5) * sl.span
                if isinstance(contact, NoContact):
                    expected = False
                elif isinstance(contact, Intersection):
                    expected = z <= contact.z_left or z >= contact.z_right
                else:
                    expected = True
                assert frame.cells[i][j] == expected


def test_monotone_in_tongue_height():
    geometry = default_palate(DomeShape.COSINE)
    contour = TongueContour(points=((0.0, -2.0), (15.0, 6.0), (28.0, 9.5), (40.0, 1.0)))
    base = compute_epg(geometry, contour, ShapingParams())
    raised_points = tuple((x, u + 1.5) for x, u in contour.points)
    raised = compute_epg(geometry, TongueContour(points=raised_points), ShapingParams())
    for row_a, row_b in zip(base.cells, raised.cells):
        for a, b in zip(row_a, row_b):
            assert b or not a


@pytest.mark.parametrize("shape", list(DomeShape))
def test_left_right_symmetry_on_presets(shape):
    geometry = default_palate(shape)
    for target in default_library():
        frame = compute_epg(geometry, target.contour, target.params)
        for row in frame.cells:
            assert list(row) == list(reversed(row))


@pytest.mark.parametrize("shape", list(DomeShape))
def test_grid_refinement_stability(shape):
    # refining 8 -> 64 columns never flips a region wider than 2 coarse cells
    geometry = default_palate(shape)
    for target in default_library():
        coarse = compute_epg(geometry, target.contour, target.params, rows=8, cols=8)
        fine = compute_epg(geometry, target.contour, target.params, rows=8, cols=64)
        for ci, fi in zip(coarse.cells, fine.cells):
            disagree = []
            for j in range(8):
                sub = fi[8 * j : 8 * (j + 1)]
                majority = sum(sub) > 4 if ci[j] else sum(sub) < 4
                disagree.append(not (majority or sum(sub) == 4))
            run = longest = 0
            for d in disagree:
                run = run + 1 if d else 0
                longest = max(longest, run)
            assert longest <= 2


def test_contour_over_the_posterior_half_rasterizes_the_overlap():
    # the rows span only where contour and palate overlap, so every row is raised
    geometry = default_palate(DomeShape.COSINE)
    contour = flat(20.0, 20.0, 40.0)
    frame = compute_epg(geometry, contour, ShapingParams(), rows=8, cols=8)
    assert frame.contact_count == 64
    assert frame.x_of_row[0] > 20.0


def narrow_overlap(x: float, n: int) -> tuple[float, float]:
    """x and the float n steps above it, or n steps below where above passes 1e6."""
    toward = math.inf if n <= 1e6 - x else -math.inf  # one float step is far below 1 mm
    y = x
    for _ in range(n):
        y = math.nextafter(y, toward)
    return (x, y) if x < y else (y, x)


def wide_overlap(x: float, width: float) -> tuple[float, float]:
    return (x, x + width) if x + width <= 1e6 else (x - width, x)


overlaps = st.one_of(
    st.tuples(
        st.one_of(st.sampled_from([-1e6, -1.0, 0.0, 1e6]), st.floats(-1e6, 1e6)),
        st.integers(1, 2000),
    ).map(lambda args: narrow_overlap(*args)),
    st.tuples(st.floats(-1e6, 1e6), st.floats(1e-6, 1e3)).map(lambda args: wide_overlap(*args)),
)


@settings(max_examples=300, deadline=None)
@given(
    overlap=overlaps,
    rows=st.one_of(st.sampled_from([1, 2, 1023, 1024]), st.integers(1, 1024)),
    layout=st.sampled_from(["palate inside", "contour inside", "staggered"]),
)
@example(overlap=(math.nextafter(1e6, 0.0), 1e6), rows=1024, layout="staggered")
@example(overlap=(-1e6, math.nextafter(-1e6, 0.0)), rows=1024, layout="palate inside")
def test_every_row_lies_inside_the_palate_and_the_contour(overlap, rows, layout):
    lo, hi = overlap
    wide_lo, wide_hi = max(lo - 5.0, -1e6), min(hi + 5.0, 1e6)
    palate_range, contour_range = {
        "palate inside": ((lo, hi), (wide_lo, wide_hi)),
        "contour inside": ((wide_lo, wide_hi), (lo, hi)),
        "staggered": ((wide_lo, hi), (lo, wide_hi)),
    }[layout]
    geometry = PalateGeometry(
        slices=tuple(DomeSlice(x=x, z_min=-10.0, z_max=10.0, h=5.0) for x in palate_range)
    )
    contour = TongueContour(points=tuple((x, 1.0) for x in contour_range))
    # an overlap of fewer floats than rows repeats positions
    x_of_row = compute_epg(geometry, contour, ShapingParams(), rows=rows, cols=2).x_of_row
    assert len(x_of_row) == rows
    assert all(lo <= x <= hi for x in x_of_row)


def test_requires_overlap_and_counts():
    geometry = s0_geometry(DomeShape.COSINE)
    with pytest.raises(DomainError):
        compute_epg(geometry, flat(1.0, 50.0, 60.0), ShapingParams())
    with pytest.raises(DomainError):
        compute_epg(geometry, flat(1.0), ShapingParams(), rows=0)
    with pytest.raises(DomainError):
        compute_epg(geometry, flat(1.0), ShapingParams(), cols=1)


def test_epg_text_direct():
    frame = EPGFrame(cells=((True, False, False, True),), x_of_row=(1.0,))
    assert epg_text(frame) == "#..#\n"
    assert (frame.rows, frame.cols) == (1, 4)
    assert frame.z_frac_of_col == (0.125, 0.375, 0.625, 0.875)
    empty = EPGFrame(cells=((False, False), (False, False)), x_of_row=(1.0, 2.0))
    assert epg_text(empty) == "..\n..\n"
    assert len(epg_text(empty)) == 2 * (2 + 1)


def test_epg_text_of_hand_built_frames():
    # epg_text reads a row's text again only when the row is not the one
    # before it: equal rows made apart, alternating rows and runs of one
    # object each come out as the per-cell join
    a = (True, False, False, True)
    apart = tuple(list(a))  # equal to a, another tuple
    ints = (1, 0, 0, 255)  # a's text, from cells of other values
    b = (False, True, True, False)
    grids = [
        (a, apart, a, apart),
        (a, b, a, b, a),
        (a, a, a, b, b, apart, apart, a),
        (b,) * 5 + (a,),
        (a, ints, a, ints, ints, apart),
        (apart, a, b, b, a, apart),
    ]
    for grid in grids:
        frame = EPGFrame(cells=grid, x_of_row=tuple(map(float, range(len(grid)))))
        assert epg_text(frame) == oracles.epg_text(frame)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 40), data=st.data())
@example(rows=1, cols=2, data=None)
@example(rows=1, cols=1024, data=None)
@example(rows=12, cols=5, data=None)
def test_epg_text_matches_the_per_cell_join(rows, cols, data):
    # any 0-255 int is a cell to the byte table, read by its truth as before;
    # epg_text translates each row object once, so rows are drawn from a
    # pool, each as the pool's own object or as an equal one made apart
    cells = st.one_of(st.booleans(), st.integers(0, 255), st.sampled_from([0, 1, 255]))
    if data is None:  # equal rows, each its own object
        grid = tuple(tuple(bool(j % 3) for j in range(cols)) for _ in range(rows))
    else:
        pool = data.draw(st.lists(st.tuples(*[cells] * cols), min_size=1, max_size=rows))
        picks = st.tuples(st.integers(0, len(pool) - 1), st.booleans())
        grid = tuple(
            pool[k] if shared else tuple(list(pool[k]))
            for k, shared in data.draw(st.lists(picks, min_size=rows, max_size=rows))
        )
    frame = EPGFrame(cells=grid, x_of_row=tuple(map(float, range(rows))))
    assert epg_text(frame) == oracles.epg_text(frame)
    # every row one object
    frame = EPGFrame(cells=(grid[-1],) * rows, x_of_row=frame.x_of_row)
    assert epg_text(frame) == oracles.epg_text(frame)


# the grids of the raster benchmark, and the 8 x 8 of the CLI and animations
RASTER_GRIDS = [(48, 48), (62, 62), (64, 48), (80, 64), (100, 64), (8, 8)]


@pytest.mark.parametrize("shape", list(DomeShape))
@pytest.mark.parametrize("rows, cols", RASTER_GRIDS)
def test_equal_rows_of_a_preset_frame_are_one_tuple(shape, rows, cols):
    geometry = default_palate(shape)
    for target in default_library():
        cells = compute_epg(geometry, target.contour, target.params, rows=rows, cols=cols).cells
        assert len({id(row) for row in cells}) == len(set(cells))


def test_a_frame_of_shared_rows_compares_and_pickles_as_one_of_its_own_rows():
    target = default_library().get("s")
    frame = compute_epg(default_palate(), target.contour, target.params, rows=48, cols=48)
    shared = len({id(row) for row in frame.cells})
    assert shared < frame.rows
    apart = EPGFrame(tuple(tuple(list(row)) for row in frame.cells), frame.x_of_row)
    assert len({id(row) for row in apart.cells}) == frame.rows
    assert frame == apart and hash(frame) == hash(apart) and repr(frame) == repr(apart)
    twin = pickle.loads(pickle.dumps(frame))
    assert twin == frame and repr(twin) == repr(frame)
    assert pickle.loads(pickle.dumps(apart)) == twin
    # pickling keeps a shared row shared
    assert len({id(row) for row in twin.cells}) == shared


def test_epg_text_t_preset_anterior_closure():
    geometry = default_palate(DomeShape.COSINE)
    target = default_library().get("t")
    text = epg_text(compute_epg(geometry, target.contour, target.params))
    assert text.splitlines()[0] == "########"


def test_frame_validation():
    with pytest.raises(DomainError, match="same length"):
        EPGFrame(cells=((True, False), (True,)), x_of_row=(0.0, 1.0))
    with pytest.raises(DomainError, match="one position per row"):
        EPGFrame(cells=((True, False),), x_of_row=(0.0, 1.0))
    with pytest.raises(DomainError, match="nondecreasing"):
        EPGFrame(cells=((True,), (False,)), x_of_row=(1.0, math.nextafter(1.0, 0.0)))
    # rows over an overlap of fewer floats than rows share positions
    frame = EPGFrame(cells=((True,), (False,), (True,)), x_of_row=(0.0, 0.0, 5e-324))
    assert frame.x_of_row == (0.0, 0.0, 5e-324)


@pytest.mark.parametrize(
    "cells, x_of_row", [((), ()), (((),), (0.0,)), (((), ()), (0.0, 1.0))],
    ids=["no-rows", "no-columns", "rows-without-columns"],
)
def test_frame_without_rows_or_columns_is_rejected(cells, x_of_row):
    # an empty grid used to build, then divide by zero in the palatal renderers
    with pytest.raises(DomainError, match="at least one row and one column"):
        EPGFrame(cells=cells, x_of_row=x_of_row)


def test_epg_to_dict():
    geometry = s0_geometry(DomeShape.COSINE)
    frame = compute_epg(geometry, flat(5.0), ShapingParams(), rows=2, cols=4)
    doc = epg_to_dict(frame)
    assert set(doc) == {"rows", "cols", "cells", "x_of_row", "z_frac_of_col"}
    assert doc["rows"] == 2 and doc["cols"] == 4
    assert all(isinstance(v, bool) for row in doc["cells"] for v in row)


def test_shaped_rasterization_uses_field():
    geometry = s0_geometry(DomeShape.COSINE)
    params = ShapingParams(
        tt_manner=TipManner.FULL, tth=1.0, edge_elev_max=8.0, posterior_onset_x=-10.0
    )
    plain = compute_epg(geometry, flat(3.0), ShapingParams(), rows=4, cols=8)
    shaped = compute_epg(geometry, flat(3.0), params, rows=4, cols=8)
    assert shaped.contact_count > plain.contact_count


def test_dome_rows_are_sampled_once_per_palate_and_lattice(monkeypatch):
    # one slice_at and one dome_profile call per row on the first frame of
    # a kept lattice, none for another tongue on it, and one per row on every
    # frame of the first lattice past the bound
    calls = {"slice_at": 0, "dome_profile": 0}
    for name in calls:
        real = getattr(epg, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(epg, name, counted)
    epg._dome_rows.cache_clear()
    geometry = default_palate()
    first, second = list(default_library())[:2]
    sampled = 0
    for side in (8, math.isqrt(epg._CACHED_CELLS)):
        compute_epg(geometry, first.contour, first.params, rows=side, cols=side)
        sampled += side
        assert calls == {"slice_at": sampled, "dome_profile": sampled}
        compute_epg(geometry, second.contour, second.params, rows=side, cols=side)
        assert calls == {"slice_at": sampled, "dome_profile": sampled}
    side = math.isqrt(epg._CACHED_CELLS) + 1
    for target in (first, second, first):
        compute_epg(geometry, target.contour, target.params, rows=side, cols=side)
        sampled += side
        assert calls == {"slice_at": sampled, "dome_profile": sampled}


def test_contour_is_walked_once_per_frame(monkeypatch):
    # every row's midline height comes from one call, kept lattice or not
    walks = []
    real = epg.midsagittal_heights
    monkeypatch.setattr(epg, "midsagittal_heights", lambda c, xs: walks.append(xs) or real(c, xs))
    geometry, target = default_palate(), list(default_library())[0]
    for side in (8, 8, math.isqrt(epg._CACHED_CELLS) + 1):
        frame = compute_epg(geometry, target.contour, target.params, rows=side, cols=side)
        assert walks.pop() == frame.x_of_row and walks == []


def test_palate_is_hashed_once(monkeypatch):
    # every compute_epg call hashes its palate for the dome-row cache key;
    # after the first, that reads the kept hash instead of hashing each slice
    slices = [DomeSlice(s.x, s.z_min, s.z_max, s.h, s.shape) for s in default_palate().slices]
    geometry = PalateGeometry(tuple(slices))  # none of it hashed yet
    calls = []
    real = DomeSlice.__hash__
    monkeypatch.setattr(DomeSlice, "__hash__", lambda s: calls.append(s) or real(s))
    target = list(default_library())[0]
    for _ in range(3):
        compute_epg(geometry, target.contour, target.params)
    assert len(calls) == len(geometry.slices)


def held_bytes(draw) -> int:
    """What draw() leaves allocated once it returns, as tracemalloc counts it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        draw()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_dome_rows_keep_no_large_lattice():
    # the first lattices past the cache bound, square and tallest, sample the
    # dome without keeping it
    geometry, target = default_palate(), list(default_library())[0]
    side = math.isqrt(epg._CACHED_CELLS) + 1
    tallest = (epg.MAX_EPG_SIDE, epg._CACHED_CELLS // epg.MAX_EPG_SIDE + 1)
    for rows, cols in ((side, side), tallest):
        epg._dome_rows.cache_clear()
        held = held_bytes(lambda: compute_epg(geometry, target.contour, target.params, rows, cols))
        assert held < 64 * 1024, (rows, cols)


def test_kept_dome_rows_stay_under_their_stated_size():
    # the tallest lattices at the bound hold the most per cell; drawing 20 of
    # them keeps the last 16, which _CACHED_CELLS's comment puts at 8.6 MB,
    # a walk of 8 cells a row
    geometry, target = default_palate(), list(default_library())[0]
    cols = epg._CACHED_CELLS // epg.MAX_EPG_SIDE
    epg._dome_rows.cache_clear()

    def draw():
        for rows in range(epg.MAX_EPG_SIDE - 19, epg.MAX_EPG_SIDE + 1):
            compute_epg(geometry, target.contour, target.params, rows=rows, cols=cols)

    held = held_bytes(draw)
    epg._dome_rows.cache_clear()
    assert 16 * 500 * 1024 < held < 9 * 2**20


@pytest.fixture
def no_kept_rows(monkeypatch):
    """An empty table of kept EPG rows, as a fresh process starts with."""
    monkeypatch.setattr(epg, "_kept_rows", {})
    monkeypatch.setattr(epg, "_kept_cells", 0)


def kept_row_cells() -> int:
    """The cells of every row in the table of kept EPG rows."""
    return sum(len(row) for kept in epg._kept_rows.values() for row in kept.values())


def test_equal_rows_of_two_calls_are_one_tuple(no_kept_rows):
    # the rows a call builds are kept for the calls after it on any palate:
    # equal rows of two frames of one cols are one object
    lattice = {"rows": 62, "cols": 62}
    frames = [
        compute_epg(default_palate(shape), target.contour, target.params, **lattice)
        for target in default_library()
        for shape in DomeShape
    ]
    frames.append(compute_epg(
        default_palate(), default_library().get("s").contour, default_library().get("s").params,
        **lattice,
    ))
    rows = [row for frame in frames for row in frame.cells]
    assert len({id(row) for row in rows}) == len(set(rows)) < 62
    assert frames[-1].cells == frames[2 * 7].cells  # "s" on the cosine palate again
    assert all(a is b for a, b in zip(frames[-1].cells, frames[2 * 7].cells))
    assert epg._kept_cells == kept_row_cells() == 62 * len(set(rows))


def test_kept_rows_stay_under_their_stated_size(no_kept_rows):
    # a sweep of lattices with more distinct rows than the bound allows
    # fills the table up to _KEPT_ROW_CELLS cells and no further, which
    # _KEPT_ROW_CELLS's comment puts at about 1.2 MB; the frames past the
    # bound still give each of their distinct rows one tuple
    targets = list(default_library())
    past = []

    def draw():
        for cols in range(20, 400, 3):
            for shape in DomeShape:
                for target in targets:
                    frame = compute_epg(default_palate(shape), target.contour, target.params, 48, cols)
                    if epg._kept_cells + cols > epg._KEPT_ROW_CELLS:
                        past.append(frame)
            if len(past) > 2 * len(targets):
                break
        epg._dome_rows.cache_clear()  # only the kept rows stay

    held = held_bytes(draw)
    assert epg._kept_cells == kept_row_cells() <= epg._KEPT_ROW_CELLS
    assert epg._KEPT_ROW_CELLS - epg._kept_cells < max(epg._kept_rows)  # full to a row
    assert 8 * epg._KEPT_ROW_CELLS < held < 1.2 * 2**20
    kept = {id(row) for table in epg._kept_rows.values() for row in table.values()}
    unkept = 0
    for frame in past:
        assert len({id(row) for row in frame.cells}) == len(set(frame.cells))
        unkept += sum(id(row) not in kept for row in set(frame.cells))
    assert unkept


def test_rows_past_the_bound_are_one_tuple_per_frame(no_kept_rows, monkeypatch):
    # with no room in the table, each call builds its own rows, equal rows
    # of a frame still one tuple, and keeps none of them
    monkeypatch.setattr(epg, "_KEPT_ROW_CELLS", 0)
    geometry = default_palate()
    for target in default_library():
        first, again = (
            compute_epg(geometry, target.contour, target.params, rows=62, cols=62)
            for _ in range(2)
        )
        assert first == again
        for frame in (first, again):
            assert len({id(row) for row in frame.cells}) == len(set(frame.cells))
        assert not any(row is other for row in first.cells for other in again.cells)
    assert epg._kept_cells == kept_row_cells() == 0


def test_threads_rastering_one_lattice_share_one_tuple_per_row(no_kept_rows, monkeypatch):
    # 12 threads raster every preset on one lattice at once, from an empty
    # table: each gets the frames drawn alone, and every distinct row of
    # every frame is one tuple, the one kept for it
    geometry, targets = default_palate(), list(default_library())
    monkeypatch.setattr(epg, "_KEPT_ROW_CELLS", 0)
    want = [compute_epg(geometry, t.contour, t.params, rows=48, cols=48) for t in targets]
    monkeypatch.undo()
    monkeypatch.setattr(epg, "_kept_rows", {})
    monkeypatch.setattr(epg, "_kept_cells", 0)
    got, errors = [[] for _ in range(12)], []
    start = threading.Barrier(len(got))

    def draw(frames):
        try:
            start.wait(timeout=60)
            for _ in range(3):
                frames.append([
                    compute_epg(geometry, t.contour, t.params, rows=48, cols=48) for t in targets
                ])
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=draw, args=(frames,)) for frames in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(frames == [want] * 3 for frames in got)
    rows = [row for frames in got for frame in sum(frames, []) for row in frame.cells]
    kept = epg._kept_rows[48]
    assert {id(row) for row in rows} == {id(row) for row in kept.values()}
    assert len(kept) == len(set(rows)) and epg._kept_cells == kept_row_cells()


def test_a_row_kept_meanwhile_by_another_call_is_the_one_returned(no_kept_rows, monkeypatch):
    # the interleaving the threads above can meet, made to happen: another
    # call keeps the rows of the same frame between this call's lookup of
    # its first row and its keeping of it; this call then returns the rows
    # kept by the other, not its own
    geometry, target = default_palate(), default_library().get("s")
    real, inner = epg._keep_row, []

    def keep_after_another_call(kept, key, row):
        if not inner:
            monkeypatch.setattr(epg, "_keep_row", real)
            inner.append(compute_epg(geometry, target.contour, target.params, rows=48, cols=48))
        return real(kept, key, row)

    monkeypatch.setattr(epg, "_keep_row", keep_after_another_call)
    outer = compute_epg(geometry, target.contour, target.params, rows=48, cols=48)
    assert outer == inner[0]
    assert all(a is b for a, b in zip(outer.cells, inner[0].cells))
    assert epg._kept_cells == kept_row_cells() == 48 * len(set(outer.cells))
