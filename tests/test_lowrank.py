import io
import json
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import acakit._floatjson
from acakit._floatjson import rows_json
from acakit.geometry import PointCloud, place_clouds
from acakit.kernel import KernelHandle, _MatrixKernel
from acakit.lowrank import (
    PivotRecord,
    Skeleton,
    StoppingParams,
    _SkeletonBuilder,
    aca,
    compression_ratio,
    dense,
    resolve_k_max,
    update_norms,
    write_skeleton_json,
)
from acakit.oracle import svd_rank_errors


def pair(seed, n=40, m=40, dist=2.0, xi=1.0):
    rng = np.random.default_rng(seed)
    x, y, _ = place_clouds(xi, n, m, dist, rng)
    return x, y, rng


def run_to_rank(x, y, k_max, seed=0):
    """ACA run with the residual stop disabled."""
    kernel = KernelHandle()
    skel = aca(
        x, y, kernel, StoppingParams(epsilon=1e-30, k_max=k_max),
        np.random.default_rng(seed),
    )
    return skel, kernel


def empty_skeleton(n, m):
    return Skeleton(
        u_matrix=np.zeros((n, 0)),
        v_matrix=np.zeros((m, 0)),
        approx_norm=0.0,
        residual_norm=0.0,
        pivot_trace=(),
        rank_eval_counts=(),
        norm_clamped=False,
        central_row_count=0,
        central_col_count=0,
    )


# --- parameters -----------------------------------------------------------

def test_stopping_params_validation():
    with pytest.raises(ValueError):
        StoppingParams(epsilon=0.0)
    with pytest.raises(ValueError):
        StoppingParams(epsilon=-1e-6)
    with pytest.raises(ValueError):
        StoppingParams(epsilon=1e-6, k_max=0)
    StoppingParams(epsilon=1e-6, k_max=3)


def test_default_max_rank():
    assert resolve_k_max(None, 200, 200) == 100
    assert resolve_k_max(None, 9, 3) == 1
    assert resolve_k_max(None, 1, 500) == 1
    assert resolve_k_max(10, 200, 200) == 10
    assert resolve_k_max(50, 3, 5) == 3
    assert resolve_k_max(50, 40, 7) == 7


# --- row rule ---------------------------------------------------------------

def test_pivot_row_rule_first_call_seeded():
    """The first row is the run generator's first draw over all rows."""
    x, y, _ = pair(3, n=10, m=12)
    a, _ = run_to_rank(x, y, 3, seed=3)
    b, _ = run_to_rank(x, y, 3, seed=3)
    assert a.pivot_trace == b.pivot_trace
    assert a.pivot_rows[0] == np.random.default_rng(3).integers(10)
    assert a.pivot_trace[0].selector == "random"


def test_pivot_row_rule_first_call_skips_used():
    """A drawn row whose entries all vanish is skipped (its m evaluations
    still counted), and the next draw is over the unused rows only."""
    x, y, _ = pair(4, n=6, m=9)
    rng = np.random.default_rng(4)
    zero_row = int(rng.integers(6))
    expected = np.delete(np.arange(6), zero_row)[rng.integers(5)]
    a = KernelHandle().assemble_dense(x, y)
    a[zero_row] = 0.0
    kernel = _MatrixKernel(x, y, a)
    skel = aca(
        x, y, kernel, StoppingParams(epsilon=1e-30, k_max=1),
        np.random.default_rng(4),
    )
    assert skel.pivot_rows == (expected,)
    assert kernel.eval_count == 9 + (6 + 9)


def test_pivot_row_rule_argmax_of_previous_column():
    x, y, _ = pair(5, n=30, m=20)
    skel, kernel = run_to_rank(x, y, 6, seed=5)
    assert kernel.eval_count == 6 * (30 + 20)  # no row skipped
    used = np.zeros(30, dtype=bool)
    for k in range(1, skel.rank):
        used[skel.pivot_rows[k - 1]] = True
        scores = np.abs(skel.u_matrix[:, k - 1])
        scores[used] = -1.0
        assert skel.pivot_rows[k] == int(np.argmax(scores))


def test_pivot_row_rule_tie_smallest_index():
    """All three points of X lie 5 from y_0, which every first row picks as
    its pivot column, so the previous column ties on the unused rows."""
    x = PointCloud(np.array([[4.0, 3.0], [4.0, -3.0], [5.0, 0.0]]))
    y = PointCloud(np.array([[0.0, 0.0], [20.0, 5.0]]))
    seen = set()
    for seed in range(20):
        skel, _ = run_to_rank(x, y, 2, seed=seed)
        first, second = skel.pivot_rows
        assert skel.pivot_cols[0] == 0
        assert second == min({0, 1, 2} - {first})
        seen.add(first)
    assert seen == {0, 1, 2}


def test_pivot_row_rule_exhausted():
    """A duplicated point of X leaves a vanishing residual row; once it is
    skipped every row is used and the run ends below k_max."""
    x = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0]]))
    y = PointCloud(np.array([[3.0, 0.0], [3.0, 1.0], [4.0, -1.0]]))
    skel, kernel = run_to_rank(x, y, 2, seed=0)
    assert skel.rank == 1
    assert kernel.eval_count == (2 + 3) + 3


# --- norm recursion ----------------------------------------------------------

def test_update_norms_first_cross():
    u = np.array([3.0, 4.0])
    v = np.array([1.0, 2.0, 2.0])
    upd = update_norms(0.0, np.zeros((2, 0)), np.zeros((3, 0)), u, v)
    assert upd.approx_norm == pytest.approx(15.0, abs=1e-12)
    assert upd.residual_norm == pytest.approx(15.0, abs=1e-12)
    assert not upd.clamped


def test_update_norms_orthogonal_crosses_add_in_quadrature():
    u1 = np.array([1.0, 0.0])
    v1 = np.array([2.0, 0.0])
    u2 = np.array([0.0, 3.0])
    v2 = np.array([0.0, 4.0])
    upd = update_norms(2.0, u1[:, None], v1[:, None], u2, v2)
    assert upd.approx_norm == pytest.approx(math.sqrt(4.0 + 144.0), abs=1e-12)


def test_update_norms_matches_dense_norm_through_rank_10():
    """Replay the recursion over a real factor sequence and compare with
    the directly assembled Frobenius norm at every intermediate rank."""
    x, y, _ = pair(12, n=50, m=50)
    skel, _ = run_to_rank(x, y, 10, seed=12)
    assert skel.rank == 10
    norm = 0.0
    for k in range(skel.rank):
        upd = update_norms(
            norm,
            skel.u_matrix[:, :k],
            skel.v_matrix[:, :k],
            skel.u_matrix[:, k],
            skel.v_matrix[:, k],
        )
        norm = upd.approx_norm
        direct = np.linalg.norm(
            skel.u_matrix[:, : k + 1] @ skel.v_matrix[:, : k + 1].T
        )
        assert abs(norm - direct) <= 1e-10 * direct
    assert skel.approx_norm == pytest.approx(norm, rel=1e-12)


# --- the classical method ----------------------------------------------------

def test_aca_rank_one_matrix_is_exact():
    # A single-row interaction matrix has rank one.
    x = PointCloud(np.array([[0.0, 0.0]]))
    y = PointCloud(np.array([[3.0, 0.0], [0.0, 4.0], [3.0, 4.0], [5.0, 0.0]]))
    kernel = KernelHandle()
    skel = aca(
        x, y, kernel, StoppingParams(epsilon=1e-12), np.random.default_rng(0)
    )
    assert skel.rank == 1
    a = KernelHandle().assemble_dense(x, y)
    np.testing.assert_allclose(dense(skel), a, atol=1e-14)


def test_aca_full_rank_reproduces_dense():
    x, y, _ = pair(5, n=4, m=4)
    kernel = KernelHandle()
    skel = aca(
        x, y, kernel,
        StoppingParams(epsilon=1e-12, k_max=4),
        np.random.default_rng(5),
    )
    a = KernelHandle().assemble_dense(x, y)
    assert np.linalg.norm(a - dense(skel)) <= 1e-10 * np.linalg.norm(a)


def test_aca_error_between_svd_floor_and_one():
    x, y, _ = pair(7, n=100, m=100, dist=1.5)
    skel, _ = run_to_rank(x, y, 5, seed=7)
    a = KernelHandle().assemble_dense(x, y)
    rel = np.linalg.norm(a - dense(skel)) / np.linalg.norm(a)
    e_svd = svd_rank_errors(a, 5)[-1]
    assert e_svd < rel < 1.0


def test_aca_eval_budget_exact():
    x, y, _ = pair(3, n=40, m=30)
    skel, kernel = run_to_rank(x, y, 5, seed=3)
    assert skel.rank == 5
    assert kernel.eval_count == 5 * (40 + 30)
    assert skel.rank_eval_counts == tuple(k * 70 for k in range(1, 6))


def test_aca_pivot_trace_selectors():
    x, y, _ = pair(8)
    skel, _ = run_to_rank(x, y, 4, seed=8)
    selectors = [rec.selector for rec in skel.pivot_trace]
    assert selectors == ["random", "partial", "partial", "partial"]
    ranks = [rec.rank for rec in skel.pivot_trace]
    assert ranks == [1, 2, 3, 4]


def test_aca_pivots_are_distinct():
    x, y, _ = pair(9)
    skel, _ = run_to_rank(x, y, 8, seed=9)
    assert len(set(skel.pivot_rows)) == skel.rank
    assert len(set(skel.pivot_cols)) == skel.rank


def test_aca_residual_vanishes_on_pivot_rows_and_cols():
    x, y, _ = pair(10, n=30, m=25)
    skel, _ = run_to_rank(x, y, 6, seed=10)
    a = KernelHandle().assemble_dense(x, y)
    r = a - dense(skel)
    scale = np.abs(a).max()
    for i in skel.pivot_rows:
        assert np.abs(r[i]).max() <= 1e-10 * scale
    for j in skel.pivot_cols:
        assert np.abs(r[:, j]).max() <= 1e-10 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    data=st.data(),
    dist=st.sampled_from([1.0, 1.5, 3.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_aca_budget_random_clouds(n, m, data, dist, seed):
    """Each rank costs one row and one column, n + m, plus m per row skipped
    at the pivot floor.  A run that reaches k_max stops right after its last
    cross; one that runs out of rows has evaluated every row once."""
    k = data.draw(st.integers(1, min(n, m)), label="k_max")
    x, y, _ = pair(seed, n=n, m=m, dist=dist)
    skel, kernel = run_to_rank(x, y, k, seed=seed)
    steps = np.diff((0,) + skel.rank_eval_counts) - (n + m)
    assert np.all(steps >= 0) and np.all(steps % m == 0)
    if skel.rank == k:
        assert kernel.eval_count == skel.rank_eval_counts[-1]
    else:
        assert kernel.eval_count == n * m + skel.rank * n


def test_aca_epsilon_stop():
    x, y, _ = pair(11, n=60, m=60, dist=5.0)
    kernel = KernelHandle()
    skel = aca(
        x, y, kernel,
        StoppingParams(epsilon=1e-3, k_max=30),
        np.random.default_rng(11),
    )
    assert skel.rank < 30
    assert skel.residual_norm <= 1e-3 * skel.approx_norm


def test_aca_k_max_clamped_to_cloud_size():
    x, y, _ = pair(13, n=3, m=5)
    kernel = KernelHandle()
    skel = aca(
        x, y, kernel,
        StoppingParams(epsilon=1e-30, k_max=50),
        np.random.default_rng(13),
    )
    assert skel.rank == 3


def test_skeleton_factors_read_only():
    x, y, _ = pair(14)
    skel, _ = run_to_rank(x, y, 2, seed=14)
    with pytest.raises(ValueError):
        skel.u_matrix[0, 0] = 1.0


# --- residual probes ----------------------------------------------------------

def replayed_builder(skel, x, y, kernel):
    """Builder holding the crosses of an `aca` skeleton, rebuilt in its order."""
    builder = _SkeletonBuilder(x, y, kernel, skel.rank)
    for i, j in zip(skel.pivot_rows, skel.pivot_cols):
        row = builder.residual_row(i)
        col = builder.residual_col(j)
        builder.add_cross(i, j, float(row[j]), row, col, "partial")
    rebuilt = builder.build()
    assert np.array_equal(rebuilt.u_matrix, skel.u_matrix)
    assert np.array_equal(rebuilt.v_matrix, skel.v_matrix)
    return builder


def test_residual_entry_rank_zero_is_kernel_value():
    x, y, _ = pair(15, n=6, m=6)
    kernel = KernelHandle()
    val = _SkeletonBuilder(x, y, kernel, 1).residual_probe(2, 3)
    assert val == KernelHandle().eval(x.points[2], y.points[3])
    assert kernel.eval_count == 1


def test_residual_entry_matches_dense_residual():
    x, y, _ = pair(16, n=20, m=18)
    skel, _ = run_to_rank(x, y, 4, seed=16)
    a = KernelHandle().assemble_dense(x, y)
    r = a - dense(skel)
    builder = replayed_builder(skel, x, y, KernelHandle())
    for i, j in [(0, 0), (7, 11), (19, 17), (3, 9)]:
        assert builder.residual_probe(i, j) == pytest.approx(
            r[i, j], abs=1e-10 * np.abs(a).max()
        )


def test_residual_entry_zero_on_pivots():
    x, y, _ = pair(17, n=20, m=20)
    skel, _ = run_to_rank(x, y, 3, seed=17)
    builder = replayed_builder(skel, x, y, KernelHandle())
    scale = 1.0  # kernel values are O(1) at these separations
    i0, j0 = skel.pivot_rows[0], skel.pivot_cols[1]
    assert abs(builder.residual_probe(i0, j0)) <= 1e-10 * scale


# --- bookkeeping ---------------------------------------------------------------

def test_compression_ratio_examples():
    assert compression_ratio(empty_skeleton(10, 10), 10, 10) == 0.0
    x, y, _ = pair(18, n=20, m=20)
    skel, _ = run_to_rank(x, y, 10, seed=18)
    # k(n+m)/(nm) with k=10: n=m=20 gives 1.0, the 400-point case 0.05.
    assert compression_ratio(skel, 20, 20) == pytest.approx(1.0, abs=1e-15)
    assert compression_ratio(skel, 400, 400) == pytest.approx(0.05, abs=1e-15)


def test_dense_shape():
    x, y, _ = pair(19, n=12, m=9)
    skel, _ = run_to_rank(x, y, 3, seed=19)
    assert dense(skel).shape == (12, 9)


def skeleton_json(skeleton, meta=None):
    """The skeleton document as one string, as `write_skeleton_json`
    writes it."""
    out = io.StringIO()
    write_skeleton_json(skeleton, out, meta)
    return out.getvalue()


def test_skeleton_json_structure():
    x, y, _ = pair(20, n=10, m=8)
    skel, _ = run_to_rank(x, y, 3, seed=20)
    data = json.loads(skeleton_json(skel, meta={"tag": 1}))
    assert data["meta"] == {"tag": 1}
    assert data["rank"] == 3
    assert len(data["U"]) == 3 and len(data["U"][0]) == 10
    assert len(data["V"]) == 3 and len(data["V"][0]) == 8
    assert data["pivot_rows"] == list(skel.pivot_rows)
    assert len(data["pivot_trace"]) == 3
    rec = data["pivot_trace"][0]
    assert set(rec) >= {"rank", "i", "j", "pivot_value", "selector"}
    np.testing.assert_allclose(
        np.array(data["U"]).T @ np.array(data["V"]), dense(skel), atol=1e-15
    )


def dumped_payload(skeleton, meta=None):
    """The skeleton document as one `json.dumps` of a dict: the bytes
    `write_skeleton_json` must write."""
    payload: dict = {}
    if meta is not None:
        payload["meta"] = meta
    payload.update(
        {
            "rank": skeleton.rank,
            "pivot_rows": list(skeleton.pivot_rows),
            "pivot_cols": list(skeleton.pivot_cols),
            "U": skeleton.u_matrix.T.tolist(),
            "V": skeleton.v_matrix.T.tolist(),
            "approx_norm": skeleton.approx_norm,
            "pivot_trace": [asdict(rec) for rec in skeleton.pivot_trace],
        }
    )
    return json.dumps(payload)


def random_skeleton(n, m, k, seed):
    """A rank-k skeleton with random factors and pivots, built without
    kernel evaluations."""
    rng = np.random.default_rng(seed)
    trace = tuple(
        PivotRecord(l + 1, int(rng.integers(n)), int(rng.integers(m)),
                    float(rng.standard_normal()), "partial")
        for l in range(k)
    )
    return Skeleton(
        u_matrix=rng.standard_normal((n, k)),
        v_matrix=rng.standard_normal((m, k)) * 1e-7,
        approx_norm=float(rng.random()),
        residual_norm=0.0,
        pivot_trace=trace,
    )


NESTED_META = {
    "version": "0.1",
    "config": {"source": ["wolke-ü.json", "雲.json"], "epsilon": 1e-6, "k_max": 5},
    "notes": [None, True, {"π": 3.14}],
}


@pytest.mark.parametrize("meta", [None, NESTED_META], ids=["no-meta", "nested-meta"])
@pytest.mark.parametrize("rank", [0, 1, 5])
def test_skeleton_json_bytes(rank, meta):
    """The document is the bytes of one `json.dumps`."""
    x, y, _ = pair(21, n=40, m=30)
    skel = run_to_rank(x, y, rank, seed=21)[0] if rank else empty_skeleton(40, 30)
    assert skel.rank == rank
    assert skeleton_json(skel, meta) == dumped_payload(skel, meta)


def test_large_skeleton_json_bytes():
    """A skeleton of 600 000 floats, the size that k = 30 at n = m = 10 000
    gives."""
    skel = random_skeleton(10_000, 10_000, 30, seed=22)
    assert skeleton_json(skel) == dumped_payload(skel)


class PieceRecorder:
    """A text stream that keeps each write as it comes."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)


def tiled_skeleton(n, m, k, values):
    """A rank-k skeleton whose factors, pivot values and norm repeat values."""
    pool = np.asarray(values, dtype=np.float64)
    trace = tuple(
        PivotRecord(l + 1, l % n, l % m, float(pool[l % len(pool)]), "partial")
        for l in range(k)
    )
    return Skeleton(
        u_matrix=np.resize(pool, (n, k)),
        v_matrix=np.resize(pool[::-1], (m, k)),
        approx_norm=float(pool[0]),
        residual_norm=0.0,
        pivot_trace=trace,
    )


EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e-5, 1e16, 0.1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(0, 4)),
    block=st.integers(1, 9),
    values=st.lists(st.floats(), min_size=1, max_size=12),
    meta=st.sampled_from([None, NESTED_META]),
)
@example(shape=(3, 2, 0), block=4, values=[1.0], meta=None)  # rank 0
@example(shape=(1, 1, 1), block=1, values=EDGE_VALUES, meta=None)  # rank 1, n = 1
@example(shape=(4, 6, 3), block=4, values=EDGE_VALUES, meta=NESTED_META)  # U's vectors on edges
@example(shape=(3, 5, 2), block=6, values=EDGE_VALUES, meta=None)  # U ends on an edge
def test_streamed_skeleton_json_matches_json_dumps(shape, block, values, meta):
    """The pieces `write_skeleton_json` streams join to one `json.dumps` of
    the skeleton, for any floats (NaN, infinities, subnormals and -0.0
    included) and wherever the encode blocks fall in the factor vectors."""
    skel = tiled_skeleton(*shape, values)
    recorder = PieceRecorder()
    with mock.patch.object(acakit._floatjson, "_BLOCK", block):
        write_skeleton_json(skel, recorder, meta)
    assert "".join(recorder.pieces) == dumped_payload(skel, meta)


@pytest.mark.parametrize("n", [-1, 0, 1], ids=["block-1", "block", "block+1"])
def test_skeleton_json_at_encode_block_edges(n):
    """Factor vectors of one encode block, one element either side of it,
    and half of one (V), at the module's own block size."""
    block = acakit._floatjson._BLOCK
    skel = random_skeleton(block + n, block // 2, 3, seed=25)
    assert skeleton_json(skel) == dumped_payload(skel)


def test_skeleton_json_streams_in_blocks():
    """`write_skeleton_json` writes the document of one `json.dumps` a
    block of elements at a time."""
    skel = random_skeleton(3000, 2000, 20, seed=26)
    recorder = PieceRecorder()
    write_skeleton_json(skel, recorder, NESTED_META)
    document = dumped_payload(skel, NESTED_META)
    assert "".join(recorder.pieces) == document
    longest = max(len(piece) for piece in recorder.pieces)
    assert longest < 30 * acakit._floatjson._BLOCK < len(document) / 2


def assert_encodes_like_json(values):
    vector = np.asarray(values, dtype=np.float64)
    text = "".join(rows_json(vector[None, :]))
    assert text == "[" + json.dumps(vector.tolist()) + "]"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(), max_size=40))
def test_vector_json_matches_json_dumps(values):
    """Any float64 vector, NaN, infinities, subnormals and -0.0 included."""
    assert_encodes_like_json(values)


def test_vector_json_random_bit_patterns():
    bits = np.random.default_rng(23).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_encodes_like_json(bits.view(np.float64))


def test_vector_json_powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_encodes_like_json(np.concatenate([powers, -powers]))


@pytest.mark.parametrize("places", range(16))
def test_vector_json_short_decimals(places):
    """Values with few significant digits, across magnitudes."""
    rng = np.random.default_rng(24 + places)
    values = rng.standard_normal(2000) * 10.0 ** rng.integers(-8, 12, 2000)
    assert_encodes_like_json([round(x, places) for x in values.tolist()])


def test_vector_json_integers_near_2_53_and_1e17():
    steps = np.arange(-64, 65)
    values = np.concatenate([2.0**53 + steps, 1e17 + 16.0 * steps])
    assert_encodes_like_json(np.concatenate([values, -values]))


def test_vector_json_repr_format_boundaries():
    """repr switches between fixed and exponent form at 1e-4 and 1e16."""
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
    )
    assert_encodes_like_json(np.concatenate([values, -values]))
