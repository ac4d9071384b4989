"""Property-based tests on worksharing invariants and more device-code
control-flow coverage."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cfront.parser import parse_translation_unit
from repro.cuda.device import JETSON_NANO_GPU, Dim3
from repro.cuda.ptx.ir import CallOp, Imm, KernelIR, Reg, np_dtype
from repro.cuda.ptx.lower import LOCAL_WINDOW_BASE, lower_translation_unit
from repro.cuda.sim.compile import (
    CompiledBlockExec, NonUniform, _bcall, _warps_call,
)
from repro.cuda.sim.engine import BlockCtx, FunctionalEngine
from repro.cuda.sim.locality import local_call
from repro.devrt import INTRINSIC_SIGS, build_intrinsics
from repro.devrt.state import uniform
from repro.mem import LinearMemory

GMEM_BASE = 0x2_0000_0000


def run_kernel(src, kernel, grid, block, arrays, scalars=()):
    unit = parse_translation_unit(src, "t.cu")
    module = lower_translation_unit(unit, INTRINSIC_SIGS, "t")
    gmem = LinearMemory(8 << 20, base=GMEM_BASE, name="gmem")
    addrs, shapes = [], []
    for arr in arrays:
        arr = np.asarray(arr)
        addr = gmem.alloc(max(arr.nbytes, 1))
        gmem.view(addr, arr.size, arr.dtype)[:] = arr.reshape(-1)
        addrs.append(addr)
        shapes.append(arr)
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {})
    params = [np.uint64(a) for a in addrs] + list(scalars)
    engine.launch(module.kernels[kernel], Dim3.of(grid), Dim3.of(block), params)
    return [gmem.view(a, arr.size, arr.dtype).reshape(arr.shape)
            for a, arr in zip(addrs, shapes)]


_CHUNK_SRC = """
__global__ void k(int *out, int n, int chunk)
{{
    cudadev_target_init(0);
    long lo, hi, tlo, thi, it;
    cudadev_get_distribute_chunk(0, (long) n, &lo, &hi);
    while (cudadev_get_{kind}_chunk(0, lo, hi, (long) chunk, &tlo, &thi)) {{
        for (it = tlo; it < thi; it++)
            out[it] += 1;
    }}
}}
"""


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=700),
    teams=st.integers(min_value=1, max_value=5),
    threads=st.sampled_from([32, 64, 96, 128]),
    chunk=st.sampled_from([0, 1, 3, 16]),
    kind=st.sampled_from(["static", "dynamic", "guided"]),
)
def test_property_every_iteration_exactly_once(n, teams, threads, chunk, kind):
    """The fundamental worksharing invariant: the two-phase distribution
    covers [0, n) exactly once for every geometry/schedule/chunk combo."""
    if kind in ("dynamic", "guided") and chunk == 0:
        chunk = 1
    out = np.zeros(max(n, 1), dtype=np.int32)
    result = run_kernel(_CHUNK_SRC.format(kind=kind), "k", teams, threads,
                        [out], scalars=(np.int32(n), np.int32(chunk)))
    assert (result[0][:n] == 1).all(), f"{kind} chunk={chunk}"
    assert result[0][n:].sum() == 0


_DIM_SRC = """
__global__ void k(int *out, int n0, int n1)
{
    cudadev_target_init(0);
    long lo0, hi0, tlo0, thi0, it0;
    long lo1, hi1, tlo1, thi1, it1;
    cudadev_get_distribute_chunk_dim(1, 0, (long) n0, &lo0, &hi0);
    while (cudadev_get_static_chunk_dim(1, 0, lo0, hi0, 0, &tlo0, &thi0)) {
        for (it0 = tlo0; it0 < thi0; it0++) {
            cudadev_get_distribute_chunk_dim(0, 0, (long) n1, &lo1, &hi1);
            while (cudadev_get_static_chunk_dim(0, 1, lo1, hi1, 0, &tlo1, &thi1)) {
                for (it1 = tlo1; it1 < thi1; it1++)
                    out[it0 * n1 + it1] += 1;
            }
        }
    }
}
"""


@settings(max_examples=10, deadline=None)
@given(
    n0=st.integers(min_value=1, max_value=24),
    n1=st.integers(min_value=1, max_value=40),
    gx=st.integers(min_value=1, max_value=3),
    gy=st.integers(min_value=1, max_value=3),
)
def test_property_2d_dimension_chunking_exactly_once(n0, n1, gx, gy):
    """The 2D mapping (§5) must also cover the space exactly once for any
    grid/extent combination, including non-divisible ones."""
    out = np.zeros(n0 * n1, dtype=np.int32)
    result = run_kernel(_DIM_SRC, "k", (gx, gy), (16, 4),
                        [out], scalars=(np.int32(n0), np.int32(n1)))
    assert (result[0] == 1).all()


def test_sections_construct_reusable_across_instances():
    src = """
    __global__ void k(int *out)
    {
        cudadev_target_init(0);
        int rep;
        for (rep = 0; rep < 3; rep++) {
            cudadev_sections_init(9, 2);
            int s;
            while ((s = cudadev_next_section(9)) >= 0)
                atomicAdd(&out[s], 1);
            __syncthreads();
        }
    }
    """
    out = run_kernel(src, "k", 1, 64, [np.zeros(2, dtype=np.int32)])[0]
    assert list(out) == [3, 3]


# -- extra device control-flow coverage ----------------------------------------

def test_device_do_while():
    src = """
    __global__ void k(int *out)
    {
        int i = threadIdx.x, count = 0;
        do {
            count++;
        } while (count < i);
        out[i] = count;
    }
    """
    out = run_kernel(src, "k", 1, 16, [np.zeros(16, dtype=np.int32)])[0]
    assert list(out) == [1] + list(range(1, 16))


def test_device_break_continue_in_nested_loops():
    src = """
    __global__ void k(int *out)
    {
        int t = threadIdx.x, i, j, acc = 0;
        for (i = 0; i < 10; i++) {
            if (i == t) continue;
            for (j = 0; j < 10; j++) {
                if (j > i) break;
                acc += 1;
            }
            if (i >= 5) break;
        }
        out[t] = acc;
    }
    """
    def scalar(t):
        acc = 0
        for i in range(10):
            if i == t:
                continue
            for j in range(10):
                if j > i:
                    break
                acc += 1
            if i >= 5:
                break
        return acc
    out = run_kernel(src, "k", 1, 16, [np.zeros(16, dtype=np.int32)])[0]
    assert list(out) == [scalar(t) for t in range(16)]


def test_device_ternary_with_side_effects():
    src = """
    __global__ void k(int *out)
    {
        int t = threadIdx.x;
        int x = 0;
        int v = t % 2 == 0 ? (x = 10) : (x = 20);
        out[t] = v + x;
    }
    """
    out = run_kernel(src, "k", 1, 8, [np.zeros(8, dtype=np.int32)])[0]
    assert list(out) == [20, 40] * 4


def test_device_while_with_divergent_exit():
    src = """
    __global__ void k(int *out)
    {
        int t = threadIdx.x;
        int v = t;
        while (v < 20)
            v = v * 2 + 1;
        out[t] = v;
    }
    """
    def scalar(t):
        v = t
        while v < 20:
            v = v * 2 + 1
        return v
    out = run_kernel(src, "k", 1, 32, [np.zeros(32, dtype=np.int32)])[0]
    assert list(out) == [scalar(t) for t in range(32)]


def test_device_comma_and_compound_assignment():
    src = """
    __global__ void k(int *out)
    {
        int t = threadIdx.x;
        int a = 1, b = 2;
        a += t, b *= 2;
        out[t] = a * 100 + b;
    }
    """
    out = run_kernel(src, "k", 1, 4, [np.zeros(4, dtype=np.int32)])[0]
    assert list(out) == [104, 204, 304, 404]


# -- block-wide runtime calls ---------------------------------------------------
#
# A block-local runtime call is made once for a block-wide executor.  Its
# oracle is the per-warp loop it replaces (``_warps_call``): the same
# call made by each active warp on its 32-lane slice, in warp order.
# Both must leave the same result register, device memory, devrt state
# and KernelStats.

#: the warp shuffles are value-polymorphic: they get their own test
_SHUFFLES = sorted(n for n in INTRINSIC_SIGS if n.startswith("__shfl"))
_BLOCK_LOCAL = sorted(n for n in INTRINSIC_SIGS
                      if local_call(n) and n not in _SHUFFLES)
_CHUNKS = [n for n in _BLOCK_LOCAL if n.endswith("_chunk")
           or n.endswith("_chunk_dim")]
#: per-thread local bytes of the test blocks: the _tlo and _thi slots
_LOCAL = 16
_GARBAGE = -(1 << 40) + 3


def _block_exec(block_dim, grid_dim, block_idx):
    gmem = LinearMemory(1 << 16, base=GMEM_BASE, name="gmem")
    engine = FunctionalEngine(JETSON_NANO_GPU, gmem, build_intrinsics(), {})
    ctx = BlockCtx(block_idx, block_dim, grid_dim, 64, _LOCAL)
    nthreads = block_dim[0] * block_dim[1] * block_dim[2]
    nwarps = -(-nthreads // 32)
    blk = CompiledBlockExec(None, engine, [ctx], list(range(nwarps)), nthreads,
                            KernelIR("k"), [])
    blk._ret_stack.append(np.zeros(nwarps * 32, dtype=bool))
    return blk


def _call_op(name, scalars, mask, blk, pointers="local"):
    """A CallOp of ``name`` and its registers, set in ``blk``.  Scalar
    arguments alternate between immediates and registers that hold the
    value on active lanes and garbage elsewhere; ``scalars`` may give a
    per-lane array instead of a value.  Pointers address each lane's own
    two slots in local or global memory ("mixed": warp parity picks)."""
    params, ret = INTRINSIC_SIGS[name]
    width = mask.size
    args, si = [], 0
    out_ptr = 0
    for i, dt in enumerate(params):
        if dt == "u64":
            lanes = blk.lane_linear.astype(np.uint64)
            local = LOCAL_WINDOW_BASE + lanes * np.uint64(_LOCAL)
            glob = GMEM_BASE + lanes * np.uint64(_LOCAL)
            if pointers == "local":
                base = local
            elif pointers == "global":
                base = glob
            else:
                base = np.where((blk.lane_linear // 32) % 2 == 0, local, glob)
            blk.regs[f"a{i}"] = base + np.uint64(8 * out_ptr)
            out_ptr += 1
            args.append(Reg(f"a{i}", "u64"))
            continue
        value = scalars[si]
        si += 1
        if np.ndim(value) == 0 and i % 2 == 0:
            args.append(Imm(int(value), dt))
            continue
        arr = np.full(width, _GARBAGE, dtype=np.int64)
        arr[mask] = np.broadcast_to(value, (width,))[mask]
        blk.regs[f"a{i}"] = arr.astype(np_dtype(dt))
        args.append(Reg(f"a{i}", dt))
    dst = Reg("d", ret) if ret else None
    if dst is not None:
        blk.regs["d"] = np.full(width, 7, dtype=np_dtype(ret))
    op = CallOp(dst=dst, name=name, args=args)
    spec = tuple((r.name, np_dtype(r.dtype)) for r in [*args, dst]
                 if type(r) is Reg)
    return op, spec


def _run_call(blk, op, spec, mask, call):
    gen = call(blk, op, spec, mask)
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("a block-local call yielded")


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _image(blk):
    """Everything a call may change: memory, devrt, stats, registers."""
    ctx = blk.block
    return {
        "gmem": blk.engine.gmem.buf.copy(),
        "lmem": ctx.lmem.buf.copy(),
        "smem": ctx.smem.buf.copy(),
        "devrt": copy.deepcopy(ctx.devrt),
        "stats": dataclasses.asdict(blk.engine.stats),
        "regs": {k: v.copy() for k, v in blk.regs.items()},
    }


def _assert_same_image(a, b):
    for key in a:
        assert _same(a[key], b[key]), key


def _scalars(name, draw):
    """Drawn scalar arguments of ``name`` (dim, loop id, lo, hi, chunk)."""
    lo = draw(st.integers(0, 40))
    hi = draw(st.integers(lo - 3, lo + 90))
    dim = draw(st.integers(0, 2))
    loop_id = draw(st.integers(0, 2))
    chunk = draw(st.integers(-2, 7))
    return {
        "cudadev_target_init": [draw(st.sampled_from([0, 1]))],
        "cudadev_get_distribute_chunk": [lo, hi],
        "cudadev_get_distribute_chunk_dim": [dim, lo, hi],
        "cudadev_get_static_chunk": [loop_id, lo, hi, chunk],
        "cudadev_get_static_chunk_dim": [dim, loop_id, lo, hi, chunk],
    }.get(name, [])


@st.composite
def _geometry(draw):
    bx = draw(st.integers(1, 64))
    by = draw(st.integers(1, 256 // bx))
    gx = draw(st.integers(1, 4))
    gy = draw(st.integers(1, 3))
    bidx = (draw(st.integers(0, gx - 1)), draw(st.integers(0, gy - 1)), 0)
    return (bx, by, 1), (gx, gy, 1), bidx


@st.composite
def _mask(draw, blk):
    """Valid lanes, each warp full, empty or a random subset."""
    nw = blk.lane_linear.size // 32
    mask = blk.valid.copy()
    for k in range(nw):
        kind = draw(st.sampled_from(["full", "empty", "some"]))
        lanes = mask[32 * k:32 * (k + 1)]
        if kind == "empty":
            lanes[:] = False
        elif kind == "some":
            lanes &= np.array(draw(st.lists(st.booleans(), min_size=32,
                                            max_size=32)))
    return mask


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(_BLOCK_LOCAL),
       geometry=_geometry(), mw=st.booleans(),
       pointers=st.sampled_from(["local", "global", "mixed"]))
def test_block_wide_call_equals_per_warp_loop(data, name, geometry, mw,
                                              pointers):
    """For every block-local intrinsic: one block-wide call equals the
    per-warp loop in result register, memory, devrt state and every
    KernelStats field; a chunk loop is repeated until every lane has
    drained, as ``while (cudadev_get_*_chunk(...))`` does."""
    sides = [_block_exec(*geometry) for _ in range(2)]
    mask = data.draw(_mask(sides[0]))
    assume(mask.any())
    scalars = _scalars(name, data.draw)
    for blk in sides:
        if mw:   # the master/worker mode refuses block-wide chunk calls
            op, spec = _call_op("cudadev_target_init", [1], mask, blk)
            _run_call(blk, op, spec, mask, _warps_call)
    for _ in range(400):
        outs = []
        for blk, call in zip(sides, (_bcall, _warps_call)):
            op, spec = _call_op(name, scalars, mask, blk, pointers)
            outs.append(_run_call(blk, op, spec, mask, call))
        assert np.array_equal(outs[0], outs[1])
        _assert_same_image(*map(_image, sides))
        if op.dst is None or name not in _CHUNKS:
            break
        mask = outs[0] & (sides[0].regs["d"] != 0)
        if not mask.any():
            break
    else:
        raise AssertionError("chunk loop did not drain")


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(_SHUFFLES),
       geometry=_geometry(), dtype=st.sampled_from(["s32", "u64", "f32",
                                                    "f64"]))
def test_block_wide_shuffle_equals_per_warp_loop(data, name, geometry,
                                                 dtype):
    """One block-wide shuffle gathers inside every warp at once: result
    register and every KernelStats field equal the per-warp loop's, for
    an immediate or per-lane source/delta, in or out of the warp."""
    sides = [_block_exec(*geometry) for _ in range(2)]
    mask = data.draw(_mask(sides[0]))
    assume(mask.any())
    width = mask.size
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(-1000, 1000, width)
    deltas = rng.integers(-3, 41, width).astype(np.int32)
    if data.draw(st.booleans()):
        sel = Imm(data.draw(st.integers(-3, 40)), "s32")
    else:
        sel = Reg("d", "s32")
    results = []
    for blk, call in zip(sides, (_bcall, _warps_call)):
        blk.regs["v"] = values.astype(np_dtype(dtype))
        blk.regs["d"] = deltas.copy()
        blk.regs["r"] = np.full(width, 7, dtype=np_dtype(dtype))
        op = CallOp(dst=Reg("r", dtype), name=name,
                    args=[Imm(0xFFFFFFFF, "u32"), Reg("v", dtype), sel])
        spec = tuple((r.name, np_dtype(r.dtype))
                     for r in [*op.args, op.dst] if type(r) is Reg)
        results.append(_run_call(blk, op, spec, mask, call))
    assert np.array_equal(*results)
    _assert_same_image(*map(_image, sides))


def _per_warp_values(blk, value):
    """A scalar that differs between warps: ``value`` plus the warp."""
    return value + blk.lane_linear // 32


@pytest.mark.parametrize("name", [n for n in _BLOCK_LOCAL
                                  if _scalars(n, lambda s: 1)])
def test_per_warp_arguments_take_the_per_warp_path(name):
    """A scalar argument that depends on the warp cannot be read once for
    the block: the call falls back to the per-warp loop and matches it."""
    geometry = ((24, 5, 1), (3, 1, 1), (1, 0, 0))
    sides = [_block_exec(*geometry) for _ in range(2)]
    mask = sides[0].valid.copy()
    base = _scalars(name, lambda s: 1)
    for blk, call in zip(sides, (_bcall, _warps_call)):
        # the last scalar: hi, chunk or the target_init mode
        scalars = base[:-1] + [_per_warp_values(blk, base[-1])]
        op, spec = _call_op(name, scalars, mask, blk)
        out = _run_call(blk, op, spec, mask, call)
        assert blk._views.count(None) == 0   # every warp called alone
    _assert_same_image(*map(_image, sides))
    assert np.array_equal(out, mask)


@pytest.mark.parametrize("name", [n for n in _BLOCK_LOCAL
                                  if _scalars(n, lambda s: 1)])
def test_rejected_uniform_read_leaves_no_trace(name):
    """Every ``uniform()`` read precedes the intrinsic's first side
    effect: with any one scalar argument differing between warps the
    block-wide call raises and changes no memory, devrt state, stats or
    register."""
    geometry = ((32, 4, 1), (2, 2, 1), (1, 1, 0))
    base = _scalars(name, lambda s: 1)
    intrinsic = build_intrinsics()[name]
    for pos in range(len(base)):
        blk = _block_exec(*geometry)
        mask = blk.valid.copy()
        mask[40:64] = False
        scalars = [_per_warp_values(blk, v) if i == pos else v
                   for i, v in enumerate(base)]
        op, _spec = _call_op(name, scalars, mask, blk)
        before = _image(blk)
        args = [blk.regs[a.name] if type(a) is Reg else a.value
                for a in op.args]
        with pytest.raises(NonUniform):
            next(intrinsic(blk, mask, args))
        _assert_same_image(before, _image(blk))


def test_uniform_reads_each_warps_first_active_lane():
    blk = _block_exec((96, 1, 1), (1, 1, 1), (0, 0, 0))
    mask = np.zeros(96, dtype=bool)
    mask[[5, 6, 70]] = True          # warp 1 has no active lane
    value = np.full(96, -1, dtype=np.int64)
    value[[5, 70]] = 9               # lane 6 is not a first lane
    assert uniform(value, mask) == 9
    value[70] = 8
    with pytest.raises(NonUniform):
        uniform(value, mask)
    assert uniform(value, mask[:32]) == 9     # one warp never raises
    assert uniform(np.int64(4), mask) == 4
