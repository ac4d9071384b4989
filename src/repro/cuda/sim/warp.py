"""Warp executor: structured IR over 32 numpy lanes, lockstep with masks.

Execution is generator-based: a warp *yields* control events —
``('bar', id, count)`` when it arrives at a named barrier and ``('spin',)``
between iterations of loops that may block (atomics / barriers / runtime
calls inside) — and the block scheduler resumes it when appropriate.  This
is what lets the paper's master/worker scheme run: worker warps block on
barrier B1 inside ``cudadev_workerfunc`` while the master warp proceeds.

Divergence follows the classic SIMT model: both arms of a divergent branch
execute serially under complementary lane masks; loops keep a live-lane
mask that shrinks as lanes exit.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.cuda.ptx.ir import (
    Atom, BarOp, BinOp, BreakOp, CallOp, ContinueOp, Cvt, GlobalAddr, IfOp,
    Imm, KernelIR, Ld, LoopOp, Mov, Op, PrintfOp, Reg, RetOp, SelOp, Sreg,
    St, UnOp, np_dtype, walk_ops,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cuda.sim.engine import BlockCtx, FunctionalEngine

WARP_SIZE = 32

_FMT_RE = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?(?:hh|h|ll|l|z)?[diouxXeEfgGcsp%]")


class Lanes:
    """Register access over an executor's ``width`` lanes, shared by the
    tree walk's warps and the compiled executors."""

    width = WARP_SIZE

    def val(self, operand) -> np.ndarray:
        if isinstance(operand, Reg):
            arr = self.regs.get(operand.name)
            if arr is None:
                arr = np.zeros(self.width, dtype=np_dtype(operand.dtype))
                self.regs[operand.name] = arr
            return arr
        if isinstance(operand, Imm):
            return np_dtype(operand.dtype).type(operand.value)
        if isinstance(operand, GlobalAddr):
            return np.uint64(self.engine.global_addr(operand.name))
        raise TypeError(f"bad operand {operand!r}")

    def setreg(self, reg: Reg, value, mask: np.ndarray) -> None:
        arr = self.regs.get(reg.name)
        dtype = np_dtype(reg.dtype)
        if arr is None:
            arr = np.zeros(self.width, dtype=dtype)
            self.regs[reg.name] = arr
        value = np.asarray(value)
        if value.ndim == 0:
            arr[mask] = _cast_scalar(value, dtype)
        else:
            arr[mask] = _cast_vec(value[mask], dtype)


class WarpExec(Lanes):
    """One warp's execution state."""

    def __init__(
        self,
        engine: "FunctionalEngine",
        block: "BlockCtx",
        warp_index: int,
        lane_linear: np.ndarray,      # linear thread ids within the block (32,)
        valid: np.ndarray,            # lanes that correspond to real threads
        kernel: KernelIR,
        params: list,
    ):
        self.engine = engine
        self.block = block
        self.warp_index = warp_index
        self.lane_linear = lane_linear
        self.valid = valid
        self.kernel = kernel
        self.params = params
        self.regs: dict[str, np.ndarray] = {}
        self._ret_stack: list[np.ndarray] = []
        self._loop_stack: list[dict[str, np.ndarray]] = []
        self._arg_stack: list[list] = []
        self._subfn_by_id = list(kernel.subfunctions.values())
        # precomputed special registers
        bx, by, _bz = block.block_dim
        self.tid_x = (lane_linear % bx).astype(np.uint32)
        self.tid_y = ((lane_linear // bx) % by).astype(np.uint32)
        self.tid_z = (lane_linear // (bx * by)).astype(np.uint32)

    # -- activations -----------------------------------------------------------
    def run_kernel(self) -> Iterator:
        yield from self.run_activation(self.kernel.body, self.valid)

    def run_activation(self, ops: list[Op], mask: np.ndarray) -> Iterator:
        """Execute a function activation (kernel body or subfunction)."""
        self._ret_stack.append(np.zeros(WARP_SIZE, dtype=bool))
        try:
            yield from self._exec(ops, mask.copy())
        finally:
            self._ret_stack.pop()

    def call_subfunction(self, fid: int, args: list, mask: np.ndarray) -> Iterator:
        """Execute a registered device subfunction (parallel-region body)."""
        sub = self._subfn_by_id[fid]
        self._arg_stack.append(args)
        try:
            yield from self.run_activation(sub.body, mask)
        finally:
            self._arg_stack.pop()

    # -- the interpreter loop ------------------------------------------------------
    def _exec(self, ops: list[Op], mask: np.ndarray):
        """Generator executing ``ops`` under ``mask``; returns the
        fall-through mask (lanes that reach the end of the block)."""
        stats = self.engine.stats
        for op in ops:
            if not mask.any():
                return mask
            cls = type(op)
            if cls is BinOp:
                stats.note_alu(op.dst.dtype, int(mask.sum()))
                self.setreg(op.dst, _binop(op.op, self.val(op.a), self.val(op.b)), mask)
            elif cls is Mov:
                stats.instructions += 1
                self.setreg(op.dst, self.val(op.a), mask)
            elif cls is UnOp:
                stats.note_alu(op.dst.dtype, int(mask.sum()), special=op.op in _SPECIAL)
                self.setreg(op.dst, _unop(op.op, self.val(op.a)), mask)
            elif cls is SelOp:
                stats.instructions += 1
                pred = self.val(op.pred).astype(bool)
                self.setreg(op.dst, np.where(pred, self.val(op.a), self.val(op.b)), mask)
            elif cls is Cvt:
                stats.instructions += 1
                self.setreg(op.dst, _convert(self.val(op.a), np_dtype(op.dst.dtype)), mask)
            elif cls is Ld:
                value = self.engine.mem_load(self, self.val(op.addr), np_dtype(op.dst.dtype), mask)
                self.setreg(op.dst, value, mask)
            elif cls is St:
                self.engine.mem_store(self, self.val(op.addr), np_dtype(op.dtype), self.val(op.value), mask)
            elif cls is Sreg:
                stats.instructions += 1
                self.setreg(op.dst, self._sreg(op.sreg), mask)
            elif cls is IfOp:
                cond = np.broadcast_to(self.val(op.cond).astype(bool), (WARP_SIZE,))
                t_mask = mask & cond
                e_mask = mask & ~cond
                if t_mask.any() and e_mask.any():
                    stats.divergent_branches += 1
                stats.instructions += 1
                m1 = t_mask
                m2 = e_mask
                if t_mask.any():
                    m1 = yield from self._exec(op.then_ops, t_mask)
                if e_mask.any():
                    m2 = yield from self._exec(op.else_ops, e_mask)
                mask = m1 | m2
            elif cls is LoopOp:
                mask = yield from self._exec_loop(op, mask)
            elif cls is BreakOp:
                self._loop_stack[-1]["break"] |= mask
                mask = np.zeros(WARP_SIZE, dtype=bool)
            elif cls is ContinueOp:
                self._loop_stack[-1]["cont"] |= mask
                mask = np.zeros(WARP_SIZE, dtype=bool)
            elif cls is RetOp:
                stats.instructions += 1
                self._ret_stack[-1] |= mask
                mask = np.zeros(WARP_SIZE, dtype=bool)
            elif cls is BarOp:
                bar_id = int(np.asarray(self.val(op.barrier)).reshape(-1)[0]) \
                    if not np.isscalar(self.val(op.barrier)) else int(self.val(op.barrier))
                count = None
                if op.count is not None:
                    cval = np.asarray(self.val(op.count))
                    count = int(cval.reshape(-1)[0] if cval.ndim else cval)
                yield ("bar", bar_id, count)
            elif cls is CallOp:
                mask = yield from self._call(op, mask)
            elif cls is PrintfOp:
                warp_printf(self, op, mask)
            elif cls is Atom:
                warp_atomic(self, op, mask)
            else:  # pragma: no cover - IR is closed
                raise TypeError(f"unknown op {cls.__name__}")
        return mask

    def _exec_loop(self, op: LoopOp, mask: np.ndarray):
        stats = self.engine.stats
        may_block = self.engine.loop_may_block(op)
        live = mask.copy()
        exited = np.zeros(WARP_SIZE, dtype=bool)
        step_ops = op.step_ops
        while True:
            live &= ~self._ret_stack[-1]
            if not live.any():
                break
            live = yield from self._exec(op.cond_ops, live)
            cond = np.broadcast_to(self.val(op.cond).astype(bool), (WARP_SIZE,))
            active = live & cond
            exited |= live & ~cond
            if not active.any():
                break
            stats.loop_iterations += 1
            self._loop_stack.append({
                "break": np.zeros(WARP_SIZE, dtype=bool),
                "cont": np.zeros(WARP_SIZE, dtype=bool),
            })
            fall = yield from self._exec(op.body_ops, active)
            frame = self._loop_stack.pop()
            runner = fall | frame["cont"]
            if step_ops and runner.any():
                self._loop_stack.append({
                    "break": np.zeros(WARP_SIZE, dtype=bool),
                    "cont": np.zeros(WARP_SIZE, dtype=bool),
                })
                runner = yield from self._exec(step_ops, runner)
                self._loop_stack.pop()
            exited |= frame["break"]
            live = runner
            if may_block:
                yield ("spin",)
        return (exited | live) & ~self._ret_stack[-1]

    # -- specific ops ------------------------------------------------------------
    def _sreg(self, name: str) -> np.ndarray:
        bx, by, bz = self.block.block_dim
        gx, gy, gz = self.block.grid_dim
        cx, cy, cz = self.block.block_idx
        table = {
            "tid.x": self.tid_x, "tid.y": self.tid_y, "tid.z": self.tid_z,
            "ntid.x": np.uint32(bx), "ntid.y": np.uint32(by), "ntid.z": np.uint32(bz),
            "ctaid.x": np.uint32(cx), "ctaid.y": np.uint32(cy), "ctaid.z": np.uint32(cz),
            "nctaid.x": np.uint32(gx), "nctaid.y": np.uint32(gy), "nctaid.z": np.uint32(gz),
            "laneid": np.arange(WARP_SIZE, dtype=np.uint32),
            "warpid": np.uint32(self.warp_index),
        }
        return table[name]

    def _call(self, op: CallOp, mask: np.ndarray):
        name = op.name
        if name not in ("__ldparam", "__ldarg", "__local_base"):
            return (yield from call_intrinsic(self, op, mask))
        self.engine.stats.instructions += 1
        if name == "__ldparam":
            idx = int(op.args[0].value)
            value = self.params[idx]
            self.setreg(op.dst, np.full(WARP_SIZE, value,
                                        dtype=np_dtype(op.dst.dtype)), mask)
            return mask
        if name == "__ldarg":
            idx = int(op.args[0].value)
            value = self._arg_stack[-1][idx]
            self.setreg(op.dst, value, mask)
            return mask
        offset = int(op.args[0].value)
        base = self.block.local_base(self.lane_linear)
        self.setreg(op.dst, base + np.uint64(offset), mask)
        return mask


def call_intrinsic(warp: Lanes, op: CallOp, mask: np.ndarray,
                   nwarps: int = 1):
    """Device-library call ``op`` made once over ``warp``'s lanes, counted
    as one instruction per warp with an active lane (``nwarps``)."""
    fn = warp.engine.intrinsics.get(op.name)
    if fn is None:
        raise KeyError(
            f"kernel calls unknown device-library function {op.name!r}; "
            "was the device runtime linked? (ptx mode links at JIT time)"
        )
    result = yield from fn(warp, mask, [warp.val(a) for a in op.args])
    warp.engine.stats.instructions += nwarps
    if op.dst is not None:
        if result is None:
            result = np.zeros(mask.size, dtype=np_dtype(op.dst.dtype))
        warp.setreg(op.dst, result, mask)
    return mask & ~warp._ret_stack[-1]


def warp_printf(warp, op: PrintfOp, mask: np.ndarray) -> None:
    """A device ``printf`` of one warp: one line per active lane, in lane
    order."""
    args = [np.broadcast_to(np.asarray(warp.val(a)), (WARP_SIZE,)) for a in op.args]
    for lane in np.flatnonzero(mask):
        out: list[str] = []
        pos = 0
        argi = 0
        for m in _FMT_RE.finditer(op.fmt):
            out.append(op.fmt[pos:m.start()])
            pos = m.end()
            spec = m.group(0)
            conv = spec[-1]
            if conv == "%":
                out.append("%")
                continue
            value = args[argi][lane]
            argi += 1
            pyspec = re.sub(r"hh|h|ll|l|z", "", spec)
            if conv in "diu":
                out.append((pyspec[:-1] + "d") % int(value))
            elif conv in "oxX":
                out.append(pyspec % int(value))
            elif conv in "eEfgG":
                out.append(pyspec % float(value))
            elif conv == "c":
                out.append(chr(int(value)))
            else:
                out.append(str(value))
        out.append(op.fmt[pos:])
        warp.engine.stdout.append("".join(out))


def warp_atomic(warp, op: Atom, mask: np.ndarray) -> None:
    """An atomic of one warp: each active lane's read-modify-write, in
    lane order."""
    stats = warp.engine.stats
    addrs = np.broadcast_to(np.asarray(warp.val(op.addr), dtype=np.uint64), (WARP_SIZE,))
    a_vals = np.broadcast_to(np.asarray(warp.val(op.a)), (WARP_SIZE,))
    b_vals = None
    if op.b is not None:
        b_vals = np.broadcast_to(np.asarray(warp.val(op.b)), (WARP_SIZE,))
    dtype = np_dtype(op.dtype)
    olds = np.zeros(WARP_SIZE, dtype=dtype)
    for lane in np.flatnonzero(mask):
        stats.atomics += 1
        addr = int(addrs[lane])
        space = warp.engine.resolve_space(warp, addr)
        old = space.load(addr, dtype)
        olds[lane] = old
        if op.op == "cas":
            if old == dtype.type(a_vals[lane]):
                space.store(addr, dtype, b_vals[lane])
        elif op.op == "add":
            space.store(addr, dtype, dtype.type(old + a_vals[lane]))
        elif op.op == "exch":
            space.store(addr, dtype, a_vals[lane])
        elif op.op == "max":
            space.store(addr, dtype, max(old, dtype.type(a_vals[lane])))
        elif op.op == "min":
            space.store(addr, dtype, min(old, dtype.type(a_vals[lane])))
        else:  # pragma: no cover
            raise ValueError(f"unknown atomic {op.op}")
    if op.dst is not None:
        warp.setreg(op.dst, olds, mask)


_SPECIAL = frozenset({"sqrt", "exp", "log", "sin", "cos", "rcp"})


def _cast_scalar(value: np.ndarray, dtype: np.dtype):
    if dtype.kind in "iu" and value.dtype.kind == "f":
        return dtype.type(np.trunc(value))
    with np.errstate(over="ignore", invalid="ignore"):
        return dtype.type(value.item()) if value.dtype.kind != "b" else dtype.type(bool(value))


def _cast_vec(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    if dtype.kind in "iu" and values.dtype.kind == "f":
        values = np.trunc(values)
    with np.errstate(over="ignore", invalid="ignore"):
        return values.astype(dtype, casting="unsafe")


def _convert(value, dtype: np.dtype):
    value = np.asarray(value)
    if dtype.kind in "iu" and value.dtype.kind == "f":
        value = np.trunc(value)
    with np.errstate(over="ignore", invalid="ignore"):
        return value.astype(dtype, casting="unsafe")


def _wraps_u64(a: np.dtype, b: np.dtype) -> bool:
    """Whether an add or subtract of ``a`` and ``b`` is pointer arithmetic
    (a u64 and a signed integer), which wraps modulo 2^64.  numpy would
    promote the pair to float64, exact only below 2^53."""
    return ((a == np.uint64 and b.kind == "i")
            or (b == np.uint64 and a.kind == "i"))


def _binop(op: str, a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    with np.errstate(all="ignore"):
        if op == "add" or op == "sub":
            if _wraps_u64(a.dtype, b.dtype):
                a = a.astype(np.uint64)
                b = b.astype(np.uint64)
            return a + b if op == "add" else a - b
        if op == "mul":
            return a * b
        if op == "div":
            if a.dtype.kind in "iu" and b.dtype.kind in "iu":
                safe = np.where(b == 0, 1, b)
                q = np.abs(a.astype(np.int64)) // np.abs(safe.astype(np.int64))
                sign = np.sign(a.astype(np.int64)) * np.sign(safe.astype(np.int64))
                return (sign * q).astype(np.result_type(a, b))
            return a / b
        if op == "rem":
            if a.dtype.kind in "iu" and b.dtype.kind in "iu":
                safe = np.where(b == 0, 1, b).astype(np.int64)
                r = np.abs(a.astype(np.int64)) % np.abs(safe)
                return np.where(a.astype(np.int64) >= 0, r, -r).astype(np.result_type(a, b))
            return np.fmod(a, b)
        if op == "shl":
            return a << b.astype(a.dtype)
        if op == "shr":
            return a >> b.astype(a.dtype)
        if op == "and":
            return (a.astype(bool) & b.astype(bool)) if a.dtype.kind == "b" else a & b
        if op == "or":
            return (a.astype(bool) | b.astype(bool)) if a.dtype.kind == "b" else a | b
        if op == "xor":
            return a ^ b
        if op == "min":
            return np.minimum(a, b)
        if op == "max":
            return np.maximum(a, b)
        if op == "pow":
            return np.power(a, b)
        if op == "lt":
            return a < b
        if op == "le":
            return a <= b
        if op == "gt":
            return a > b
        if op == "ge":
            return a >= b
        if op == "eq":
            return a == b
        if op == "ne":
            return a != b
    raise ValueError(f"unknown binop {op}")


def _unop(op: str, a):
    a = np.asarray(a)
    with np.errstate(all="ignore"):
        if op == "neg":
            return -a
        if op == "not":
            return ~a
        if op == "lnot":
            return ~a.astype(bool)
        if op == "abs":
            return np.abs(a)
        if op == "sqrt":
            return np.sqrt(a)
        if op == "exp":
            return np.exp(a)
        if op == "log":
            return np.log(a)
        if op == "sin":
            return np.sin(a)
        if op == "cos":
            return np.cos(a)
        if op == "floor":
            return np.floor(a)
        if op == "ceil":
            return np.ceil(a)
        if op == "rcp":
            return 1.0 / a
    raise ValueError(f"unknown unop {op}")
