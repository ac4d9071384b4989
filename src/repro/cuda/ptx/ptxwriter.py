"""Render the structured IR as readable PTX-like text.

The text rides inside PTX images for inspection (``ompicc --keep`` style
workflows and the codegen tests); execution always uses the structured IR
itself.  Structured control flow is linearised with labels so the output
looks like the PTX a reader of the paper would expect.
"""

from __future__ import annotations

from repro.cuda.ptx.ir import (
    Atom, BarOp, BinOp, BreakOp, CallOp, ContinueOp, Cvt, GlobalAddr, IfOp,
    Imm, KernelIR, Ld, LoopOp, ModuleIR, Mov, PrintfOp, Reg, RetOp, SelOp,
    Sreg, St, UnOp,
)


def _operand(op) -> str:
    if isinstance(op, Reg):
        return f"%{op.name}"
    if isinstance(op, Imm):
        return repr(op.value) if not isinstance(op.value, bool) else ("1" if op.value else "0")
    if isinstance(op, GlobalAddr):
        return f"module::{op.name}"
    return "?"


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.indent = 1
        self.label_count = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def label(self, prefix: str) -> str:
        self.label_count += 1
        return f"${prefix}_{self.label_count}"

    def block(self, ops, break_label=None, cont_label=None) -> None:
        for op in ops:
            self.op(op, break_label, cont_label)

    def op(self, op, break_label, cont_label) -> None:
        if isinstance(op, BinOp):
            if op.op in ("lt", "le", "gt", "ge", "eq", "ne"):
                self.emit(f"setp.{op.op}.{_dt(op.a)}  %{op.dst.name}, "
                          f"{_operand(op.a)}, {_operand(op.b)};")
            else:
                self.emit(f"{op.op}.{op.dst.dtype}  %{op.dst.name}, "
                          f"{_operand(op.a)}, {_operand(op.b)};")
        elif isinstance(op, UnOp):
            self.emit(f"{op.op}.{op.dst.dtype}  %{op.dst.name}, {_operand(op.a)};")
        elif isinstance(op, SelOp):
            self.emit(f"selp.{op.dst.dtype}  %{op.dst.name}, {_operand(op.a)}, "
                      f"{_operand(op.b)}, {_operand(op.pred)};")
        elif isinstance(op, Cvt):
            self.emit(f"cvt.{op.dst.dtype}.{_dt(op.a)}  %{op.dst.name}, {_operand(op.a)};")
        elif isinstance(op, Mov):
            self.emit(f"mov.{op.dst.dtype}  %{op.dst.name}, {_operand(op.a)};")
        elif isinstance(op, Ld):
            self.emit(f"ld.{op.space}.{op.dst.dtype}  %{op.dst.name}, "
                      f"[{_operand(op.addr)}];")
        elif isinstance(op, St):
            self.emit(f"st.{op.space}.{op.dtype}  [{_operand(op.addr)}], "
                      f"{_operand(op.value)};")
        elif isinstance(op, Atom):
            args = _operand(op.a) + (f", {_operand(op.b)}" if op.b is not None else "")
            dst = f"%{op.dst.name}, " if op.dst else ""
            self.emit(f"atom.{op.space}.{op.op}.{op.dtype}  {dst}[{_operand(op.addr)}], {args};")
        elif isinstance(op, Sreg):
            self.emit(f"mov.u32  %{op.dst.name}, %{op.sreg};")
        elif isinstance(op, BarOp):
            count = f", {_operand(op.count)}" if op.count is not None else ""
            self.emit(f"bar.sync  {_operand(op.barrier)}{count};")
        elif isinstance(op, IfOp):
            else_l = self.label("else")
            end_l = self.label("endif")
            self.emit(f"@!{_operand(op.cond)} bra  {else_l};")
            self.indent += 1
            self.block(op.then_ops, break_label, cont_label)
            self.indent -= 1
            if op.else_ops:
                self.emit(f"bra  {end_l};")
                self.emit(f"{else_l}:")
                self.indent += 1
                self.block(op.else_ops, break_label, cont_label)
                self.indent -= 1
                self.emit(f"{end_l}:")
            else:
                self.emit(f"{else_l}:")
        elif isinstance(op, LoopOp):
            head = self.label("loop")
            end = self.label("endloop")
            step = self.label("step")
            self.emit(f"{head}:")
            self.indent += 1
            self.block(op.cond_ops, None, None)
            self.emit(f"@!{_operand(op.cond)} bra  {end};")
            self.block(op.body_ops, end, step)
            self.emit(f"{step}:")
            for s in op.step_ops:
                self.op(s, end, step)
            self.emit(f"bra  {head};")
            self.indent -= 1
            self.emit(f"{end}:")
        elif isinstance(op, BreakOp):
            self.emit(f"bra  {break_label or '$exit'};")
        elif isinstance(op, ContinueOp):
            self.emit(f"bra  {cont_label or '$exit'};")
        elif isinstance(op, RetOp):
            self.emit("ret;")
        elif isinstance(op, CallOp):
            args = ", ".join(_operand(a) for a in op.args)
            dst = f"%{op.dst.name}, " if op.dst else ""
            self.emit(f"call.uni  {dst}{op.name}, ({args});")
        elif isinstance(op, PrintfOp):
            self.emit(f'call.uni  vprintf, ("{op.fmt}", ...);')
        else:
            self.emit(f"// <unknown op {type(op).__name__}>")


def _dt(op) -> str:
    return op.dtype if isinstance(op, (Reg, Imm)) else "u64"


def kernel_to_ptx(kernel: KernelIR) -> str:
    writer = _Writer()
    params = ", ".join(f".param .{p.dtype} {p.name}" for p in kernel.params)
    writer.lines.append(f".visible .entry {kernel.name}({params})")
    writer.lines.append("{")
    if kernel.smem_static:
        writer.lines.append(f"    .shared .align 8 .b8 __smem[{kernel.smem_static}];")
    writer.block(kernel.body)
    writer.emit("ret;")
    writer.lines.append("}")
    for sub in kernel.subfunctions.values():
        writer.lines.append("")
        sparams = ", ".join(f".param .{p.dtype} {p.name}" for p in sub.params)
        writer.lines.append(f".func {sub.name}({sparams})")
        writer.lines.append("{")
        writer.indent = 1
        writer.block(sub.body)
        writer.lines.append("}")
    return "\n".join(writer.lines) + "\n"


def module_to_ptx(module: ModuleIR) -> str:
    header = [
        "//",
        "// Generated by repro-nvcc (simulated NVIDIA NVCC)",
        f"// Target: {module.arch}",
        "//",
        ".version 6.5",
        f".target {module.arch}",
        ".address_size 64",
        "",
    ]
    for name, size in module.globals_.items():
        header.append(f".global .align 8 .b8 {name}[{size}];")
    parts = ["\n".join(header)]
    for kernel in module.kernels.values():
        parts.append(kernel_to_ptx(kernel))
    return "\n".join(parts)
