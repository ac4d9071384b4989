"""The ompicc driver: the full compilation chain of paper Fig. 2.

``OmpiCompiler.compile`` takes OpenMP C source text and produces a
:class:`CompiledProgram` holding

* the transformed host program (an AST, also unparse-able to C text),
* one standalone CUDA C *kernel file* per target construct (the paper's
  artifact: the device-library header plus the unparsed kernel tree).
  The nvcc simulator lowers the tree the translator built, not a re-parse
  of that text; ``tests/test_ompi_codegen_golden.py`` checks that parsing
  the text lowers to the same IR and PTX,
* the compiled kernel images (PTX or cubin, per configuration).

``CompiledProgram.run()`` executes the host program under the cfront
interpreter with the ort runtime attached, offloading kernels to the
simulated Jetson Nano GPU.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import CType
from repro.cfront.errors import CFrontError
from repro.cfront.hostcompile import HostPlans
from repro.cfront.interp import Machine
from repro.cfront.parser import parse_translation_unit
from repro.cfront.unparse import unparse
from repro.cuda.device import DeviceProperties
from repro.cuda.nvcc import compile_device
from repro.cuda.ptx.jit import JitCache
from repro.devrt.api import DEVICE_LIBRARY_HEADER
from repro.hostrt.ort import Ort
from repro.hostrt.registry import DeviceRegistry, resolve_settings
from repro.ompi.callgraph import kernel_closure
from repro.ompi.config import OmpiConfig
from repro.ompi.outline import analyze_target
from repro.ompi.xform_cuda import CudaKernelBuilder, KernelPlan
from repro.ompi.xform_host import HostRewriter
from repro.openmp.directives import Directive
from repro.openmp.validator import validate_unit
from repro.settings import first
from repro.timing.clock import VirtualClock


class OmpiError(CFrontError):
    pass


@functools.cache
def _header_decls() -> tuple[A.Node, ...]:
    """The device-library header's prototypes, parsed once per process.
    Nothing downstream mutates them, so every kernel unit shares them."""
    return tuple(parse_translation_unit(DEVICE_LIBRARY_HEADER,
                                        "cudadev.h").decls)


def kernel_file_unit(plan: KernelPlan) -> A.TranslationUnit:
    """The translation unit of ``plan``'s kernel file — header prototypes
    followed by the kernel tree — as handed to nvcc: the same declarations
    its text ``kernel_sources[plan.kernel_name]`` parses to."""
    return A.TranslationUnit([*_header_decls(), *plan.kernel_unit.decls],
                             filename=f"{plan.kernel_name}.cu")


@dataclass
class ProgramRun:
    machine: Machine
    ort: Ort
    exit_code: int

    @property
    def stdout(self) -> str:
        return self.machine.output()

    @property
    def log(self):
        return self.ort.log

    @property
    def measured_time(self) -> float:
        """Kernel time + required memory operations (the paper's metric)."""
        return self.ort.log.measured_time

    @property
    def profile(self):
        """The run's :class:`repro.prof.activity.ActivityRecorder` — one
        shared ring across all devices, records stamped with their device
        ordinal (None when profiling was disabled)."""
        return self.ort.prof


@dataclass
class CompiledProgram:
    name: str
    config: OmpiConfig
    host_unit: A.TranslationUnit
    plans: list[KernelPlan]
    kernel_sources: dict[str, str]
    images: dict[str, object]
    declare_target_globals: dict[str, CType] = field(default_factory=dict)
    #: the kernel whose module owns each declare-target global
    declare_target_owners: dict[str, str] = field(default_factory=dict)
    #: the host program's plans (:class:`HostPlans`, which analyses each
    #: loop and function on first use): one object shared by every run and
    #: every copy ``dataclasses.replace`` makes of the program, never pickled
    host_plans: Optional[HostPlans] = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.host_plans is None:
            self.host_plans = HostPlans(self.host_unit)

    @property
    def host_source(self) -> str:
        return unparse(self.host_unit)

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["host_plans"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.host_plans = HostPlans(self.host_unit)

    def image_for_arch(self, kernel_name: str, arch: Optional[str]):
        """The kernel's image, retargeted for ``arch`` when needed.

        A cubin is architecture-specific: binding a program compiled for
        sm_53 to a registry that also holds an sm_70 device re-assembles
        the kernel's (unmutated) portable IR for that arch, mirroring how
        real OMPi ships one kernel file per *target* and compiles per
        device.  Retargeted images memoise under ``name@arch`` in the
        shared ``images`` dict so repeated binds are free; PTX images are
        arch-agnostic and pass through (the JIT keys on device arch)."""
        image = self.images[kernel_name]
        from repro.cuda.ptx.images import CubinImage, assemble_cubin
        if (arch and isinstance(image, CubinImage) and image.arch != arch):
            key = f"{kernel_name}@{arch}"
            cached = self.images.get(key)
            if cached is None:
                cached = assemble_cubin(image.module, arch,
                                        linked=image.linked)
                self.images[key] = cached
            return cached
        return image

    def bind(self, ort: Ort, seed_arrays: Optional[dict] = None) -> None:
        """Attach this program to a runtime: register the kernel images
        with every device module (retargeted to each device's arch on a
        heterogeneous registry), seed global arrays and give declare-target
        globals their device residence.  Shared by :meth:`run` and by the
        serving runtime, which drives a leased :class:`Ort` itself."""
        machine = ort.machine
        for kernel_name in self.kernel_sources:
            for module in ort.devices:
                # per-arch retargeting is a registry-backend feature; on
                # the classic single-profile path the raw image is bound
                # as-is and a mismatched cubin still fails at load time
                arch = (module.driver.device_props.arch
                        if getattr(module, "backend", None) is not None
                        else None)
                module.register_kernel_image(
                    kernel_name, self.image_for_arch(kernel_name, arch))
        if seed_arrays:
            for name, values in seed_arrays.items():
                if name in machine.globals:
                    machine.global_array(name)[...] = values
        # give declare-target globals their device residence (eager load of
        # the owning kernel module; see Ort.bind_declare_target)
        for gname, gtype in self.declare_target_globals.items():
            owner = self.declare_target_owners.get(gname)
            if owner is not None and gname in machine.globals:
                binding = machine.global_binding(gname)
                ort.bind_declare_target(gname, binding.addr,
                                        gtype.sizeof(), owner)

    def run(
        self,
        device: Optional[DeviceProperties] = None,
        clock: Optional[VirtualClock] = None,
        jit_cache: Optional[JitCache] = None,
        launch_mode: str = "auto",
        seed_arrays: Optional[dict] = None,
        heap_capacity: int = 1 << 30,
        main: bool = True,
        profile=None,
        ompt: Optional[dict] = None,
        faults=None,
        recovery=None,
        num_devices: Optional[int] = None,
        host_fastpath: Optional[str] = None,
        devices=None,
    ) -> ProgramRun:
        s = resolve_settings(
            self.config, device=device, devices=devices,
            num_devices=num_devices, host_fastpath=host_fastpath,
            profile=profile, faults=faults)
        registry = DeviceRegistry(
            s, device=device, clock=clock, jit_cache=jit_cache,
            launch_mode=launch_mode, ompt=ompt,
            recovery=first(recovery, self.config.recovery))
        machine = Machine(self.host_unit, heap_capacity=heap_capacity,
                          host_fastpath=s.host_fastpath,
                          plans=self.host_plans)
        ort = Ort(machine, registry)
        self.bind(ort, seed_arrays=seed_arrays)
        exit_code = machine.run() if main else 0
        ort.taskwait()  # implicit join of outstanding nowait tasks at exit
        registry.write_trace()
        return ProgramRun(machine, ort, exit_code)


class OmpiCompiler:
    def __init__(self, config: Optional[OmpiConfig] = None):
        self.config = config or OmpiConfig()

    # ------------------------------------------------------------------ compile
    def compile(self, source: str, name: str = "prog") -> CompiledProgram:
        unit = parse_translation_unit(source, f"{name}.c")
        validate_unit(unit)
        declare_globals, declare_fns = self._declare_target_items(unit)
        global_scope: dict[str, CType] = {}
        for d in unit.decls:
            if isinstance(d, A.GlobalDecl):
                for v in d.decls:
                    global_scope[v.name] = v.type
        known_functions = {d.name for d in unit.decls if isinstance(d, A.FuncDef)}

        rewriter = HostRewriter(self.config, name)
        plans: list[KernelPlan] = []
        kernel_count = 0

        def rewrite_stmt(stmt: A.Stmt, scopes: list[dict[str, CType]]) -> A.Stmt:
            nonlocal kernel_count
            if isinstance(stmt, A.Compound):
                scopes.append({})
                new = A.Compound([rewrite_stmt(s, scopes) for s in stmt.body])
                scopes.pop()
                return new
            if isinstance(stmt, A.DeclStmt):
                for d in stmt.decls:
                    scopes[-1][d.name] = d.type
                return stmt
            if isinstance(stmt, A.If):
                return A.If(stmt.cond, rewrite_stmt(stmt.then, scopes),
                            rewrite_stmt(stmt.other, scopes)
                            if stmt.other else None, loc=stmt.loc)
            if isinstance(stmt, A.While):
                return A.While(stmt.cond, rewrite_stmt(stmt.body, scopes),
                               loc=stmt.loc)
            if isinstance(stmt, A.DoWhile):
                return A.DoWhile(rewrite_stmt(stmt.body, scopes), stmt.cond,
                                 loc=stmt.loc)
            if isinstance(stmt, A.For):
                scopes.append({})
                if isinstance(stmt.init, A.DeclStmt):
                    for d in stmt.init.decls:
                        scopes[-1][d.name] = d.type
                new = A.For(stmt.init, stmt.cond, stmt.step,
                            rewrite_stmt(stmt.body, scopes), loc=stmt.loc)
                scopes.pop()
                return new
            if isinstance(stmt, A.PragmaStmt):
                return rewrite_pragma(stmt, scopes)
            return stmt

        def flat_scope(scopes: list[dict[str, CType]]) -> dict[str, CType]:
            out = dict(global_scope)
            for s in scopes:
                out.update(s)
            return out

        def rewrite_pragma(stmt: A.PragmaStmt,
                           scopes: list[dict[str, CType]]) -> A.Stmt:
            nonlocal kernel_count
            d: Directive = stmt.directive
            if d is None:
                return stmt  # non-omp pragma, keep
            scope = flat_scope(scopes)
            if d.is_target_construct:
                kernel_name = f"{name}_kernel{kernel_count}"
                kernel_count += 1
                region = analyze_target(kernel_name, stmt, scope,
                                        set(declare_globals), known_functions)
                device_fns = kernel_closure(unit, region.called_functions,
                                            kernel_name)
                builder = CudaKernelBuilder(region, unit, self.config, scope,
                                            device_fns)
                plan = builder.build()
                # declare-target globals referenced by the region
                for gname in region.device_globals:
                    gtype = declare_globals[gname]
                    plan.kernel_unit.decls.insert(0, A.GlobalDecl([
                        A.VarDecl(gname, gtype, None, None, ("__device__",))
                    ]))
                plans.append(plan)
                rewriter.make_fallback_fn(plan, region.body, scope)
                return rewriter.launch_block(plan, d, scope)
            if d.name == "target data":
                inner = rewrite_stmt(stmt.body, scopes)
                return rewriter.target_data_block(d, inner, scope)
            if d.name in ("target update", "target enter data",
                          "target exit data"):
                return rewriter.standalone_data_stmt(d, scope)
            if d.name in ("parallel", "parallel for", "parallel sections"):
                return rewriter.outline_host_parallel(
                    stmt, d, scope, set(global_scope)
                )
            if d.name == "barrier":
                from repro.ompi.astutil import callstmt
                return callstmt("ort_host_barrier")
            if d.name == "taskwait":
                from repro.ompi.astutil import callstmt
                return callstmt("ort_taskwait")
            if d.name in ("for", "single", "master", "critical", "atomic",
                          "sections", "section"):
                # orphaned worksharing outside any parallel region: a team
                # of one executes it directly
                body = stmt.body if stmt.body is not None else A.ExprStmt(None)
                return rewrite_stmt(body, scopes)
            raise OmpiError(f"unsupported host-side directive "
                            f"'#pragma omp {d.name}'", stmt.loc)

        # rewrite every function
        new_decls: list[A.Node] = []
        for node in unit.decls:
            if isinstance(node, A.PragmaDecl):
                continue  # declare target markers consumed
            if isinstance(node, A.FuncDef):
                scopes: list[dict[str, CType]] = [
                    {p.name: p.type.decay() for p in node.params}
                ]
                new_body = rewrite_stmt(node.body, scopes)
                assert isinstance(new_body, A.Compound)
                new_decls.append(A.FuncDef(node.name, node.return_type,
                                           node.params, new_body, node.quals,
                                           loc=node.loc))
            else:
                new_decls.append(node)
        host_unit = A.TranslationUnit(
            new_decls + rewriter.fallback_fns + rewriter.host_parallel_fns,
            filename=f"{name}_ompi.c",
        )

        # device compilation (paper Fig. 2, nvcc box): the kernel file's
        # text is emitted as the artifact, its tree goes to nvcc
        kernel_sources: dict[str, str] = {}
        images: dict[str, object] = {}
        for plan in plans:
            kernel_sources[plan.kernel_name] = (
                DEVICE_LIBRARY_HEADER + "\n" + unparse(plan.kernel_unit))
            images[plan.kernel_name] = compile_device(
                kernel_file_unit(plan), plan.kernel_name,
                mode=self.config.binary_mode, arch=self.config.arch,
            )
        # the first kernel file that defines each declare-target global
        owners: dict[str, str] = {}
        for plan in plans:
            for node in plan.kernel_unit.decls:
                if isinstance(node, A.GlobalDecl):
                    for d in node.decls:
                        owners.setdefault(d.name, plan.kernel_name)
        return CompiledProgram(
            name=name,
            config=self.config,
            host_unit=host_unit,
            plans=plans,
            kernel_sources=kernel_sources,
            images=images,
            declare_target_globals=declare_globals,
            declare_target_owners={g: owners[g] for g in declare_globals
                                   if g in owners},
        )

    @staticmethod
    def _declare_target_items(unit: A.TranslationUnit) -> tuple[dict[str, CType], set[str]]:
        globals_: dict[str, CType] = {}
        fns: set[str] = set()
        depth = 0
        for node in unit.decls:
            if isinstance(node, A.PragmaDecl) and node.directive is not None:
                if node.directive.name == "declare target":
                    depth += 1
                elif node.directive.name == "end declare target":
                    depth -= 1
                continue
            if depth > 0:
                if isinstance(node, A.GlobalDecl):
                    for v in node.decls:
                        globals_[v.name] = v.type
                elif isinstance(node, (A.FuncDef, A.FuncProto)):
                    fns.add(node.name)
        return globals_, fns
