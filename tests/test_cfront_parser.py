"""Tests for the C parser."""

import pytest

from repro.cfront import astnodes as A
from repro.cfront.ctypes_ import (
    ArrayType, BasicType, FLOAT, FunctionType, INT, PointerType, StructType,
)
from repro.cfront.errors import ParseError
from repro.cfront.parser import parse_expression, parse_translation_unit


def first_func(src):
    unit = parse_translation_unit(src)
    fn = unit.functions()[0]
    return fn


# -- expressions --------------------------------------------------------------

def test_precedence_mul_over_add():
    e = parse_expression("a + b * c")
    assert isinstance(e, A.Binary) and e.op == "+"
    assert isinstance(e.right, A.Binary) and e.right.op == "*"


def test_precedence_shift_vs_relational():
    e = parse_expression("a << 2 < b")
    assert e.op == "<" and e.left.op == "<<"


def test_assignment_right_associative():
    e = parse_expression("a = b = c")
    assert isinstance(e, A.Assign) and isinstance(e.value, A.Assign)


def test_compound_assignment():
    e = parse_expression("x += 2")
    assert isinstance(e, A.Assign) and e.op == "+"


def test_ternary():
    e = parse_expression("a ? b : c ? d : e")
    assert isinstance(e, A.Cond) and isinstance(e.other, A.Cond)


def test_unary_and_postfix():
    e = parse_expression("-x++")
    assert isinstance(e, A.Unary) and e.op == "-"
    assert isinstance(e.operand, A.Unary) and e.operand.op == "p++"


def test_call_and_index_chain():
    e = parse_expression("f(a, b)[3]")
    assert isinstance(e, A.Index) and isinstance(e.base, A.Call)
    assert len(e.base.args) == 2


def test_member_access():
    e = parse_expression("p->x.y")
    assert isinstance(e, A.Member) and not e.arrow
    assert isinstance(e.base, A.Member) and e.base.arrow


def test_cast_vs_parenthesized_expr():
    e = parse_expression("(int) x")
    assert isinstance(e, A.Cast) and e.type == INT
    e2 = parse_expression("(x) + 1")
    assert isinstance(e2, A.Binary)


def test_cast_to_pointer_to_array():
    e = parse_expression("(int (*)[96]) p")
    assert isinstance(e, A.Cast)
    assert isinstance(e.type, PointerType)
    assert isinstance(e.type.pointee, ArrayType)
    assert e.type.pointee.length == 96


def test_sizeof_forms():
    e1 = parse_expression("sizeof(int)")
    assert isinstance(e1, A.SizeofType) and e1.type.sizeof() == 4
    e2 = parse_expression("sizeof x")
    assert isinstance(e2, A.SizeofExpr)
    e3 = parse_expression("sizeof(x)")  # expression, not type
    assert isinstance(e3, A.SizeofExpr)


def test_comma_expression():
    e = parse_expression("a = 1, b = 2")
    assert isinstance(e, A.Comma) and len(e.parts) == 2


def test_cuda_kernel_launch():
    e = parse_expression("kern<<<grid, 256>>>(x, n)")
    assert isinstance(e, A.CudaKernelCall)
    assert len(e.args) == 2 and e.shmem is None
    e2 = parse_expression("kern<<<g, b, 1024>>>()")
    assert e2.shmem is not None


def test_trailing_garbage_raises():
    with pytest.raises(ParseError):
        parse_expression("a + b c")


# -- declarations ----------------------------------------------------------------

def test_simple_declarations():
    fn = first_func("void f(void) { int x; float y = 1.5f; unsigned long z; }")
    decls = [s for s in fn.body.body if isinstance(s, A.DeclStmt)]
    assert decls[0].decls[0].type == INT
    assert decls[1].decls[0].type == FLOAT
    assert decls[2].decls[0].type == BasicType("long", signed=False)


def test_multi_declarator_line():
    fn = first_func("void f(void) { int a, *p, arr[10]; }")
    d = fn.body.body[0].decls
    assert d[0].type == INT
    assert isinstance(d[1].type, PointerType)
    assert isinstance(d[2].type, ArrayType) and d[2].type.length == 10


def test_pointer_to_array_declarator():
    fn = first_func("void f(void) { int (*x)[96]; }")
    t = fn.body.body[0].decls[0].type
    assert isinstance(t, PointerType)
    assert isinstance(t.pointee, ArrayType) and t.pointee.length == 96


def test_function_pointer_declarator():
    fn = first_func("void f(void) { void (*cb)(int, float); }")
    t = fn.body.body[0].decls[0].type
    assert isinstance(t, PointerType)
    assert isinstance(t.pointee, FunctionType)
    assert t.pointee.param_types == (INT, FLOAT)


def test_2d_array_dimensions_order():
    fn = first_func("void f(void) { float A[2][3]; }")
    t = fn.body.body[0].decls[0].type
    assert isinstance(t, ArrayType) and t.length == 2
    assert isinstance(t.elem, ArrayType) and t.elem.length == 3


def test_array_bound_constant_folding():
    fn = first_func("void f(void) { int a[4 * 8 + 1]; }")
    assert fn.body.body[0].decls[0].type.length == 33


def test_struct_definition_and_use():
    unit = parse_translation_unit(
        "struct pt { int x; int y; };\n"
        "void f(void) { struct pt p; p.x = 1; }"
    )
    sd = unit.decls[0]
    assert isinstance(sd, A.StructDef) and sd.name == "pt"
    assert sd.fields_[0][0] == "x"


def test_inline_shared_struct_like_fig3b():
    src = """
    __global__ void k(void) {
        __shared__ struct vars_st {
            int (*i);
            int (*x)[96];
        } vars;
    }
    """
    fn = first_func(src)
    decl = fn.body.body[0].decls[0]
    assert decl.name == "vars"
    assert "__shared__" in decl.quals
    st = decl.type
    assert isinstance(st, StructType) and st.name == "vars_st"
    assert isinstance(st.fields_[1][1], PointerType)


def test_typedef_registration():
    unit = parse_translation_unit("typedef float real; real f(real x) { return x; }")
    fn = unit.functions()[0]
    assert fn.return_type == FLOAT
    assert fn.params[0].type == FLOAT


def test_global_variables_with_init():
    unit = parse_translation_unit("int n = 42; float xs[100];")
    g0 = unit.decls[0]
    assert isinstance(g0, A.GlobalDecl) and g0.decls[0].init.value == 42


def test_function_params_named_and_decayed():
    fn = first_func("float dot(float x[], float *y, int n) { return 0.0f; }")
    assert [p.name for p in fn.params] == ["x", "y", "n"]
    assert isinstance(fn.params[0].type, PointerType)  # x[] decays


def test_function_prototype():
    unit = parse_translation_unit("void saxpy(float a, float x[], int n);")
    proto = unit.decls[0]
    assert isinstance(proto, A.FuncProto) and proto.name == "saxpy"
    assert [p.name for p in proto.params] == ["a", "x", "n"]


def test_cuda_qualifiers_on_functions():
    fn = first_func("__global__ void k(float *p) { }")
    assert "__global__" in fn.quals


# -- statements ----------------------------------------------------------------

def test_if_else_binding():
    fn = first_func("void f(int a) { if (a) if (a > 1) a = 2; else a = 3; }")
    outer = fn.body.body[0]
    assert isinstance(outer, A.If) and outer.other is None
    assert isinstance(outer.then, A.If) and outer.then.other is not None


def test_for_with_decl_init():
    fn = first_func("void f(void) { for (int i = 0; i < 10; i++) ; }")
    loop = fn.body.body[0]
    assert isinstance(loop, A.For) and isinstance(loop.init, A.DeclStmt)


def test_while_do_while():
    fn = first_func("void f(int n) { while (n) n--; do n++; while (n < 3); }")
    assert isinstance(fn.body.body[0], A.While)
    assert isinstance(fn.body.body[1], A.DoWhile)


def test_break_continue_return():
    fn = first_func("int f(void) { for (;;) { break; } return 1; }")
    loop = fn.body.body[0]
    assert loop.cond is None and loop.init is None and loop.step is None
    assert isinstance(loop.body.body[0], A.Break)
    assert isinstance(fn.body.body[1], A.Return)


# -- pragmas ----------------------------------------------------------------

def test_block_pragma_attaches_following_statement():
    src = """
    void f(float y[], int n) {
        int i;
        #pragma omp parallel for
        for (i = 0; i < n; i++) y[i] = 0.0f;
    }
    """
    fn = first_func(src)
    pragma = fn.body.body[1]
    assert isinstance(pragma, A.PragmaStmt)
    assert pragma.text == "omp parallel for"
    assert isinstance(pragma.body, A.For)


def test_standalone_pragma_has_no_body():
    src = """
    void f(void) {
        #pragma omp barrier
        int x;
    }
    """
    fn = first_func(src)
    pragma = fn.body.body[0]
    assert isinstance(pragma, A.PragmaStmt) and pragma.body is None
    assert isinstance(fn.body.body[1], A.DeclStmt)


def test_nested_target_then_parallel_for():
    src = """
    void f(float y[], int n) {
        int i;
        #pragma omp target map(tofrom: y[0:n])
        #pragma omp parallel for
        for (i = 0; i < n; i++) y[i] = 1.0f;
    }
    """
    fn = first_func(src)
    target = fn.body.body[1]
    assert isinstance(target, A.PragmaStmt) and target.text.startswith("omp target")
    inner = target.body
    assert isinstance(inner, A.PragmaStmt) and inner.text == "omp parallel for"
    assert isinstance(inner.body, A.For)


def test_declarative_pragma_at_file_scope():
    unit = parse_translation_unit(
        "#pragma omp declare target\nint counter;\n#pragma omp end declare target\n"
    )
    assert isinstance(unit.decls[0], A.PragmaDecl)
    assert isinstance(unit.decls[2], A.PragmaDecl)


def test_target_update_is_standalone():
    src = """
    void f(int x) {
        #pragma omp target update to(x)
        x = 1;
    }
    """
    fn = first_func(src)
    assert isinstance(fn.body.body[0], A.PragmaStmt)
    assert fn.body.body[0].body is None


# -- errors ----------------------------------------------------------------

def test_missing_semicolon_raises():
    with pytest.raises(ParseError):
        parse_translation_unit("void f(void) { int x }")


def test_unterminated_block_raises():
    with pytest.raises(ParseError):
        parse_translation_unit("void f(void) { int x;")


def test_conflicting_type_specifiers_raise():
    with pytest.raises(ParseError):
        parse_translation_unit("void f(void) { float int x; }")


def test_node_walk():
    fn = first_func("void f(int a) { a = a + 1; }")
    idents = [n for n in fn.walk() if isinstance(n, A.Ident)]
    assert len(idents) == 2
    assign = fn.body.body[0].expr
    assert [type(n).__name__ for n in assign.walk()] == [
        "Assign", "Ident", "Binary", "Ident", "IntLit"]
