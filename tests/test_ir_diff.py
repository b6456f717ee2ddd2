"""Structural differ: value edits against structural changes."""

from repro.ir.diff import FunctionDelta, ValueEdit, diff_functions
from repro.ir.parser import parse_function
from repro.ir.values import Const


def parse(body: str, header: str = "func f(%p0, %p1) -> value"):
    return parse_function(f"{header} {{\n{body}\n}}")


BASE = """entry:
  %v2 = 10
  %v3 = add %p0, 1
  branch %v3, then, exit
then:
  %v4 = load [%p0+8]
  store [%p1+4] = %v4
  jump exit
exit:
  ret %v2"""


def diff_raw(new_body: str, base_body: str = BASE) -> FunctionDelta:
    return diff_functions(parse(base_body), parse(new_body))


class TestRawTransparent:
    def test_identical(self):
        delta = diff_raw(BASE)
        assert delta.identical and delta.transparent and delta.consistent
        assert not delta.value_edits

    def test_const_inst_value(self):
        delta = diff_raw(BASE.replace("%v2 = 10", "%v2 = 99"))
        assert delta.transparent and not delta.identical
        assert delta.value_edits == (
            ValueEdit("entry", 0, "value", 99, 10),)

    def test_binop_const_operand(self):
        delta = diff_raw(BASE.replace("add %p0, 1", "add %p0, 7"))
        (edit,) = delta.value_edits
        assert delta.transparent
        assert (edit.label, edit.index, edit.attr) == ("entry", 1, "rhs")
        assert edit.new == Const(7) and edit.old == Const(1)

    def test_constant_type_change_is_an_edit(self):
        """``10`` and ``10.0`` compare equal but print apart."""
        delta = diff_raw(BASE.replace("%v2 = 10", "%v2 = 10.0"))
        assert delta.transparent and not delta.identical
        (edit,) = delta.value_edits
        assert type(edit.new) is float and edit.old == 10

    def test_opcode_swap(self):
        delta = diff_raw(BASE.replace("add %p0, 1", "sub %p0, 1"))
        (edit,) = delta.value_edits
        assert delta.transparent
        assert (edit.attr, edit.new, edit.old) == ("op", "sub", "add")

    def test_load_offset(self):
        delta = diff_raw(BASE.replace("load [%p0+8]", "load [%p0+12]"))
        (edit,) = delta.value_edits
        assert delta.transparent
        assert (edit.label, edit.attr, edit.new) == ("then", "offset", 12)

    def test_store_offset(self):
        delta = diff_raw(BASE.replace("[%p1+4]", "[%p1+16]"))
        (edit,) = delta.value_edits
        assert delta.transparent and edit.attr == "offset"

    def test_multiple_edits_in_block_order(self):
        new = BASE.replace("%v2 = 10", "%v2 = 0") \
                  .replace("add %p0, 1", "add %p0, 2")
        delta = diff_raw(new)
        assert [e.index for e in delta.value_edits] == [0, 1]


class TestRawStructural:
    def test_register_operand_change_touches(self):
        delta = diff_raw(BASE.replace("add %p0, 1", "add %p1, 1"))
        assert delta.touched_blocks == {"entry"}
        assert delta.structural and not delta.transparent
        assert not delta.value_edits

    def test_insertion_touches_via_length(self):
        new = BASE.replace("  jump exit", "  %v9 = add %v4, 1\n  jump exit")
        delta = diff_raw(new)
        assert delta.touched_blocks == {"then"}
        assert not delta.changed_edges

    def test_deletion_touches(self):
        new = BASE.replace("  store [%p1+4] = %v4\n", "")
        delta = diff_raw(new)
        assert delta.touched_blocks == {"then"}

    def test_branch_target_change_flags_edges(self):
        delta = diff_raw(BASE.replace("branch %v3, then, exit",
                                      "branch %v3, exit, then"))
        assert delta.changed_edges
        assert "entry" in delta.touched_blocks

    def test_added_block(self):
        new = BASE.replace("jump exit", "jump extra") + \
            "\nextra:\n  jump exit"
        # Block order: parser appends 'extra' after 'exit'.
        delta = diff_raw(new)
        assert delta.added_blocks == {"extra"}
        assert delta.changed_edges
        assert "then" in delta.touched_blocks  # its target changed

    def test_removed_block_is_structural(self):
        new = """entry:
  %v2 = 10
  %v3 = add %p0, 1
  branch %v3, exit, exit
exit:
  ret %v2"""
        delta = diff_raw(new)
        assert delta.removed_blocks == {"then"}
        assert delta.changed_edges

    def test_call_const_arg_not_transparent(self):
        base = """entry:
  %v2 = call helper(%p0, 1)
  ret %v2"""
        delta = diff_raw(base.replace("%p0, 1", "%p0, 2"), base)
        assert delta.touched_blocks == {"entry"}
        assert not delta.value_edits

    def test_load_width_change_not_transparent(self):
        delta = diff_raw(BASE.replace("load [%p0+8]", "load.b [%p0+8]"))
        assert delta.touched_blocks == {"then"}

    def test_param_mismatch_inconsistent(self):
        base = parse(BASE)
        new = parse(BASE, header="func f(%p0) -> value")
        assert not diff_functions(base, new).consistent

    def test_name_mismatch_inconsistent(self):
        base = parse(BASE)
        new = parse(BASE, header="func g(%p0, %p1) -> value")
        assert not diff_functions(base, new).consistent
