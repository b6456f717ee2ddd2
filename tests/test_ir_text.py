"""Printer and parser: formatting and round trips."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ParseError, ReproError
from repro.ir.instructions import ConstInst
from repro.ir.parser import parse_function, parse_module
from repro.ir.printer import print_function, side_by_side
from repro.ir.validate import validate_function

from conftest import (
    build_call_heavy,
    build_counted_loop,
    build_diamond,
    build_straightline,
)
from oracles import parse_module_reference, parsed_shape


def roundtrip(func):
    text = print_function(func)
    parsed = parse_function(text)
    validate_function(parsed)
    assert print_function(parsed) == text
    return parsed


class TestRoundTrip:
    def test_straightline(self):
        roundtrip(build_straightline())

    def test_diamond(self):
        roundtrip(build_diamond())

    def test_loop(self):
        roundtrip(build_counted_loop())

    def test_calls(self):
        roundtrip(build_call_heavy())

    def test_lowered_code_roundtrips(self):
        from repro.target import lower_function, middle_pressure

        func = build_call_heavy()
        lower_function(func, middle_pressure())
        roundtrip(func)

    def test_prepared_suite_reparses_byte_identically(self):
        # Edge splitting mints dotted labels (``loop1.loop1.1``).
        from repro.pipeline import prepare_module
        from repro.target.presets import high_pressure
        from repro.workloads import make_suite

        machine = high_pressure()
        funcs = [func for module in make_suite().values()
                 for func in prepare_module(module, machine).functions]
        assert len(funcs) == 88
        assert any("." in blk.label for func in funcs for blk in func.blocks)
        for func in funcs:
            text = print_function(func)
            assert print_function(parse_function(text)) == text, func.name

    def test_spill_code_roundtrips(self):
        text = """func f(%p0) -> value {
entry:
  spill slot0 = %p0
  %t = reload slot0
  ret %t
}"""
        parsed = parse_function(text)
        assert print_function(parsed) == text


class TestParserErrors:
    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_function("nonsense {")

    def test_unterminated(self):
        with pytest.raises(ParseError):
            parse_function("func f() {\nentry:\n  ret")

    def test_instruction_before_label(self):
        with pytest.raises(ParseError):
            parse_function("func f() {\n  ret\n}")

    def test_unknown_instruction(self):
        with pytest.raises(ParseError):
            parse_function("func f() {\nentry:\n  fandango %a\n}")

    def test_line_numbers_reported(self):
        with pytest.raises(ParseError) as err:
            parse_function("func f() {\nentry:\n  %a = frobnicate %b, %c\n}")
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("rhs", ["add", "neg", "cmplt", "fadd"])
    def test_operator_without_operands(self, rhs):
        with pytest.raises(ParseError, match="line 3"):
            parse_function(f"func f() {{\nentry:\n  %a = {rhs}\n  ret\n}}")


class TestParserSemantics:
    def test_float_prefix_infers_class(self):
        func = parse_function(
            "func f() {\nentry:\n  %f1 = 1.5\n  ret %f1\n}"
        )
        from repro.ir.values import RegClass

        (reg,) = [v for v in func.vregs()]
        assert reg.rclass is RegClass.FLOAT

    def test_module_parses_multiple_functions(self):
        text = (
            print_function(build_straightline())
            + "\n\n"
            + print_function(build_diamond())
        )
        module = parse_module(text)
        assert [f.name for f in module.functions] == ["straight", "diamond"]

    def test_comments_ignored(self):
        func = parse_function(
            "func f() {\n; a comment\nentry:\n  ret ; trailing\n}"
        )
        assert func.entry.instrs[0].is_terminator


class TestSideBySide:
    def test_columns_align(self):
        out = side_by_side(build_straightline(), build_diamond())
        lines = out.splitlines()
        assert all("|" in line for line in lines[2:])  # [1] is the rule
        assert "before" in lines[0] and "after" in lines[0]


# ----------------------------------------------------------------------
# malformed text: a clean error at the parser and over the wire

#: tokens a mutation may write into a line
VOCAB = ["add", "neg", "phi", "call", "load", "store", "reload", "spill",
         "ret", "jump", "branch", "%a", "%f1", "$r1", "slot0", "5", "1.5",
         "entry", ",", "=", "[", "]", "{", "}", ":", ""]

MUTATION = st.tuples(st.integers(0, 5), st.integers(0, 10**6),
                     st.integers(0, 10**6), st.sampled_from(VOCAB))


def suite_text() -> list[str]:
    from repro.ir.printer import print_module
    from repro.workloads import make_benchmark

    return print_module(make_benchmark("db")).splitlines()


def mutate(lines: list[str], mutations) -> str:
    """Apply ``(kind, line, position, token)`` edits to a copy of lines."""
    lines = list(lines)
    for kind, line, pos, token in mutations:
        j = line % len(lines)
        toks = lines[j].split()
        if kind == 0:  # keep a prefix of the tokens
            lines[j] = "  " + " ".join(toks[:pos % (len(toks) + 1)])
        elif kind == 1 and toks:  # drop one token
            del toks[pos % len(toks)]
            lines[j] = "  " + " ".join(toks)
        elif kind == 2 and toks:  # overwrite one token
            toks[pos % len(toks)] = token
            lines[j] = "  " + " ".join(toks)
        elif kind == 3:  # cut the line at a character
            lines[j] = lines[j][:pos % (len(lines[j]) + 1)]
        elif kind == 4:
            lines.insert(j, lines[j])
        elif len(lines) > 1:
            del lines[j]
    return "\n".join(lines)


class TestMalformedText:
    LINES = suite_text()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(MUTATION, min_size=1, max_size=3))
    @example([(0, 19, 3, "")])
    def test_mutated_suite_text_parses_or_raises_repro_error(self,
                                                           mutations):
        text = mutate(self.LINES, mutations)
        try:
            parse_module(text)
        except ReproError:
            pass

    def test_the_operandless_example_is_an_operator_line(self):
        # The @example above cuts `%x = add %y, 6` down to `%x = add`.
        text = mutate(self.LINES, [(0, 19, 3, "")])
        assert self.LINES[19].split()[1:3] == ["=", "add"]
        with pytest.raises(ParseError, match="line 20"):
            parse_module(text)

    def test_server_answers_a_parse_error_then_serves(self):
        from repro.service import (
            AllocationRequest,
            MachineSpec,
            Scheduler,
            ServerThread,
            ServiceClient,
        )

        good = print_function(build_counted_loop())
        bad = good.replace("\nentry:\n", "\nentry:\n  %a = add\n", 1)
        thread = ServerThread(Scheduler(cache=None))
        host, port = thread.start()
        try:
            client = ServiceClient(host, port, timeout=60.0)
            reply = client.allocate(AllocationRequest(
                id="bad", ir=bad, machine=MachineSpec(regs=8)))
            assert reply.ok is False and reply.id == "bad"
            assert "needs two operands" in reply.error
            assert "internal error" not in reply.error
            after = client.allocate(AllocationRequest(
                id="after", ir=good, machine=MachineSpec(regs=8)))
            assert after.ok and after.code
        finally:
            thread.stop()


# ----------------------------------------------------------------------
# the one-pass parser against the regex-per-form reference


def parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: its shape, or its error."""
    try:
        return "ok", parsed_shape(parse(text))
    except ParseError as exc:
        return "error", exc.line, str(exc)


def assert_parses_as_reference(text):
    got = parse_outcome(parse_module, text)
    assert got == parse_outcome(parse_module_reference, text)
    return got


def edit_text(edits) -> str:
    """The spill-stress function after ``edits``, as the editor sends it.

    Each ``(kind, site, amount)`` bumps an integer constant (``kind``
    0) or inserts a dead constant into a block (``kind`` 1), as the
    benchmark's edit chain does.
    """
    from repro.ir.printer import print_module
    from repro.workloads import spill_stress_module

    module = spill_stress_module(1)
    func = module.functions[0]
    for kind, site, amount in edits:
        if kind == 0:
            consts = [instr for _, instr in func.instructions()
                      if isinstance(instr, ConstInst)]
            consts[site % len(consts)].value += amount
        else:
            blk = func.blocks[site % len(func.blocks)]
            blk.instrs.insert(len(blk.phis()),
                              ConstInst(func.new_vreg(), amount))
    return print_module(module)


EDIT = st.tuples(st.integers(0, 1), st.integers(0, 10**6),
                 st.integers(1, 64))


class TestReferenceParser:
    LINES = suite_text()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(MUTATION, min_size=1, max_size=3))
    @example([(0, 19, 3, "")])
    @example([(2, 40, 0, "a.b:")])
    def test_mutated_suite_text_parses_as_the_reference(self, mutations):
        assert_parses_as_reference(mutate(self.LINES, mutations))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(EDIT, max_size=4),
           st.lists(MUTATION, max_size=2))
    def test_edited_text_parses_as_the_reference(self, edits, mutations):
        text = edit_text(edits)
        if mutations:
            text = mutate(text.splitlines(), mutations)
        assert_parses_as_reference(text)

    def test_unmutated_texts_parse(self):
        assert assert_parses_as_reference("\n".join(self.LINES))[0] == "ok"
        assert assert_parses_as_reference(edit_text([]))[0] == "ok"

    @pytest.mark.parametrize("line", [
        "store [%p0+4]=%a",
        "store[%p0+4] = %a",
        "store\t[%p0+-4] =\t%a",
        "store [%p0]+4] = %a",
        "store [%p0+4] = %a b",
        "store [%p 0+4] = %a",
        "spill slot3 = %a",
        "spill\tslot3=%a",
        "spillslot3 = %a",
        "%b = load[%p0+8]",
        "%b = load.b [%p0+8]",
        "%b = load .b[%p0+8]",
        "%b = load [%p0 +8]",
        "%b = reload slot2",
        "%b = reload slot 2",
        "%b = phi[entry: %a]",
        "%b = phi [entry %a]",
        "%b = add %a,%a",
        "%b = add %a , 3",
        "%b = add\t%a, %a",
        "%b = add %a, %a, %a",
        "%b = neg",
        "%b = neg  %a",
        "%b = call f(%a, 2)",
        "%b = call\tf(%a)",
        "%f3 = fadd %f3, 2",
        "%b = 1e3",
        "%b = $r1",
        "$r2 = %a",
        "call f [$r1, $r2]",
        "call f [%a]",
        "ret [$r0, %a]",
        "jump  x y",
        "jump",
        "branch %a, x",
        "bogus",
        "x = 1",
        "a.b.1:",
    ])
    def test_unusual_spacing_parses_as_the_reference(self, line):
        text = ("func f(%p0, %a) -> value {\nentry:\n  " + line
                + "\n  ret %p0\n}")
        assert_parses_as_reference(text)
