"""The command-line interface."""

import io
import json

import pytest

from repro.cli import ALLOCATOR_CHOICES, build_parser, main


@pytest.fixture
def sample_ir(tmp_path):
    path = tmp_path / "sample.ir"
    path.write_text("""func axpy(%p0, %p1) -> value {
entry:
  %acc = 0
  jump loop
loop:
  %x = load [%p0+0]
  %y = load [%p0+4]
  %s = add %x, %y
  %acc = add %acc, %s
  %c = cmplt %acc, %p1
  branch %c, done, loop
done:
  ret %acc
}
""")
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "quake"])

    def test_allocator_choices_complete(self):
        assert set(ALLOCATOR_CHOICES) == {
            "chaitin", "briggs", "optimistic", "callcost",
            "only-coalescing", "full",
        }


class TestAlloc:
    def test_alloc_prints_physical_code(self, sample_ir):
        code, text = run_cli(["alloc", sample_ir, "--regs", "8"])
        assert code == 0
        assert "$r" in text
        assert "%x" not in text.split(";")[0]  # no vregs in the code
        assert "moves eliminated" in text
        assert "estimated cycles" in text

    @pytest.mark.parametrize("allocator", sorted(ALLOCATOR_CHOICES))
    def test_every_allocator_selectable(self, sample_ir, allocator):
        code, text = run_cli(
            ["alloc", sample_ir, "--allocator", allocator, "--regs", "8"]
        )
        assert code == 0 and "estimated cycles" in text


class TestCompare:
    def test_table_has_all_allocators(self, sample_ir):
        code, text = run_cli(["compare", sample_ir, "--regs", "8"])
        assert code == 0
        for name in ALLOCATOR_CHOICES:
            assert name in text


class TestBench:
    def test_bench_runs(self):
        code, text = run_cli(["bench", "jack", "--regs", "16"])
        assert code == 0
        assert "benchmark jack" in text
        assert "full" in text


class TestExample:
    def test_figure7_replay(self):
        code, text = run_cli(["example"])
        assert code == 0
        assert "Figure 7(a)" in text
        assert "Figure 7(h)" in text
        assert "moves eliminated 3/3" in text
        assert "paired loads fused 1" in text


class TestTargets:
    def test_describes_all_models(self):
        code, text = run_cli(["targets"])
        assert code == 0
        for label in ("high", "middle", "low"):
            assert label in text
        assert "volatile" in text


class TestJsonOutput:
    def test_alloc_json_speaks_the_service_schema(self, sample_ir):
        code, text = run_cli(["alloc", sample_ir, "--regs", "8", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["type"] == "allocation"
        assert payload["ok"] is True
        assert payload["effective_allocator"] == "full"
        assert payload["degraded"] is False
        assert payload["result_digest"]
        assert "$r" in payload["code"]
        assert payload["stats"]["moves_before"] > 0
        assert payload["cycles"]["total"] > 0

    def test_alloc_json_matches_direct_service_execution(self, sample_ir):
        from repro.service.protocol import AllocationRequest, MachineSpec
        from repro.service.scheduler import execute_request

        code, text = run_cli(["alloc", sample_ir, "--regs", "8", "--json"])
        payload = json.loads(text)
        direct = execute_request(AllocationRequest(
            id="direct", ir=open(sample_ir).read(), allocator="full",
            machine=MachineSpec(regs=8)))
        assert payload["result_digest"] == direct.result_digest
        assert payload["code"] == direct.code

    def test_compare_json_covers_every_allocator(self, sample_ir):
        code, text = run_cli(["compare", sample_ir, "--regs", "8",
                              "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["type"] == "comparison"
        assert set(payload["results"]) == set(ALLOCATOR_CHOICES)
        for wire in payload["results"].values():
            assert wire["ok"] and wire["result_digest"]

    def test_bench_json_names_the_benchmark(self):
        code, text = run_cli(["bench", "jack", "--regs", "16", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["bench"] == "jack"
        assert set(payload["results"]) == set(ALLOCATOR_CHOICES)

    def test_json_output_is_deterministic(self, sample_ir):
        _, first = run_cli(["alloc", sample_ir, "--regs", "8", "--json"])
        _, second = run_cli(["alloc", sample_ir, "--regs", "8", "--json"])
        assert first == second

    def test_every_json_document_carries_the_schema_version(self,
                                                            sample_ir):
        # The four emitted shapes all come from repro.service.schema and
        # are stamped with one shared version field.
        from repro.service.schema import SCHEMA_VERSION, final_stats_payload

        _, alloc = run_cli(["alloc", sample_ir, "--regs", "8", "--json"])
        _, compare = run_cli(["compare", sample_ir, "--regs", "8",
                              "--json"])
        _, bench = run_cli(["bench", "jack", "--regs", "16", "--json"])
        final = final_stats_payload({"counters": {}}, {"entries": 0})
        for text in (alloc, compare, bench):
            assert json.loads(text)["schema"] == SCHEMA_VERSION
        assert final["schema"] == SCHEMA_VERSION
        assert final["type"] == "final_stats"
        # comparison entries are full allocation documents themselves
        for wire in json.loads(compare)["results"].values():
            assert wire["schema"] == SCHEMA_VERSION
            assert wire["type"] == "allocation"


class TestErrorPaths:
    def test_missing_ir_file(self, capsys):
        code, text = run_cli(["alloc", "/no/such/file.ir"])
        assert code == 1 and not text
        assert "error:" in capsys.readouterr().err

    def test_malformed_ir_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ir"
        bad.write_text("func oops( {\n")
        code, text = run_cli(["alloc", str(bad)])
        assert code == 1 and not text
        assert "error:" in capsys.readouterr().err

    def test_unknown_allocator_rejected_by_parser(self, sample_ir):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["alloc", sample_ir, "--allocator", "linear-scan"])

    def test_policy_flag_is_gone(self, sample_ir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["alloc", sample_ir, "--policy", "tuned_v1"],
                 out=io.StringIO())
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --policy" in capsys.readouterr().err

    def test_submit_requires_exactly_one_source(self, sample_ir):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "--file", sample_ir, "--bench", "jess"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_submit_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--bench", "quake"])

    def test_submit_without_server_fails_cleanly(self, capsys):
        code, text = run_cli(["submit", "--bench", "db",
                              "--port", "1"])  # nothing listens on 1
        assert code == 1 and not text
        assert "cannot reach allocation server" in capsys.readouterr().err

    def test_stats_without_server_fails_cleanly(self, capsys):
        code, text = run_cli(["stats", "--port", "1"])
        assert code == 1
        assert "cannot reach allocation server" in capsys.readouterr().err


class TestServiceCommands:
    @pytest.fixture
    def live_server(self):
        from repro.service import ResultCache, Scheduler, ServerThread

        thread = ServerThread(Scheduler(cache=ResultCache()))
        host, port = thread.start()
        yield host, port
        thread.stop()

    def test_submit_human_and_json(self, live_server):
        host, port = live_server
        code, text = run_cli(["submit", "--bench", "db", "--regs", "16",
                              "--host", host, "--port", str(port)])
        assert code == 0
        assert "moves" in text and "cycles" in text

        code, text = run_cli(["submit", "--bench", "db", "--regs", "16",
                              "--host", host, "--port", str(port),
                              "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["ok"] and payload["cached"]

    def test_submit_deadline_degrades(self, live_server):
        host, port = live_server
        code, text = run_cli(["submit", "--bench", "jack",
                              "--regs", "16", "--allocator", "full",
                              "--deadline", "0", "--host", host,
                              "--port", str(port), "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["ok"] and payload["degraded"]
        assert payload["effective_allocator"] == "chaitin"

    @pytest.mark.parametrize("deadline", ["-1", "inf", "nan"])
    def test_submit_refuses_a_bad_deadline_before_sending(self, deadline,
                                                         capsys):
        code, _ = run_cli(["submit", "--bench", "db", "--deadline",
                           deadline, "--port", "1"])
        assert code == 1
        assert "error: bad --deadline" in capsys.readouterr().err

    def test_stats_command(self, live_server):
        host, port = live_server
        run_cli(["submit", "--bench", "db", "--regs", "16",
                 "--host", host, "--port", str(port)])
        code, text = run_cli(["stats", "--host", host,
                              "--port", str(port)])
        assert code == 0
        payload = json.loads(text)
        assert payload["type"] == "stats"
        assert payload["schema"] >= 1
        assert payload["metrics"]["counters"]["requests_total"] >= 1
