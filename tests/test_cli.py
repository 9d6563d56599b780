"""Command-line interface: subcommands, exit codes, JSON schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from nestprohibitor.cli import main
from nestprohibitor.engine import eliminate
from nestprohibitor.schemes import RealScheme
from test_engine import FIG20_ROWS, SCHEME_2_2_20, candidates, figure20_candidate

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMAS = SRC / "nestprohibitor" / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


def make_validator(name):
    from referencing import Registry, Resource

    registry = Registry().with_resources(
        (other, Resource.from_contents(load_schema(other)))
        for other in ("ledger.schema.json", "trace.schema.json", "report.schema.json")
    )
    return jsonschema.Draft7Validator(load_schema(name), registry=registry)


# A valid ledger that satisfies every rule.
LEDGER = {
    "lambda": [0, 0, 0, 0, 0, 0, 0],
    "epsilon": [1, 1, 1, -1, -1, -1],
    "LambdaPlus": 14,
    "LambdaMinus": 14,
    "PiPlus": 8,
    "PiMinus": 4,
    "zonePop": [0, 0, 0, 0, 0, 0, 0],
}


class TestCheck:
    def test_valid_scheme(self, capsys):
        assert main(["check", "<J + 1<2> + 1<2> + 1<20> + 1>"]) == 0
        out = capsys.readouterr().out
        assert "all-even: yes" in out
        assert "alpha = (2, 2, 20)" in out

    def test_malformed_exit_2(self, capsys):
        assert main(["check", "<J + 1<2> + 1<2>"]) == 2
        assert "position" in capsys.readouterr().err

    def test_bad_total_exit_2(self, capsys):
        assert main(["check", "<J + 1<1> + 1<1> + 1<1> + 5>"]) == 2
        assert "25" in capsys.readouterr().err

    def test_ledger_verdicts(self, tmp_path, capsys):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(LEDGER))
        assert main(
            ["check", "<J + 1<2> + 1<2> + 1<20> + 1>", "--ledger", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "rm: satisfied" in out
        assert "lemma10: satisfied" in out

    @pytest.mark.parametrize(
        "content,message",
        [
            ('{"lambda": [0]}', "missing field 'epsilon'"),
            ("{not json", "Expecting property name"),
            (
                json.dumps(
                    {
                        "lambda": [1, 0, 0, 0, 0, 0, 0],
                        "epsilon": [1, 1, 1, -1, -1, -1],
                        "LambdaPlus": 14,
                        "LambdaMinus": 14,
                        "PiPlus": 8,
                        "PiMinus": 4,
                        "zonePop": [0, 0, 0, 0, 0, 0, 0],
                    }
                ),
                "exceeds population",
            ),
            (
                json.dumps({**LEDGER, "lambda": [1.0, 0, 0, 0, 0, 0, 0]}),
                "field 'lambda' must be a list of integers",
            ),
            (
                json.dumps({**LEDGER, "epsilon": [True, 1, 1, -1, -1, -1]}),
                "field 'epsilon' must be a list of integers",
            ),
            (json.dumps({**LEDGER, "extra": 0}), "unknown field 'extra'"),
            (
                json.dumps({**LEDGER, "lambda": 5}),
                "field 'lambda' must be a list of integers",
            ),
            (
                json.dumps({**LEDGER, "LambdaPlus": [14]}),
                "field 'LambdaPlus' must be an integer",
            ),
        ],
        ids=[
            "missing-field", "malformed-json", "invalid-ledger", "float-lambda",
            "bool-epsilon", "extra-key", "int-lambda", "list-LambdaPlus",
        ],
    )
    def test_bad_ledger_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "ledger.json"
        path.write_text(content)
        assert main(["check", "<J + 1<2> + 1<2> + 1<20> + 1>", "--ledger", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_deeply_nested_ledger_exit_2(self, tmp_path, capsys):
        # json.load raises RecursionError, not a ValueError, on this file
        path = tmp_path / "ledger.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["check", "<J + 1<2> + 1<2> + 1<20> + 1>", "--ledger", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: ledger {path}: ")

    def test_count_with_too_many_digits_exit_2(self, capsys):
        assert main(["check", f"<J + 1<2> + 1<2> + 1<{'9' * 5000}> + 1>"]) == 2
        assert "position 21: count has too many digits" in capsys.readouterr().err

    def test_deeply_nested_scheme_exit_2(self, capsys):
        deep = "1<" * 5000 + "1" + ">" * 5000
        assert main(["check", f"<J + {deep} + 1<1> + 1<1> + 21>"]) == 2
        assert "error: nests of depth greater than two" in capsys.readouterr().err

    def test_missing_ledger_exit_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["check", "<J + 1<2> + 1<2> + 1<20> + 1>", "--ledger", str(path)]) == 2
        assert "No such file" in capsys.readouterr().err


class TestEnumerate:
    def test_even_count(self, capsys):
        assert main(["enumerate", "--even"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 53

    def test_even_beta_one(self, capsys):
        assert main(["enumerate", "--even", "--beta", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12

    def test_negative_beta_exit_2(self, capsys):
        assert main(["enumerate", "--beta", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --beta")

    def test_json_format(self, capsys):
        assert main(["enumerate", "--even", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 53
        assert data["schemes"][0]["scheme"].startswith("<J + ")


class TestTables:
    @pytest.mark.parametrize("figure,rows", [(16, 10), (17, 8), (18, 4), (19, 12), (20, 8), (21, 6), (22, 3)])
    def test_tsv_row_counts(self, capsys, figure, rows):
        assert main(["tables", "--figure", str(figure), "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == rows + 1  # header included

    def test_unknown_figure_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["tables", "--figure", "15"])
        assert err.value.code == 2

    def test_figure21_carries_annotation(self, capsys):
        assert main(["tables", "--figure", "21", "--format", "tsv"]) == 0
        assert "printed=-2" in capsys.readouterr().out


class TestProve:
    def test_theorem1_closes(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["prove", "theorem1", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "53 schemes excluded" in out
        assert "41 new" in out
        report = json.loads(path.read_text())
        make_validator("report.schema.json").validate(report)

    def test_theorem1_ablated_is_open(self, capsys):
        assert main(["prove", "theorem1", "--ablate", "lambda0_bound"]) == 1
        assert "open:" in capsys.readouterr().out

    def test_unknown_ablation_exit_2(self, capsys):
        assert main(["prove", "theorem1", "--ablate", "bogus"]) == 2

    def test_proposition2_closes(self, capsys):
        assert main(["prove", "proposition2"]) == 0
        out = capsys.readouterr().out
        assert "all closed: True" in out
        assert "printed -2" in out

    def test_unwritable_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "r.json"
        assert main(["prove", "proposition2", "--json", str(path)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not path.exists()


class TestClosedPipe:
    # The reader of stdout is gone before the first write, as after `| head`
    # has read its lines: the command still exits with its own code, and
    # without a traceback.
    @pytest.mark.parametrize(
        "args,code",
        [
            (["enumerate"], 0),
            (["prove", "proposition2"], 0),
            (["prove", "proposition2", "--ablate", "exterior_zone"], 1),
        ],
        ids=["listing", "prove-closed", "prove-open"],
    )
    def test_exit_code_survives(self, tmp_path, args, code):
        report = tmp_path / "report.json"
        if args[0] == "prove":
            args = args + ["--json", str(report)]
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "nestprohibitor.cli", *args],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == code
        assert done.stderr == b""
        assert report.exists() == (args[0] == "prove")


class TestRulesListing:
    def test_lists_all_rules(self, capsys):
        assert main(["rules", "list"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "rm",
            "lemma10",
            "lambda0_bound",
            "triangle_bound",
            "exterior_zone",
            "separating",
            "empty_triangles",
            "jump",
        ):
            assert rule_id in out
        assert "citation:" in out and "hypothesis:" in out


class TestSchemas:
    def test_trace_schema_accepts_engine_output(self):
        validator = make_validator("trace.schema.json")
        for row in (FIG20_ROWS[0], FIG20_ROWS[3], FIG20_ROWS[7]):
            trace = eliminate(figure20_candidate(row, SCHEME_2_2_20), SCHEME_2_2_20)
            validator.validate(trace.to_json_dict())

    def test_trace_schema_accepts_witnesses(self):
        validator = make_validator("trace.schema.json")
        scheme = RealScheme((1, 2, 22), 0)
        for candidate in candidates(scheme):
            trace = eliminate(candidate, scheme)
            if trace.outcome == "survives":
                validator.validate(trace.to_json_dict())
                return
        pytest.fail("expected a surviving trace")

    def test_ledger_schema(self):
        validator = make_validator("ledger.schema.json")
        scheme = RealScheme((1, 2, 22), 0)
        for candidate in candidates(scheme):
            trace = eliminate(candidate, scheme)
            if trace.witness is not None:
                validator.validate(trace.witness.to_json_dict())
                return
        pytest.fail("expected a witness ledger")
