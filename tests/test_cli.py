"""CLI surface: commands, exit codes, pipeline compatibility."""

import json
import os
import subprocess
import sys

import compcodes

EXAMPLE_S = "001010111"

# the CLI subprocess imports the same package as this test process
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(compcodes.__file__)),
    os.environ.get("PYTHONPATH")))))


def run(*args, inp=None):
    proc = subprocess.run([sys.executable, "-m", "compcodes.cli", *args],
                          capture_output=True, text=True, input=inp, env=_ENV)
    return proc.returncode, proc.stdout.strip(), proc.stderr.strip()


def test_compose_matches_wire_format():
    rc, out, _ = run("compose", "01")
    assert rc == 0
    assert out == '{"n":2,"classes":{"1":[[1,0],[0,1]],"2":[[1,1]]}}'


def test_compose_reconstruct_pipeline():
    rc, readout, _ = run("compose", EXAMPLE_S)
    assert rc == 0
    rc, out, _ = run("reconstruct", "--spec", "SR:9", inp=readout)
    assert rc == 0
    assert json.loads(out)["result"] == EXAMPLE_S


def test_corrupt_decode_pipeline():
    _, readout, _ = run("compose", EXAMPLE_S)
    rc, corrupted, err = run("corrupt", "--model", "sym_pair_delete",
                             "--count", "1", "--seed", "5", "--show-error",
                             inp=readout)
    assert rc == 0
    assert json.loads(err)["model"] == "sym_pair_delete"
    rc, out, _ = run("decode", "--spec", "SR:9", inp=corrupted)
    assert rc == 0
    assert json.loads(out)["result"] == EXAMPLE_S


def test_decode_explicit_targets_skew():
    _, readout, _ = run("compose", EXAMPLE_S)
    targets = json.dumps({"model": "skew",
                          "targets": [[7, [2, 5], [3, 4]]]})
    _, corrupted, _ = run("corrupt", "--targets", targets, inp=readout)
    rc, out, _ = run("decode", "--spec", "SR:9", inp=corrupted)
    assert rc == 0
    report = json.loads(out)
    assert report["result"] == EXAMPLE_S
    assert report["dropped_classes"] == [7]


def test_enumerate_rank_unrank():
    rc, out, _ = run("enumerate", "--spec", "SR:4")
    assert rc == 0 and out.splitlines() == ["0001", "0011", "0111"]
    rc, out, _ = run("rank", "--spec", "SR:4", "0011")
    assert rc == 0 and out == "1"
    rc, out, _ = run("unrank", "--spec", "SR:4", "2")
    assert rc == 0 and out == "0111"


def test_verify_exit_codes():
    rc, out, _ = run("verify", "--spec", "SDS2:10,a=0",
                     "--model", "sym_pair_delete", "--t", "2")
    assert rc == 0 and json.loads(out)["ok"]
    rc, out, _ = run("verify", "--spec", "SR:10",
                     "--model", "sym_pair_delete", "--t", "2")
    assert rc == 1
    payload = json.loads(out)
    assert not payload["ok"] and payload["reverified"]


def test_bounds_command():
    rc, out, _ = run("bounds", "--spec", "SDA:12,t=2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["size"] == 143
    assert payload["measured_redundancy"] <= payload["redundancy_bound"]
    assert payload["size"] >= payload["size_lower_bound"]


def test_classes_command():
    rc, out, _ = run("classes", "--n", "6")
    assert rc == 0
    payload = json.loads(out)
    assert payload["classes"] == 36 and payload["achieves_bound"]


def test_usage_errors_exit_two():
    rc, _, _ = run("decode", "--spec", "nonsense:9", inp='{"n":1,"classes":{}}')
    assert rc == 2
    rc, _, _ = run("classes", "--n", "25")
    assert rc == 3  # resource cap


def test_malformed_readout_exits_two():
    for text in ('{"n":3,"classes":[1]}', '{"n":3,"classes":{"1":5}}'):
        rc, _, err = run("decode", "--spec", "SR:3", inp=text)
        assert rc == 2, err
        assert "Traceback" not in err


def test_experiment_jsonl_replay(tmp_path):
    args = ("experiment", "--spec", "SR:9", "--model", "asym_delete",
            "--t", "1", "--trials", "10", "--seed", "11")
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    rc1, _, err1 = run(*args, "--out", str(out1))
    rc2, _, err2 = run(*args, "--out", str(out2))
    assert rc1 == rc2 == 0
    assert "failures=0" in err1

    def stripped(path):
        rows = []
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            obj.pop("wall_ms")
            rows.append(json.dumps(obj, separators=(",", ":")))
        return rows

    assert stripped(out1) == stripped(out2)
    assert len(stripped(out1)) == 10
