"""CLI surface: commands, exit codes, pipeline compatibility."""

import json
import os
import subprocess
import sys

import compcodes
from compcodes import cli, formats
from compcodes.core import full_readout

from conftest import EXAMPLE_MULTISET, EXAMPLE_S

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
    assert out == '{"n":2,"counts":{"1":{"0":1,"1":1},"2":{"1":1}}}'


def test_compose_reconstruct_pipeline():
    rc, readout, _ = run("compose", EXAMPLE_S)
    assert rc == 0
    rc, out, _ = run("reconstruct", inp=readout)
    assert rc == 0
    assert json.loads(out)["result"] == EXAMPLE_S


def test_reconstruct_takes_no_spec():
    # a codeword is asked of decode, which takes clean readouts too
    _, readout, _ = run("compose", EXAMPLE_S)
    rc, out, err = run("reconstruct", "--spec", "SR:9", inp=readout)
    assert rc == 2 and out == "", err


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


def test_corrupt_insert_decode_auto_pipeline():
    _, readout, _ = run("compose", EXAMPLE_S)
    rc, corrupted, err = run("corrupt", "--model", "insert", "--count", "1",
                             "--seed", "2", "--show-error", inp=readout)
    assert rc == 0
    [[k, _]] = json.loads(err)["targets"]
    rc, out, _ = run("decode", "--spec", "SR:9", inp=corrupted)
    assert rc == 0
    report = json.loads(out)
    assert report["result"] == EXAMPLE_S
    assert report["dropped_classes"] == [k]


def test_decode_explicit_targets_skew():
    _, readout, _ = run("compose", EXAMPLE_S)
    # --show-error writes the targets in the wire form, so the wire form
    # comes back byte for byte
    wire = '{"model":"skew","targets":[[7,[2,5],[3,4]]]}'
    for targets in (json.dumps(json.loads(wire)), wire):
        _, corrupted, shown = run("corrupt", "--targets", targets,
                                  "--show-error", inp=readout)
        assert shown == wire
        rc, out, _ = run("decode", "--spec", "SR:9", inp=corrupted)
        assert rc == 0
        report = json.loads(out)
        assert report["result"] == EXAMPLE_S
        assert report["dropped_classes"] == [7]


def test_decode_nonconsecutive_sdsprime_pairs():
    # the decoder counts pairs only; pairs 2 and 6 are not consecutive
    codeword = "00000000001110100011"
    assert run("unrank", "--spec", "SDSprime:20,t=2", "100") == (0, codeword, "")
    readout = formats.emit_readout(full_readout(codeword))
    targets = json.dumps({"model": "sym_pair_delete",
                          "targets": [[2, 19], [6, 15]]})
    _, corrupted, _ = run("corrupt", "--targets", targets, inp=readout)
    rc, out, _ = run("decode", "--spec", "SDSprime:20,t=2", inp=corrupted)
    assert rc == 0
    assert json.loads(out)["result"] == codeword
    rc, _, err = run("decode", "--spec", "SDSprime:20,t=2",
                     "--experimental-nonconsecutive", inp=corrupted)
    assert rc == 2, err


def _center_skewed_sr9():
    # a skew of the centre class is never outweighed, so it shows up only
    # when the decoder retries without the centre
    readout = formats.emit_readout(full_readout("000000111"))
    targets = json.dumps({"model": "skew", "targets": [[5, [3, 2], [4, 1]]]})
    _, corrupted, _ = run("corrupt", "--targets", targets, inp=readout)
    return corrupted


def test_decode_center_skew_by_default():
    rc, out, _ = run("decode", "--spec", "SR:9", inp=_center_skewed_sr9())
    assert rc == 0
    report = json.loads(out)
    assert report["result"] == "000000111"
    assert report["dropped_classes"] == [5]


def test_decode_clean_non_member_fails():
    # 0110 is not an SR member, though its readout is clean
    _, readout, _ = run("compose", "0110")
    rc, out, _ = run("decode", "--spec", "SR:4", inp=readout)
    assert rc == 1
    report = json.loads(out)
    assert report["result"] is None
    assert report["reason"].startswith("UndecodableError")


def test_decode_modes_are_auto_and_brute():
    _, readout, _ = run("compose", EXAMPLE_S)
    rc, _, err = run("decode", "--spec", "SR:9", "--mode", "deletions",
                     inp=readout)
    assert rc == 2, err
    rc, out, _ = run("decode", "--spec", "SR:9", "--mode", "brute",
                     inp=readout)
    assert rc == 0
    assert json.loads(out) == {"result": EXAMPLE_S, "dropped_classes": [],
                               "backtracks": 0, "max_backtrack_span": 0}


def test_reconstruct_failure_exits_one():
    # the same null-result report as decode, with its exit code: the
    # skewed centre leaves weights no pairwise-weight sequence explains
    rc, out, err = run("reconstruct", inp=_center_skewed_sr9())
    assert rc == 1 and err == "", err
    report = json.loads(out)
    assert report["result"] is None
    assert report["reason"].startswith("InconsistentReadoutError")


def test_decode_failure_reports_candidates():
    # SR:12's two-pair witness (find_confusable_pair(12, "sym_pair_delete",
    # 2)) is ambiguous: the failure line names the consistent codewords,
    # and the reference prints the very same line
    s, v = "001100101101", "010010110011"
    readout = formats.emit_readout(full_readout(s).restrict({3, 4, 9, 10}))
    rc, out, _ = run("decode", "--spec", "SR:12", inp=readout)
    assert rc == 1
    failure = json.loads(out)
    assert failure["result"] is None
    assert failure["reason"].startswith("UndecodableError")
    assert {s, v} <= set(failure["candidates"])
    rc, brute_out, _ = run("decode", "--spec", "SR:12", "--mode", "brute",
                           inp=readout)
    assert rc == 1
    assert brute_out == out


def test_main_reuses_one_parser(capsys):
    # in-process callers share one parser; no call leaks into the next
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["unrank", "--spec", "SR:4", "2"]) == 0
    assert cli.main(["rank", "--spec", "SR:4", "0111"]) == 0
    # a misspelt JSON spec field is a parse error, not a default
    assert cli.main(["enumerate", "--spec",
                     '{"family":"SDA","n":12,"T":2}']) == 2
    captured = capsys.readouterr()
    assert captured.out.split() == ["0111", "2"]
    assert "unknown field 'T'" in captured.err


def test_decode_fallback_flag_is_gone():
    _, readout, _ = run("compose", EXAMPLE_S)
    rc, _, err = run("decode", "--spec", "SR:9", "--fallback-brute-force",
                     inp=readout)
    assert rc == 2 and "unrecognized arguments" in err


def test_decode_resource_cap_exits_three_in_every_mode():
    # the decoder's search budget: an SR:255 codeword with the upper half
    # deleted leaves the walk unpruned
    readout = formats.emit_readout(full_readout("0" * 128 + "1" * 127)
                                   .restrict(set(range(129, 256))))
    rc, out, err = run("decode", "--spec", "SR:255", inp=readout)
    assert rc == 3 and out == "", out
    assert "search" in err and "Traceback" not in err
    # SR:30's codebook is over the enumeration cap of the reference; the
    # decoder does not enumerate, and 1^30 is no member
    _, readout, _ = run("compose", "1" * 30)
    rc, out, err = run("decode", "--spec", "SR:30", "--mode", "brute",
                       inp=readout)
    assert rc == 3 and out == "", out
    assert "ResourceCapError" not in err and "Traceback" not in err
    rc, out, _ = run("decode", "--spec", "SR:30", inp=readout)
    assert rc == 1 and json.loads(out)["reason"].startswith("UndecodableError")
    # the reference fallback is gone
    rc, _, err = run("decode", "--spec", "SR:30", "--mode", "fallback",
                     inp=readout)
    assert rc == 2 and "invalid choice" in err


def test_corrupt_needs_exactly_one_of_model_and_targets():
    _, readout, _ = run("compose", EXAMPLE_S)
    targets = '{"model":"asym_delete","targets":[2]}'
    for args in ((), ("--model", "insert", "--count", "1", "--targets", targets)):
        rc, out, err = run("corrupt", *args, inp=readout)
        assert rc == 2 and out == "", args
        assert "--model" in err and "--targets" in err


def test_corrupt_refuses_count_and_seed_beside_targets():
    _, readout, _ = run("compose", EXAMPLE_S)
    targets = '{"model":"asym_delete","targets":[2]}'
    for extra in (("--count", "4"), ("--seed", "9"),
                  ("--count", "4", "--seed", "9")):
        rc, out, err = run("corrupt", "--targets", targets, *extra,
                           inp=readout)
        assert (rc, out) == (2, ""), extra
        assert "--targets" in err and "Traceback" not in err
    # with --model they default to a count of 1 and seed 0
    _, default, _ = run("corrupt", "--model", "skew", inp=readout)
    _, explicit, _ = run("corrupt", "--model", "skew", "--count", "1",
                         "--seed", "0", inp=readout)
    assert default == explicit != readout


def test_corrupt_seeded_targets_over_capacity_exit_two():
    _, readout, _ = run("compose", EXAMPLE_S)
    rc, out, err = run("corrupt", "--targets",
                       '{"model":"asym_delete","count":5,"seed":1}',
                       inp=readout)
    assert (rc, out) == (2, "")
    assert err == ("error: InvalidErrorSpecError: asym_delete supports at "
                   "most 4 errors at n=9")
    # so is a class pair with a third field
    rc, out, err = run("corrupt", "--targets",
                       '{"model":"sym_pair_delete","targets":[[1,9,99]]}',
                       inp=readout)
    assert (rc, out) == (2, "")
    assert "[1, 9, 99]" in err and "Traceback" not in err


def test_model_choices_follow_each_side_of_the_model_table(capsys):
    # insert has no pattern universe to verify, and the consecutive
    # pairs are an oracle universe with no channel draw
    for argv in (["verify", "--spec", "SR:8", "--model", "insert"],
                 ["corrupt", "--model", "consecutive_sym_pair_delete"],
                 ["experiment", "--spec", "SR:8", "--model",
                  "consecutive_sym_pair_delete", "--trials", "1",
                  "--seed", "1"]):
        assert cli.main(argv) == 2, argv
        assert "invalid choice" in capsys.readouterr().err, argv


def test_enumerate_rank_unrank():
    rc, out, _ = run("enumerate", "--spec", "SR:4")
    assert rc == 0 and out.splitlines() == ["0001", "0011", "0111"]
    rc, out, _ = run("rank", "--spec", "SR:4", "0011")
    assert rc == 0 and out == "1"
    rc, out, _ = run("unrank", "--spec", "SR:4", "2")
    assert rc == 0 and out == "0111"
    # through the member-to-index table of SDS2's residue walk and of SR's
    # plain one, the last at SR:20's last index
    for spec, index in (("SDS2:20", "7000"), ("SR:20", "52667")):
        rc, s, _ = run("unrank", "--spec", spec, index)
        assert rc == 0 and run("rank", "--spec", spec, s) == (0, index, "")
    # a non-member and the index one past the end are usage errors, and
    # SR:27 is over the enumeration cap
    for args, code in ((("rank", "--spec", "SDS2:20", "0" * 20), 2),
                       (("unrank", "--spec", "SR:20", "52668"), 2),
                       (("unrank", "--spec", "SR:27", "0"), 3)):
        rc, out, err = run(*args)
        assert (rc, out) == (code, ""), args
        assert err.startswith("error: ") and "Traceback" not in err


def test_verify_exit_codes():
    rc, out, _ = run("verify", "--spec", "SDS2:10,a=0",
                     "--model", "sym_pair_delete", "--t", "2")
    assert rc == 0 and json.loads(out)["ok"]
    rc, out, _ = run("verify", "--spec", "SR:10",
                     "--model", "sym_pair_delete", "--t", "2")
    assert rc == 1
    payload = json.loads(out)
    assert not payload["ok"] and payload["reverified"]


def test_verify_output_lines():
    # the exact payloads, with and without a witness
    rc, out, _ = run("verify", "--spec", "SDS2:10,a=0",
                     "--model", "sym_pair_delete", "--t", "2")
    assert rc == 0 and out == (
        '{"spec":{"family":"SDS2","n":10,"t":1,"a":0},'
        '"model":"sym_pair_delete","t":2,"ok":true}')
    rc, out, _ = run("verify", "--spec", "SR:10",
                     "--model", "sym_pair_delete", "--t", "2")
    assert rc == 1 and out == (
        '{"spec":{"family":"SR","n":10,"t":1,"a":0},'
        '"model":"sym_pair_delete","t":2,"ok":false,'
        '"witness":{"s":"0001001011","v":"0010001101",'
        '"deleted_classes":[3,4,7,8]},"reverified":true}')
    # the consecutive-pair regime's counterexample at n = 10 (criterion 6)
    rc, out, _ = run("verify", "--spec", "SDSprime:10,t=2,a=2",
                     "--model", "consecutive_sym_pair_delete", "--t", "2")
    assert rc == 1 and out == (
        '{"spec":{"family":"SDSprime","n":10,"t":2,"a":2},'
        '"model":"consecutive_sym_pair_delete","t":2,"ok":false,'
        '"witness":{"s":"0100111011","v":"0110010111",'
        '"deleted_classes":[4,5,6,7]},"reverified":true}')


def test_bounds_command():
    rc, out, _ = run("bounds", "--spec", "SDA:12,t=2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["size"] == 143
    assert payload["measured_redundancy"] <= payload["redundancy_bound"]
    assert payload["size"] >= payload["size_lower_bound"]


def test_bounds_output_lines():
    # the exact payloads; an empty codebook has no measured redundancy
    rc, out, _ = run("bounds", "--spec", "SDA:12,t=2")
    assert rc == 0 and out == (
        '{"spec":{"family":"SDA","n":12,"t":2,"a":0},"size":143,'
        '"measured_redundancy":4.840129,"redundancy_bound":8.5,'
        '"size_lower_bound":98.0}')
    rc, out, _ = run("bounds", "--spec", "SCA1:3")
    assert rc == 0 and out == (
        '{"spec":{"family":"SCA1","n":3,"t":1,"a":0},"size":0,'
        '"measured_redundancy":null,"redundancy_bound":8.0}')


def test_bounds_below_stated_length_exit_two():
    for spec, least in (("SCA1:2", 3), ("SDS2:2", 3), ("SDA:4,t=2", 5),
                        ("SDA:3,t=2", 5)):
        rc, _, err = run("bounds", "--spec", spec)
        assert rc == 2, err
        assert f"{spec.split(':')[0]} redundancy bound" in err
        assert f"n >= {least}" in err and "Traceback" not in err


def test_classes_command():
    for n, classes in ((6, 36), (10, 528)):
        rc, out, _ = run("classes", "--n", str(n))
        assert rc == 0
        payload = json.loads(out)
        assert payload["classes"] == classes and payload["achieves_bound"]


def test_classes_below_length_one_exit_two():
    for n in ("0", "-3"):
        rc, out, err = run("classes", "--n", n)
        assert rc == 2 and out == "", err
        assert f"n={n}" in err and "Traceback" not in err


def test_verify_t_below_one_exit_two():
    for t in ("0", "-1"):
        rc, out, err = run("verify", "--spec", "SR:8", "--model", "asym_delete",
                           "--t", t)
        assert rc == 2 and out == "", err
        assert f"t={t}" in err and "Traceback" not in err


def test_usage_errors_exit_two():
    rc, _, _ = run("decode", "--spec", "nonsense:9", inp='{"n":1,"counts":{}}')
    assert rc == 2
    rc, _, _ = run("classes", "--n", "25")
    assert rc == 3  # resource cap


def test_malformed_readout_exits_two(tmp_path):
    for text in ('{"n":3,"counts":[1]}', '{"n":3,"counts":{"1":5}}', "[" * 5000,
                 '{"n":256,"counts":{}}', '{"n":1000000000,"counts":{}}'):
        rc, _, err = run("decode", "--spec", "SR:3", inp=text)
        assert rc == 2, err
        assert "Traceback" not in err
    # the entry-list form of older files is refused, naming the count form
    rc, out, err = run("decode", "--spec", "SR:3",
                       inp='{"n":3,"classes":{"3":[[2,1]]}}')
    assert rc == 2 and out == "", err
    assert "'counts'" in err and "Traceback" not in err
    # so is a whole file in that form, the worked example's, read by -i
    path = tmp_path / "entries.json"
    path.write_text(json.dumps({"n": 9, "classes": {
        k: [[z, w] for (z, w), m in table.items() for _ in range(m)]
        for k, table in EXAMPLE_MULTISET.items()}}))
    rc, out, err = run("decode", "--spec", "SR:9", "-i", str(path))
    assert rc == 2 and out == "", err
    assert "'counts'" in err and "Traceback" not in err


def test_file_errors_exit_two(tmp_path):
    missing = str(tmp_path / "missing.json")
    for args in (("decode", "--spec", "SR:9", "-i", missing),
                 ("compose", "0101", "--out", str(tmp_path)),
                 ("experiment", "--spec", "SR:9", "--model", "skew",
                  "--trials", "1", "--seed", "1", "--out", str(tmp_path))):
        rc, out, err = run(*args)
        assert rc == 2 and out == "", err
        assert err.startswith("error: ") and "Traceback" not in err


def test_experiment_negative_trials_exit_two():
    rc, out, err = run("experiment", "--spec", "SR:9", "--model", "skew",
                       "--trials", "-3", "--seed", "1")
    assert rc == 2 and out == "", err
    assert "-3" in err and "Traceback" not in err
    rc, out, err = run("experiment", "--spec", "SR:9", "--model", "skew",
                       "--trials", "0", "--seed", "1")
    assert rc == 0 and out == "" and "trials=0 failures=0" in err


def test_experiment_errors_over_capacity_exit_two():
    # refused before any trial, so with no trials too
    rc, out, err = run("experiment", "--spec", "SR:9", "--model",
                       "asym_delete", "--t", "9", "--trials", "0",
                       "--seed", "1")
    assert rc == 2 and out == "", err
    assert "InvalidErrorSpecError" in err and "config=" not in err


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
