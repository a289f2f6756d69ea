"""CLI reports stay byte-identical: every command below is run in-process
with relative paths, and the sha256 of its stdout and of each file it
writes is compared with a recorded digest.

A library change that alters any report, params file or rendering fails
here, and the assertion diff names the command.  A change that alters a
report on purpose records the new digests (``run_commands`` returns them)
and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io

from subtag.cli import main

# (name, argv, files the command writes); later commands read earlier files
COMMANDS = (
    ("setup-rs", ["setup", "--q", "5", "--l", "3", "--n", "2", "--M", "2",
                  "--V", "6", "--kdim", "3", "--out", "rs.json"], ("rs.json",)),
    ("setup-tiny", ["setup", "--q", "2", "--l", "2", "--n", "1", "--M", "1",
                    "--V", "3", "--kdim", "2", "--out", "tiny.json",
                    "--report", "tiny-report.json"], ("tiny.json", "tiny-report.json")),
    ("setup-rs52", ["setup", "--q", "5", "--l", "2", "--n", "1", "--M", "1",
                    "--V", "5", "--kdim", "2", "--out", "rs52.json"], ("rs52.json",)),
    ("ec-code", ["ec-code", "--q", "5", "--l", "2", "--a", "1", "--b", "1",
                 "--degree", "2", "--num-points", "5", "--n", "1", "--M", "1",
                 "--out", "ec.json"], ("ec.json",)),
    ("simulate", ["simulate", "--params", "rs.json", "--seed", "7"], ()),
    ("simulate-inject", ["simulate", "--params", "rs.json", "--seed", "7",
                         "--inject-at", "b"], ()),
    ("attack-deterministic", ["attack", "--params", "rs.json", "--seed", "3",
                              "--coalition", "1,2,3", "--target", "4"], ()),
    ("attack-not-qualified", ["attack", "--params", "rs.json", "--seed", "3",
                              "--coalition", "1,2", "--target", "4",
                              "--out", "attack.json"], ("attack.json",)),
    ("attack-guess", ["attack", "--params", "tiny.json", "--seed", "11",
                      "--coalition", "1", "--target", "3", "--mode", "guess",
                      "--trials", "64"], ()),
    ("attack-histogram", ["attack", "--params", "tiny.json", "--seed", "11",
                          "--coalition", "1", "--target", "3",
                          "--mode", "histogram"], ()),
    ("attack-ec", ["attack", "--params", "ec.json", "--seed", "5",
                   "--coalition", "1,2,3", "--target", "5"], ()),
    ("analyze-rs", ["analyze", "--params", "rs52.json", "--target", "1"], ()),
    ("analyze-ec", ["analyze", "--params", "ec.json", "--target", "2"], ()),
    # the (2, 6, 3) code of the access benchmark: 35 coalitions, 120 ec_table rows
    ("ec-code-d3", ["ec-code", "--q", "5", "--l", "2", "--a", "1", "--b", "1",
                    "--degree", "3", "--num-points", "6", "--n", "2", "--M", "2",
                    "--out", "ec3.json"], ("ec3.json",)),
    ("analyze-ec-d3", ["analyze", "--params", "ec3.json", "--target", "1"], ()),
    # seed 11 observes the payload (3, 0), so the default payload is e_1 = (0, 1)
    ("attack-default-payload", ["attack", "--params", "rs52.json", "--seed", "11",
                                "--coalition", "1,2", "--target", "3"], ()),
    # the (1, 8, 2) = [8,6] and (1, 8, 3) = [8,5] codes of the access benchmark
    ("ec-code-8d2", ["ec-code", "--q", "5", "--l", "1", "--a", "1", "--b", "1",
                     "--degree", "2", "--num-points", "8", "--n", "1", "--M", "1",
                     "--out", "ec8d2.json"], ("ec8d2.json",)),
    ("analyze-ec-8d2", ["analyze", "--params", "ec8d2.json", "--target", "1"], ()),
    ("ec-code-8d3", ["ec-code", "--q", "5", "--l", "1", "--a", "1", "--b", "1",
                     "--degree", "3", "--num-points", "8", "--n", "1", "--M", "1",
                     "--out", "ec8d3.json"], ("ec8d3.json",)),
    ("analyze-ec-8d3", ["analyze", "--params", "ec8d3.json", "--target", "1"], ()),
    # GF(7^2) of order 49 and GF(7^2)^2 of order 2401, either side of the
    # order 1024 where odd-p addition once switched from a table to digits
    ("setup-rs49", ["setup", "--q", "49", "--l", "2", "--n", "1", "--M", "1",
                    "--V", "4", "--kdim", "2", "--out", "rs49.json"], ("rs49.json",)),
    ("simulate-rs49", ["simulate", "--params", "rs49.json", "--seed", "7"], ()),
    ("attack-rs49", ["attack", "--params", "rs49.json", "--seed", "3",
                     "--coalition", "1,2", "--target", "3"], ()),
    ("analyze-rs49", ["analyze", "--params", "rs49.json", "--target", "1"], ()),
    # untabulated extensions GF(2^8)^3 and GF(7^2)^3: their params files and
    # analyze reports carry field values, so they pin the arithmetic
    ("setup-rs256", ["setup", "--q", "256", "--l", "3", "--n", "2", "--M", "2",
                     "--V", "6", "--kdim", "3", "--out", "rs256.json"], ("rs256.json",)),
    ("analyze-rs256", ["analyze", "--params", "rs256.json", "--target", "1"], ()),
    ("setup-rs49x3", ["setup", "--q", "49", "--l", "3", "--n", "1", "--M", "1",
                      "--V", "4", "--kdim", "2", "--out", "rs49x3.json"], ("rs49x3.json",)),
    ("analyze-rs49x3", ["analyze", "--params", "rs49x3.json", "--target", "1"], ()),
)

# recorded when this test was added
DIGESTS = {
    'setup-rs': '1f1490e7899c2a6099dc3edc39f0715eec7b43ff34fce58fb3a33360fedd8c0f',
    'setup-rs:rs.json': 'dc251f026bba56bca6c6dac7d97e662fb73e162bd462011bc02c740a03af27b5',
    'setup-tiny': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'setup-tiny:tiny.json': 'ef905205bd61f270b2e5d8a68477226e9e1d34ec80899378a4ae485a2c7e965f',
    'setup-tiny:tiny-report.json': 'be673c6af074f8f281f889c9c7e4259d1e60a95fc06c31647c878d2573a7da37',
    'setup-rs52': '4367a3e7e1b165c0c05fca82e0896e4b28d7ecab7f1fba8c9c9a4f9fa9c3ecf5',
    'setup-rs52:rs52.json': 'c05d89596f95dcb6d4aba966a5cf27fddd3844be9a9f6ecfc39fb6814ae4b402',
    'ec-code': 'b14f9c7af91a6d351cd029922c539b24761ec612e22231c2a4f60fcd4b40b90f',
    'ec-code:ec.json': '25fbe46c2669ecd6d4526ca97652e1fac562f4338d88942a98887624d6a363cd',
    'simulate': 'ca90619bf8f6ede76844510421506034000532f33cc8975b521c5b6e099e4293',
    'simulate-inject': '7ebe595c8c1aa2a64a1c7894be29523ef63dac19db9286b7a3744301c9cf7a59',
    'attack-deterministic': 'bdacbef68ff9ff21ab5d1c305940c3dbbab5d087d53c1b24c985e46b681b9c4d',
    'attack-not-qualified': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    'attack-not-qualified:attack.json': '0b6f39bfcf4d0ddfb23196aedc470cfa74644226a248104e0ccf040c40271fa6',
    'attack-guess': 'e6b22ad2cde00910b627ff651cbe42f1357dde36de0e7e77c3e24f68728b2560',
    'attack-histogram': '99d0cea11c2cabcd195afbc39799b3e926adb15b4773320b0c3fd3252f4dee8f',
    'attack-ec': 'f807912378819c7baa526f31f71158558f7582b991d03c7de93a9816d6e8e1af',
    'analyze-rs': '2a7c0eb9966e448b262002aa04cc98a8f34c27f8ba8eea15de4f67e7ca394ea2',
    'analyze-ec': '10125874d5559c0f31143a06b889a4b4817b434c1ec1d008787a4c12a8df25ef',
    # recorded before the ec_table was built one coalition at a time
    'ec-code-d3': '2ab1fbd7dadfa8df118d5422f2414f400aabdb728fd7673f24784e0241ba49fb',
    'ec-code-d3:ec3.json': '4f8b24a3ee89c99d4f3adccd55011a92f7320bb7cd48552d49198fcaa7133b04',
    'analyze-ec-d3': '8c65e7b8f21872beb7bb3fc5e1489801a497e8cf72c8316c6732401b86f95f9e',
    # recorded before the default payload was found among the unit vectors
    'attack-default-payload': '0e132d56959c118f6e6f0054ee6a9aa8b5961fd127ce7ca908d539779cc54247',
    # recorded before the column-subset searches shared their prefixes
    'ec-code-8d2': 'ba057f235fb577ae2792a4464d2e75df6efa82b36df14f6fda1392351bb43ac3',
    'ec-code-8d2:ec8d2.json': 'f5b59c8f1223e2e1f0c31614562f7224951ef39110838f9b2ce5193d0b42bb8a',
    'analyze-ec-8d2': 'e2f59943afefccc3d4ac2e10ea687a6a80ab7057c247a8f80e80c071d434bd79',
    'ec-code-8d3': '8fa17ad3d7ac693958ab5e41dab169112092f8952b384b0fde2664f638b160de',
    'ec-code-8d3:ec8d3.json': '04e5ba1f102d84c5e0b8a54e798e44d3bede6260df070f048844b6d44f2f14e9',
    'analyze-ec-8d3': 'bd879acb71be7948426bd69e48f81654aa3b9043f9d75c228fdd9a211c83b4aa',
    # recorded before tabulated odd-p fields added by Zech logarithms
    'setup-rs49': '80e46a535e706201605728ca635830ba07e956f553effdd7cc71173c6ec9b36d',
    'setup-rs49:rs49.json': 'fe804b5f8e505d42986443df863b3be011a5b3a7897424155bf89926793814cc',
    'simulate-rs49': '1c33f9e6944f923ef825f626617463bf901baaf5547c305cebe510acf18ffd91',
    'attack-rs49': 'bc01e023a9909f6d39953892a0dfb9cd21f2578bf5a2b6886e109ab5f3744bfb',
    'analyze-rs49': '40b1b033280dc5fbde837a4c500a653074eedda0741ac1b6c39ccb639bacc813',
    # recorded before untabulated fields multiplied by a compiled product
    'setup-rs256': '0acafd702b561b36e0cc6d2ae766435329cfdfa6193ce8c3bd8de2a0e8997846',
    'setup-rs256:rs256.json': 'af88421ef3449132c2b68c63c9e65804bcb1882f7cc9725be8fd68adda0dad0d',
    'analyze-rs256': '1f08013ba0d328340ec49f7cde3817a5267f898034e7edf2a44c2825cd30e2dc',
    'setup-rs49x3': '6d875e92a32212540f92940718097d9446efd0ed9bdea6c0b61259112f56c4fa',
    'setup-rs49x3:rs49x3.json': '706d82ef06eedf78ee981cef154fa15e4084c4d2769151b4d43fd4c90bc0a8fd',
    'analyze-rs49x3': '2a2665f2c736f57e732ee50a134ded97cbe8d3816793a96ff69b068b47027411',
}


def run_commands(workdir) -> dict[str, str]:
    """Run COMMANDS in ``workdir`` (the current directory); sha256 digests
    of each command's stdout and of every file it writes."""
    got = {}
    for name, argv, written in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(argv)
        assert rc == 0, name
        got[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        for path in written:
            data = (workdir / path).read_bytes()
            got[f"{name}:{path}"] = hashlib.sha256(data).hexdigest()
    return got


def test_reports_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_commands(tmp_path) == DIGESTS
