"""Pinned SHA-256 digests of every builtin transcript, of the attack-suite
report and of the ``soapsim frames`` output.

The transcript and suite digests were taken from the fixed-step tick loop.
Any change to the simulator that alters a transcript, a summary or a report
fails here, so a refactor or an optimisation of the loop must reproduce these
bytes exactly. The ``frames`` digests cover the golden hex dumps and the size
table on all four curves, with one, two and four advertised groups, each with
and without strict mode, so a change to the in-memory exchange driver, the
codecs or the size report must reproduce those bytes too.
"""

import hashlib

import pytest

from soapsim.cli import main
from soapsim.scenarios import BUILTIN_NAMES, builtin, run_attack_suite
from soapsim.simnet import ScenarioScript, ScheduleAction, StationConfig, run_scenario

TRANSCRIPT_SHA256 = {
    "benign": {
        1: "818f0d912f46a8b4a2d0f1cafe8d64d008c2e52376b0f1c93c92832ee6aaaa98",
        12: "eeefa6aa06b3b48b85bd1143bda974409d417e262c51fda21cb92fd58c4df090",
        77: "f3b9f5e5f49a483f4fc8acfbe5856884d0ee08857a6565207850e611c1fa85ba",
    },
    "benign-multigroup": {
        1: "0bb9e5635bce58268529c3a77d128db19a7497c46e3fb6f7b1cba6e4a0d73949",
        12: "6c4f3c220618a95e14a6940dfb1a49dc4149d4edb0a1beeb16b386f004cb537b",
        77: "55a3c36136ef257a5c6eb7eae70c4f7eda68fb5ff71acc3a2db17e1f82c28e7d",
    },
    "benign-strict": {
        1: "c66fd1b3edcc330ae9444d5b605926d718b1ba25b5213c6b2984a7f7be96a251",
        12: "22a2d78e7fce087ba1b2561b71ab4d05b0f0344ad4ca985a4c5dffa7274d9fd1",
        77: "a254029e85e618bacdcfe7518182df68009badb72bd0b10c9dc0ac1b817924cf",
    },
    "crowd": {
        1: "a3c69889f45f36fafabdef6266e4e98569d3f4decfe16b13e35684f1afa3039b",
        12: "bff0b2dc4465f8570406307ad1ee5f77b69ea4cfc79fa2f067845fea23da6187",
        77: "dc08ed1eba43bfb6cb6cbc6579f1cb16a0142440ea01b5338360ce1442b91c2f",
    },
    "delete-intercept": {
        1: "c6b1da84e4538f4a077cea240a11dd723f5903b404af76efd5851e6cfcdb492c",
        12: "31e2e21abb20b842e68210a64f0505ef2f64b7a766838a227ce7b1ab572f104a",
        77: "dcd5957081b084a337b61c0825bf300c73a582ff1e00403ecd87dc8ff258c4b4",
    },
    "eavesdrop": {
        1: "7fd866c4752f748fc141d03908c57a10438a5230f38639ba1056663fb60d96af",
        12: "d791f5905b52c9ce364f65f1f4b27e5424fb2d285ff9d3ffe2806b7d45a2a9de",
        77: "f151570e987fb97d9c806816fa89b565ae9f64a7aa592387ecd6f952e839be54",
    },
    "ephemeral": {
        1: "56f8e6b55bb2e5b108863065d7fe1140158401ecfd026f9463cfbb07ad11a548",
        12: "e268362d714db0a5fea59c94ed9ce8e5c7ddbd0006409398713250fd50e3f73a",
        77: "1e884511c7bd6da8c2c9c63c22a7760f133c68673d83dc9b944d61677b2584fe",
    },
    "fallback-disjoint": {
        1: "53d3d3456e6d8b543eb59fdfb277aef1a616478b8913fbc5c2adaeb23a62a2c3",
        12: "dcbed1be13c48aeabbefb8cc9994d119865882e5c91e7b251ae9b978a2b6a582",
        77: "b9150bdc7b91ca03404f6f0ce374aa35e9d46f1112a54173029a3a48bd52e19f",
    },
    "force-legacy": {
        1: "179d662e8f423469702f0d48edb3409fc335ae884481aa460f2c30f745ee6aec",
        12: "24664c7241f5375682895d917da87d5b5b208388c2dbd8a2d3bf032affb05be0",
        77: "b349a26db8dd205441c27dfb1b6924ac9177512763ececd22a2e5335cdb73c73",
    },
    "hijack-disassoc-mitigated": {
        1: "63e7da5315156b148e7d36c4cf9e15d12315dd242352936c2aa333795edc8325",
        12: "791d8cf9ee20acc8c3e1c910659b13dbab89bf3877419b0b68184591b535fe0e",
        77: "c40067720dd1efc55d8d0b9779a74f33153430fc39bcddd90e62e1d1ec4f044f",
    },
    "hijack-disassoc-unmitigated": {
        1: "76fe21c8f0176aab2919fb2020bd436617fc35f38204eb6e42df9e1010f8d23b",
        12: "4a72562632a95432ef64b0c9f69eae7172776be17980542c33849f52b77fa40f",
        77: "2e0a1dfe652b7aa06a661c32b85fd91c535d5592c5b909f29e98a1293c3b1512",
    },
    "hijack-mitm": {
        1: "e93c1136ed4431c8ff85eb847c83db13cff726d8e13451c6c1876a22e9991b19",
        12: "30543be2674a1f198c54476eb4695ed305272df4121e0560f034b8e13018990e",
        77: "7a90e511e1ac39ec222321cb5f144c803f7d346cc4972d95309dff92ee7511c3",
    },
    "inject-mitigated": {
        1: "edc53368dc68b36d034442d827bdc19aa3c62ef791bd10995bbcb96308d50fda",
        12: "e872c797a7ff82512770bf4e2a59d26f553f5dc320cd02a439ad16f0313e881c",
        77: "c48171955e01f1537c6f381930e1a043722635dd350022a38a35beec9796adf4",
    },
    "inject-unmitigated": {
        1: "2198cdad082de33c0f34b11ce33a2473e1336b6c366ff4c3e616f76b4c7314b9",
        12: "7e700e313e92afa8a8c329a0bab41a0a4439e6a606fc419438593cb7b3c28155",
        77: "ec8ed4edda3a9718be2037bd046c9e729925bd476bc195c93bf620f7bb0d59ca",
    },
    "leak-selftest": {
        1: "1c5048a57ca9692fedeb234f2123f7080ae574b2da8c13345b85a687f7486a12",
        12: "9b46828812e286b2c76c72013334861b1eb43daf009af6b9ebf7e27ee4ff6283",
        77: "9498e5c3b5b0c0cd99aa44d429e56c8321efb48727e08bf47624bd49dfe1a7c7",
    },
    "legacy-ap": {
        1: "2966b686f6b5e87b86a65f82810ef296a5ae205caf3955c4f0507e25bdaf2639",
        12: "9c818939c9d98b299c2e06283d64653796bbe8f12ff180afdf9450ca7e25fd10",
        77: "81c9e36b2ac5738b924d1a7506bbb13a3233736399531ac2daf869c2e6f628f0",
    },
    "legacy-client": {
        1: "6809e3a3e1ee6623056a8f2ca3014fcdc3a60f30d5c4c119bdd21614b744bea2",
        12: "a10a9d64ddf9cf0a6430cd9d26ca166890f6ccee0a70dea9339b204865a217fc",
        77: "a23a7367b8e305c081a064b28933b29465c5eba888b3bf74f8001dd37aabf65c",
    },
    "masquerade-mitigated": {
        1: "2038ddcc4024ff031d05166bf3565fabe4e8dbc6634a279484a5136a7d039856",
        12: "85c74618431ad94a090c039e55be73ed2916c431eee892b421d0cee204986188",
        77: "f2c0d880d1cb568f103471fde464f013dfe47e77c7bdd0b5f3e3e2aff2d74a73",
    },
    "masquerade-unmitigated": {
        1: "85d554bb5f3bd1ed2a652405493a1b751c001edadf8b0011cb40229caaa581e6",
        12: "328cc38652c74d496a5dde4ae95c9e8b674f5ad87edf6fbcdce4cdde1ebb159b",
        77: "37f9dc1305b05cf7d920cf936eeb26f78941a0285df06b2169e62f0cd01c99c8",
    },
    "replay-attack": {
        1: "f00e8b8ef6a361b880ec08bd0e6a6b5f31a80079442f45a5d147a94c7fe5c224",
        12: "06d683443b8c144306107585b580ea9733545efe2aabd5a450e69c4035a955c6",
        77: "cb5017825296f26621832fcadee5ad4487190cf7fb066a7ae79e50bc8869f46c",
    },
}

# A campus of 4 APs on distinct SSIDs and 40 clients over 30000 ticks with two
# scripted resets, run at seed 7: mostly beacons resent to Established clients.
CAMPUS_SHA256 = "28b0a7e6e99a35e36e56fd5af6dd6f8be0705b49bacce4ac144d5b6c9e164895"

SUITE_SHA256 = {
    1: "916a4a5a7a70028a9c477081d270508e0e6336c98ee246d087b5214c5648a158",
    12: "65f4110c3c9f4335d730dff80b001ba26a54e54f9d60a76232bcfd83767b6086",
}

FRAMES_SHA256 = {
    ("--group", "19"): "4e8e3f74e5695601e986aa6557e390f23e67e9dd31898309661c4012429cff1b",
    ("--group", "19", "--strict"): (
        "73008420316113ee4bcf3737944799182c4c6cafcdcd84357a7192867cb66379"
    ),
    ("--group", "19", "--m", "2"): (
        "0d20811301ad8ea99a87ebc503615709dfe0034400c30d17f61e336eeab91070"
    ),
    ("--group", "19", "--m", "2", "--strict"): (
        "3e51bf9b547fdb8f38340327663e8a88f2449572d8ccd110ed8cbce3b765c755"
    ),
    ("--group", "19", "--m", "4"): (
        "92ed334f9525512fe4cc4fea6ec36956a5b05483601eec709ba839923898c7c4"
    ),
    ("--group", "19", "--m", "4", "--strict"): (
        "8f81414e3f8e69d60da031cbc2d7458b7d37076f4830405459d396f1889efcba"
    ),
    ("--group", "20"): "9f3057807177343b76db50809eb37afc1930661918a6984af9dd7188a6984b6e",
    ("--group", "20", "--strict"): (
        "a8456033828ef267816c3a120763e72bdb7f40a1f0b66d0b341e86dd634292dc"
    ),
    ("--group", "20", "--m", "2"): (
        "3336ad5658dd219086e33084d4ecc5c2e04edffccfc17bcc068025d84014115b"
    ),
    ("--group", "20", "--m", "2", "--strict"): (
        "a01870300f2608bc343b032105f4cf9090c2784e0b580d25fb740411ea057d43"
    ),
    ("--group", "20", "--m", "4"): (
        "fb55ba6dc5cb38a1021cc3db5580f3bc0ff0f9da5c3f1eda032eede44878de12"
    ),
    ("--group", "20", "--m", "4", "--strict"): (
        "948c696ce76a70c1c066778d549e8d238ad8373b4d2080519389b6094ac3cc42"
    ),
    ("--group", "21"): "9a930877484c172b28896b69ef530d3fc34679da43bc72c83cae14e985caca6f",
    ("--group", "21", "--strict"): (
        "4fcc58bc40409b633fc0faf551bb627af9c654d8a46def791d521867cb37a0d3"
    ),
    ("--group", "21", "--m", "2"): (
        "334a3cb90c9b18ea8b55af01e5aa78375c83aecbb7a8eb0f9c7bbe52a565c74f"
    ),
    ("--group", "21", "--m", "2", "--strict"): (
        "f72719e7b62c6b2d3aae60faaf9c467cb26bec85df8dd89e636211a4e82e3e93"
    ),
    ("--group", "21", "--m", "4"): (
        "5eb08485d6aa30667adef8315e60a856ac3b09fb4e94c9a75e65bbffa27ccbf8"
    ),
    ("--group", "21", "--m", "4", "--strict"): (
        "572a7e4f25677170dca53b10f7fc774c07593ab06b98b16a8391bfa68e3cf987"
    ),
    ("--group", "26"): "6d18daad8ab159141bbd16bbd43a1a46c2dcf812beb53a6798acb4c52672eacf",
    ("--group", "26", "--strict"): (
        "c4090252bf33d1520c9cfe91e03421307eaf9d08feead7b444be71d21073af0a"
    ),
    ("--group", "26", "--m", "2"): (
        "fa57f07ab4806023cd88998e5cb6a61701fab5282eb3309f1d20b6a01d0e80d6"
    ),
    ("--group", "26", "--m", "2", "--strict"): (
        "77cf92fd4745555804895a730488ba8c3aad1d248ff3262cf65c73aeaad24ef8"
    ),
    ("--group", "26", "--m", "4"): (
        "5bc960007d2bccdee9f49bf8b0792016f8c52f9d3892e0b61405a46cb906f860"
    ),
    ("--group", "26", "--m", "4", "--strict"): (
        "cb0aaf734a9122476d4b4cce728c33e098783f73c3a3a29a8e0ac542395949ce"
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_builtin_is_pinned():
    assert sorted(TRANSCRIPT_SHA256) == sorted(BUILTIN_NAMES)


@pytest.mark.parametrize(
    "name,seed", [(n, s) for n in sorted(TRANSCRIPT_SHA256) for s in (1, 12, 77)]
)
def test_transcript_digest(name, seed):
    transcript = run_scenario(builtin(name), seed)
    assert sha256(transcript.to_json()) == TRANSCRIPT_SHA256[name][seed]


def campus_script() -> ScenarioScript:
    stations = [
        StationConfig(
            f"ap{k}", "ap", f"02:00:00:00:00:{k + 1:02x}", ssid=f"campus-{k}",
            beacon_offset=(37 * k + 11) % 100,
        )
        for k in range(4)
    ] + [
        StationConfig(f"client{i}", "client", f"02:00:00:00:01:{i:02x}", ssid=f"campus-{i % 4}")
        for i in range(40)
    ]
    resets = [ScheduleAction(9000, "client7"), ScheduleAction(16500, "client23")]
    return ScenarioScript("campus-golden", stations, schedule=resets, max_ticks=30000)


def test_campus_digest():
    transcript = run_scenario(campus_script(), 7)
    assert sha256(transcript.to_json()) == CAMPUS_SHA256


@pytest.mark.parametrize("seed", sorted(SUITE_SHA256))
def test_attack_suite_digest(seed):
    assert sha256(run_attack_suite(seed).to_json()) == SUITE_SHA256[seed]


@pytest.mark.parametrize("argv", sorted(FRAMES_SHA256))
def test_frames_output_digest(argv, capsys):
    assert main(["frames", *argv]) == 0
    assert sha256(capsys.readouterr().out) == FRAMES_SHA256[argv]
