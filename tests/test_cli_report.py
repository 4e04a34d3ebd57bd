"""Runner configs, manifests, plots, and the command line surface."""

import base64
import json
import re
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oplab.cli
import oplab.homotopy
import oplab.runner
from oplab.cli import main
from oplab.errors import ConfigError, PreconditionError, StageError
from oplab.homotopy import CertifyConfig, certify_path, straight_line
from oplab.locality import DecayProfile
from oplab.operators import Operator, laughlin_operator
from oplab.opmat import _header_for, load_operator, save_operator
from oplab.reports import bar_chart_svg, emit_plots, line_plot_svg, write_csv
from oplab.runner import (
    MAX_WINDOW_DIMENSION,
    ExperimentConfig,
    _window_too_large,
    load_config,
    run,
    seeded_local_unitary,
)
from oplab.windows import TruncationWindow


def write_config(tmp_path, **overrides):
    base = {
        "experiment": "index-sweep",
        "representation": "Z",
        "radius": 12,
        "seed": 7,
        "out_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def svg_data_tokens(svg_text):
    """Float/int literals quoted inside <text> elements."""
    tokens = []
    for content in re.findall(r"<text[^>]*>([^<]*)</text>", svg_text):
        tokens.extend(re.findall(r"[-+]?\d+\.?\d*(?:e[-+]?\d+)?", content))
    return tokens


# ---------------------------------------------------------------------------
# reports


def test_write_csv_mixes_strings_and_tuples(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a,b", (1, 2.5)])
    assert path.read_text() == "a,b\n1,2.5\n"


def test_line_plot_quotes_extremes():
    svg = line_plot_svg("demo", [0.0, 0.5, 1.0], [0.25, 0.75, 0.5], "t", "v")
    assert "0.25" in svg and "0.75" in svg
    with pytest.raises(PreconditionError):
        line_plot_svg("demo", [0.0], [1.0, 2.0], "t", "v")


def test_bar_chart_labels_every_value():
    svg = bar_chart_svg("demo", [-1, 0, 1], [3, 0, -2])
    for token in ("-1", "0", "1", "3", "-2"):
        assert token in svg


def test_certificate_plots_cross_check_csv(tmp_path):
    window = TruncationWindow.plane(3)
    path = straight_line(laughlin_operator(window), Operator.identity(window))
    report = certify_path(path, CertifyConfig(samples=9))
    files = emit_plots(report, tmp_path)
    names = sorted(f.name for f in files)
    assert names == [
        "certificate.csv",
        "certificate_locality_defect.svg",
        "certificate_min_singular_value.svg",
        "certificate_segments.csv",
        "certificate_unitarity_defect.svg",
    ]
    csv_text = (tmp_path / "certificate.csv").read_text()
    assert len(csv_text.strip().splitlines()) == 10
    for svg in tmp_path.glob("*.svg"):
        for token in svg_data_tokens(svg.read_text()):
            assert token in csv_text, f"{svg.name}: {token} missing from CSV"


def test_emit_plots_deterministic(tmp_path):
    window = TruncationWindow.plane(2)
    path = straight_line(laughlin_operator(window), Operator.identity(window))
    report = certify_path(path, CertifyConfig(samples=7))
    first = {f.name: f.read_bytes() for f in emit_plots(report, tmp_path / "a")}
    second = {f.name: f.read_bytes() for f in emit_plots(report, tmp_path / "b")}
    assert first == second


def test_decay_profile_files(tmp_path):
    profile = DecayProfile((0, 2, 4), (1.0, 0.5, 0.0))
    files = emit_plots(profile, tmp_path)
    assert sorted(f.name for f in files) == ["decay.csv", "decay.svg"]


def test_empty_decay_profile_emits_header_only(tmp_path):
    files = emit_plots(DecayProfile((), ()), tmp_path)
    assert [f.name for f in files] == ["decay.csv"]
    assert (tmp_path / "decay.csv").read_text() == "radius,value\n"
    assert not (tmp_path / "decay.svg").exists()


def test_sweep_plots(tmp_path):
    files = emit_plots([(-1, -1), (0, 0), (2, 2)], tmp_path)
    assert sorted(f.name for f in files) == ["index_sweep.csv", "index_sweep.svg"]
    assert "k,index" in (tmp_path / "index_sweep.csv").read_text()


def test_emit_plots_rejects_junk(tmp_path):
    with pytest.raises(PreconditionError):
        emit_plots(3.14, tmp_path)


# ---------------------------------------------------------------------------
# config validation


def test_config_missing_fields():
    with pytest.raises(ConfigError, match="missing required fields"):
        ExperimentConfig.from_json_dict({})
    try:
        ExperimentConfig.from_json_dict({"radius": 4})
    except ConfigError as exc:
        for name in ("experiment", "representation", "seed", "out_dir"):
            assert name in str(exc)


def test_config_unknown_field():
    # tol_idem, tol_inv and compact_floor were once accepted but never read
    for name in ("radius_typo", "tol_idem", "tol_inv", "compact_floor"):
        with pytest.raises(ConfigError, match=f"unknown fields: {name}"):
            ExperimentConfig.from_json_dict(
                {
                    "experiment": "index-sweep",
                    "representation": "Z",
                    "radius": 8,
                    "seed": 1,
                    "out_dir": "x",
                    name: 9,
                }
            )


def test_config_value_checks():
    with pytest.raises(ConfigError, match="radius"):
        ExperimentConfig("index-sweep", "Z", 0, 1, "x")
    with pytest.raises(ConfigError, match="samples"):
        ExperimentConfig("theorem2", "Z", 8, 1, "x", samples=1)
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig("mystery", "Z", 8, 1, "x")
    with pytest.raises(ConfigError, match="runs on Z2"):
        ExperimentConfig("theorem1", "Z", 8, 1, "x")
    with pytest.raises(ConfigError, match="'radius': experiment 'theorem2' rotates sites 3 and 4"):
        ExperimentConfig("theorem2", "Z", 3, 1, "x")
    with pytest.raises(ConfigError, match="'eps': must be a positive number"):
        ExperimentConfig("theorem1", "Z2", 8, 1, "x", eps="abc")
    with pytest.raises(ConfigError, match="'k_min': must be an integer"):
        ExperimentConfig("index-sweep", "Z", 8, 1, "x", k_min="a")
    with pytest.raises(ConfigError, match="'seed': must be an integer >= 0"):
        ExperimentConfig("theorem2", "Z", 8, -1, "x")
    with pytest.raises(ConfigError, match="'radius': must be an integer"):
        ExperimentConfig("theorem2", "Z", True, 1, "x")
    with pytest.raises(ConfigError, match="'out_dir': must be a string"):
        ExperimentConfig("theorem2", "Z", 8, 1, 5)
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig(["theorem1"], "Z2", 8, 1, "x")


def test_config_caps_the_window_dimension(tmp_path, capsys):
    # the largest windows the lab runs still load: a radius-40 plane
    # (5025 sites) and the index sweep's radius-256 line
    for experiment, representation, radius in (("theorem1", "Z2", 40), ("index-sweep", "Z", 256)):
        path = write_config(
            tmp_path, experiment=experiment, representation=representation, radius=radius
        )
        assert load_config(path).radius == radius
    # a huge radius is refused from its digits alone, long before a
    # window could be built, and the command exits with code 2
    for experiment, representation in (("theorem1", "Z2"), ("index-sweep", "Z")):
        for radius in (10**9, int("7" * 4000)):
            path = write_config(
                tmp_path, experiment=experiment, representation=representation, radius=radius
            )
            start = time.perf_counter()
            with pytest.raises(ConfigError, match=f"more than {MAX_WINDOW_DIMENSION} sites"):
                load_config(path)
            assert main(["run", "--config", str(path)]) == 2
            assert time.perf_counter() - start < 1.0
            assert f"{MAX_WINDOW_DIMENSION} sites" in capsys.readouterr().err


def test_window_cap_counts_the_sites_exactly(monkeypatch):
    for representation, radius in (("Z2", 1), ("Z2", 2), ("Z2", 5), ("Z2", 12), ("Z", 7)):
        d = TruncationWindow(representation, radius).dimension
        monkeypatch.setattr(oplab.runner, "MAX_WINDOW_DIMENSION", d)
        assert not _window_too_large(representation, radius)
        monkeypatch.setattr(oplab.runner, "MAX_WINDOW_DIMENSION", d - 1)
        assert _window_too_large(representation, radius)


def test_config_arc_pairs_parse_and_snapshot():
    raw = {
        "experiment": "locality-scan",
        "representation": "Z2",
        "radius": 6,
        "seed": 3,
        "out_dir": "x",
        "arc_pairs": [[[[1, -1], [1, 1]], [[-1, 1], [-1, -1]]]],
    }
    config = ExperimentConfig.from_json_dict(raw)
    assert len(config.arc_pairs) == 1
    snap = config.snapshot()
    assert snap["arc_pairs"] == raw["arc_pairs"]
    again = ExperimentConfig.from_json_dict(snap | {"out_dir": "y"})
    assert again.arc_pairs == config.arc_pairs
    with pytest.raises(ConfigError, match="arc_pairs"):
        ExperimentConfig.from_json_dict(raw | {"arc_pairs": [[1, 2]]})


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


_GOOD_CONFIG = json.dumps(
    {
        "experiment": "theorem1",
        "representation": "Z2",
        "radius": 4,
        "seed": 3,
        "out_dir": "out",
        "samples": 8,
        "eps": 0.5,
        "arc_pairs": [[[[1, -1], [1, 1]], [[-1, 1], [-1, -1]]]],
    }
).encode()
_CONFIG_TOKENS = [
    b"true",
    b"false",
    b"null",
    b"1e400",
    b"NaN",
    b"-0",
    b"10" * 20,
    b"9" * 4400,
    b"[" * 5000,
    b"\xff",
    b"\xc3",
    b"\xef\xbb\xbf",
    b'"\\ud800"',
    b'"\x00"',
    b"[[1,2],[3,4]]",
    b"{}",
    b",",
    b":",
    b"]",
    b"}",
]


@st.composite
def mutated_configs(draw):
    """The bytes of a good config with a few bytes replaced, deleted or
    inserted, or with JSON tokens (deep nesting, long integers, invalid
    UTF-8) spliced in."""
    data = bytearray(_GOOD_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["byte", "delete", "insert", "token", "token"]))
        if action == "byte" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif action == "delete":
            del data[at : at + draw(st.integers(1, 12))]
        elif action == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=6))
        else:
            span = draw(st.integers(0, 8))
            data[at : at + span] = draw(st.sampled_from(_CONFIG_TOKENS))
    return bytes(data)


@settings(max_examples=200)
@given(mutated_configs())
@example(_GOOD_CONFIG)
@example(_GOOD_CONFIG[:-1] + b"\xff}")
@example(b'{"experiment": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")
@example(_GOOD_CONFIG[:-1] + b', "seed": ' + b"9" * 5000 + b"}")
@example(_GOOD_CONFIG.replace(b"[[1, -1]", b"[[true, 0]"))
def test_config_loader_accepts_or_raises_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_bytes(data)
    try:
        config = load_config(path)
    except ConfigError:
        assert main(["run", "--config", str(path)]) == 2
    else:
        assert isinstance(config, ExperimentConfig)


@pytest.mark.parametrize(
    "data, message",
    [
        (_GOOD_CONFIG[:-1] + b"\xff}", "utf-8"),
        (b"[" * 100_000 + b"]" * 100_000, "recursion"),
        (_GOOD_CONFIG[:-1] + b', "seed": ' + b"9" * 5000 + b"}", "digits"),
        (_GOOD_CONFIG.replace(b"[[1, -1]", b"[[true, 0]"), "arc_pairs"),
        (_GOOD_CONFIG.replace(b"[1, 1]]", b"[1, false]]"), "arc_pairs"),
    ],
)
def test_config_loader_rejects_what_used_to_escape(tmp_path, capsys, data, message):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# runner experiments


def test_index_sweep_run_and_determinism(tmp_path):
    config_path = write_config(tmp_path)
    manifest = run(config_path)
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["all_match"] is True
    assert [row[0] for row in report["rows"]] == list(range(-3, 4))
    listed = {f["path"] for f in manifest.files}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == on_disk
    blob = json.loads((out / "manifest.json").read_text())
    assert blob["format"] == "runmanifest v1"
    assert blob["config"]["seed"] == 7

    again = run(config_path, out_override=str(tmp_path / "out2"))
    assert again.file_hashes() == manifest.file_hashes()


def test_theorem2_run(tmp_path):
    config_path = write_config(
        tmp_path, experiment="theorem2", radius=12, samples=6
    )
    run(config_path)
    out = tmp_path / "out"
    blob = json.loads((out / "theorem2.json").read_text())
    assert blob["constant"] is True
    assert blob["index_trace"] == [-1] * 6
    assert blob["max_idempotency_defect"] <= 1e-8
    assert (out / "certificate_idempotency_defect.svg").exists()


def test_theorem1_run(tmp_path):
    config_path = write_config(
        tmp_path, experiment="theorem1", representation="Z2", radius=5, samples=8
    )
    manifest = run(config_path)
    out = tmp_path / "out"
    blob = json.loads((out / "pipeline.json").read_text())
    kinds = [s["kind"] for s in blob["segments"]]
    assert kinds == [
        "straight_line", "log", "straight_line", "block_peel", "polar", "block_unitary",
    ]
    start = load_operator(out / "start.opmat")
    end = load_operator(out / "end.opmat")
    assert np.array_equal(end.entries, np.eye(end.window.dimension))
    assert start.window.dimension == end.window.dimension
    u = seeded_local_unitary(start.window, 7)
    assert np.array_equal(start.entries.view(np.uint8), u.entries.view(np.uint8))
    for name, op in (("start.opmat", start), ("end.opmat", end)):
        # the nonzero list: at most 64 bytes of text per nonzero past the header
        header = (out / name).read_text(encoding="ascii").partition("\n")[0]
        size = (out / name).stat().st_size
        assert size <= len(header) + 2 + 64 * np.count_nonzero(op.entries)
    assert blob["certificate"]["endpoint_errors"][0] <= 1e-8
    assert "start.opmat" in {f["path"] for f in manifest.files}


def test_surgery_run(tmp_path):
    config_path = write_config(
        tmp_path, experiment="surgery", representation="Z2", radius=8
    )
    run(config_path)
    blob = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert blob["plan"]["format"] == "centersplan v1"
    assert blob["deformation_norm"] <= 0.5
    assert blob["corrective_defect"] <= 1e-10
    assert blob["center_block_residual"] <= 1e-10
    assert (tmp_path / "out" / "surgery.csv").exists()


def test_locality_scan_run(tmp_path):
    config_path = write_config(
        tmp_path, experiment="locality-scan", representation="Z2", radius=8
    )
    run(config_path)
    out = tmp_path / "out"
    blob = json.loads((out / "locality.json").read_text())
    assert len(blob["values"]) == len(blob["radii"]) == 5
    # norms over shrinking complements cannot grow
    values = blob["values"]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert (out / "decay.csv").exists() and (out / "decay.svg").exists()


def test_out_dir_env_override(tmp_path, monkeypatch):
    config_path = write_config(tmp_path)
    monkeypatch.setenv("OPLAB_OUT", str(tmp_path / "enved"))
    run(config_path)
    assert (tmp_path / "enved" / "manifest.json").exists()
    assert not (tmp_path / "out").exists()


def test_seeded_local_unitary_properties():
    window = TruncationWindow.plane(6)
    u = seeded_local_unitary(window, 11)
    assert u.unitarity_defect() <= 1e-12
    again = seeded_local_unitary(window, 11)
    assert np.array_equal(u.entries, again.entries)
    other = seeded_local_unitary(window, 12)
    assert not np.array_equal(u.entries, other.entries)
    # strictly finite range: nothing couples sites further than one step
    for i, a in enumerate(window.sites):
        for j, b in enumerate(window.sites):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) > 1:
                assert u.entries[i, j] == 0.0


# ---------------------------------------------------------------------------
# command line


def test_cli_index_verb(capsys):
    assert main(["index", "--radius", "16", "--k", "-1"]) == 0
    assert "index = -1 (method kernel_count)" in capsys.readouterr().out
    assert main(["index", "--radius", "16", "--k", "2", "--method", "kernel_count"]) == 0
    assert "index = 2" in capsys.readouterr().out
    # the choices are the library's routes, so a deleted one is a usage error
    assert main(["index", "--method", "partial_permutation"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_index_verb_at_the_largest_line_window(capsys):
    assert main(["index", "--radius", "4095", "--k", "3"]) == 0
    assert "index = 3" in capsys.readouterr().out


def test_cli_run_verb(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    out_text = capsys.readouterr().out
    assert "sha256" in out_text
    assert (tmp_path / "out" / "index_sweep.csv").exists()


def test_cli_run_seed_and_out_flags(tmp_path):
    config_path = write_config(tmp_path)
    alt = tmp_path / "alt"
    assert main(["run", "--config", str(config_path), "--seed", "9", "--out", str(alt)]) == 0
    blob = json.loads((alt / "manifest.json").read_text())
    assert blob["config"]["seed"] == 9


def test_cli_validation_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "index-sweep"}))
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    for experiment, representation, override in (
        ("theorem1", "Z2", {"eps": "abc"}),
        ("index-sweep", "Z", {"k_min": "a"}),
        ("theorem1", "Z2", {"seed": -1}),
        ("theorem2", "Z", {"seed": -1}),
        ("surgery", "Z2", {"seed": -1}),
        ("locality-scan", "Z2", {"seed": -1}),
        ("theorem2", "Z", {"radius": 1}),
        ("theorem2", "Z", {"radius": 3}),
    ):
        path = write_config(
            tmp_path, experiment=experiment, representation=representation, **override
        )
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_cli_stage_failure_exit_code(tmp_path, capsys, monkeypatch):
    import oplab.cli as cli_module

    def explode(config, out_override=None):
        raise StageError("polar", "forced failure")

    monkeypatch.setattr(cli_module, "run", explode)
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 3
    assert "stage failure" in capsys.readouterr().err


def test_cli_certify_verb(tmp_path, capsys, monkeypatch):
    config_path = write_config(
        tmp_path, experiment="theorem2", radius=12, samples=6
    )
    assert main(["certify", "--config", str(config_path)]) == 0
    assert "theorem2 complete" in capsys.readouterr().out
    # OPLAB_OUT alone redirects the run; the config's out_dir stays unused
    env_case = tmp_path / "env"
    env_case.mkdir()
    config_path = write_config(
        env_case, experiment="theorem2", radius=12, samples=6
    )
    monkeypatch.setenv("OPLAB_OUT", str(tmp_path / "enved"))
    assert main(["certify", "--config", str(config_path)]) == 0
    assert "theorem2 complete" in capsys.readouterr().out
    assert (tmp_path / "enved" / "manifest.json").exists()
    assert not (env_case / "out").exists()
    monkeypatch.delenv("OPLAB_OUT")
    sweep = write_config(tmp_path)
    assert main(["certify", "--config", str(sweep)]) == 2


def test_cli_certify_linalg_failure_is_a_stage_failure(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    theorem1 = write_config(tmp_path, experiment="theorem1", representation="Z2", radius=6)
    for target, name, stage in (
        (oplab.homotopy, "certify_path", "certify"),
        (scipy.linalg, "schur", "corrective-unitary"),
        (np.linalg, "svd", "polar"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fail)
            assert main(["certify", "--config", str(theorem1)]) == 3
        err = capsys.readouterr().err
        assert f"stage '{stage}'" in err and "LinAlgError" in err
    # outside the pipeline, the runner's stage names the failure
    theorem2 = write_config(tmp_path, experiment="theorem2", samples=4)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(["certify", "--config", str(theorem2)]) == 3
    assert "stage 'build-pair'" in capsys.readouterr().err


def test_cli_probe_verb(capsys):
    assert main(["probe", "--radius", "10", "--mode", "half-line"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["format"] == "nontrivialityreport v2"
    assert blob["unreached"] == []
    assert main(["probe", "--radius", "10", "--mode", "cone"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["trivial_suspect"]


def test_cli_index_and_probe_check_the_radius(capsys, monkeypatch):
    # a radius below 1 is a configuration problem, as it is in a config
    for verb in ("index", "probe"):
        for radius in ("0", "-3"):
            assert main([verb, "--radius", radius]) == 2
            assert "must be an integer >= 1" in capsys.readouterr().err

    # an over-cap radius is refused before any window is built
    def no_window(*args, **kwargs):
        raise AssertionError("a window was built")

    monkeypatch.setattr(oplab.cli, "TruncationWindow", no_window)
    for verb, radius in (("index", 4096), ("index", 10**9), ("probe", 52), ("probe", 10**9)):
        assert main([verb, "--radius", str(radius)]) == 2
        assert f"more than {MAX_WINDOW_DIMENSION} sites" in capsys.readouterr().err


def _v1_text(op, name):
    """``op`` in the opmat v1 form, the whole matrix, which loads still read."""
    head = {**_header_for(op, name), "format": "opmat v1"}
    payload = base64.b64encode(np.ascontiguousarray(op.entries, dtype="<c16").tobytes()).decode("ascii")
    return json.dumps(head, sort_keys=True) + "\n" + payload + "\n"


def test_cli_convert_roundtrip(tmp_path, capsys):
    window = TruncationWindow.line(4)
    rng = np.random.default_rng(5)
    op = Operator(window, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    first = tmp_path / "op.opmat"
    save_operator(op, first, name="demo")
    old = tmp_path / "old.opmat"
    old.write_text(_v1_text(op, "demo"), encoding="ascii")
    for src in (first, old):  # v2 and v1 both copy through verbatim
        mid = tmp_path / "op.json"
        back = tmp_path / "op2.opmat"
        assert main(["convert", "--in", str(src), "--out", str(mid)]) == 0
        assert main(["convert", "--in", str(mid), "--out", str(back)]) == 0
        assert back.read_bytes() == src.read_bytes()
        assert np.array_equal(load_operator(back).entries, op.entries)
    capsys.readouterr()
    assert main(["convert", "--in", str(first), "--out", str(tmp_path / "x.txt")]) == 2


def _header_with(path, **fields):
    head, body = path.read_text(encoding="ascii").splitlines()
    return json.dumps({**json.loads(head), **fields}) + "\n" + body + "\n"


def _json_with_payload(path, entries_b64):
    head = json.loads(path.read_text(encoding="ascii").splitlines()[0])
    return json.dumps({"format": "opmat-json v1", "header": head, "entries_b64": entries_b64})


@pytest.mark.parametrize(
    "name, content",
    [
        ("list-radius.opmat", lambda good: _header_with(good, radius=[1])),
        ("null-radius.opmat", lambda good: _header_with(good, radius=None)),
        ("negative-radius.opmat", lambda good: _header_with(good, radius="-1")),
        ("bool-dimension.opmat", lambda good: _header_with(good, dimension=True)),
        ("non-ascii.opmat", lambda good: "é" + good.read_text(encoding="ascii")),
        ("list.json", lambda good: "[1, 2]"),
        ("no-header.json", lambda good: json.dumps({"format": "opmat-json v1"})),
        ("not-json.json", lambda good: "{"),
        ("deeply-nested.json", lambda good: "[" * 100_000 + "]" * 100_000),
        ("non-ascii.json", lambda good: '{"format": "opmat-json v1", "header": {}, "entries_b64": "é"}'),
        ("bad-payload.json", lambda good: _json_with_payload(good, "AAAA")),
    ],
)
def test_cli_convert_rejects_bad_input_with_exit_2(tmp_path, capsys, name, content):
    good = tmp_path / "good.opmat"
    save_operator(Operator.identity(TruncationWindow.plane(1)), good)
    bad = tmp_path / name
    bad.write_bytes(content(good).encode("utf-8"))
    out = tmp_path / ("out.json" if name.endswith(".opmat") else "out.opmat")
    assert main(["convert", "--in", str(bad), "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_verb_exits_2():
    assert main(["frobnicate"]) == 2
