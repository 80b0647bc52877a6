import collections
import json

import numpy as np
import pytest

from kacsim import analysis, assignment, cli, geometry, kernels, system


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


DECAY_CFG = """
# small coupled decay run
kind = decay
n = 32
d = 3
kernel = uniform
horizon = 2.0
sample_dt = 0.5
replicas = 3
delta = 0.5
seed = 5
constant_samples = 20
"""

INEQUALITY_CFG = """
kind = inequalities
n = 16
d = 3
n_discrete = 50
n_config = 10
delta = 0.5
seed = 3
"""

# each study's config as test_support_studies_run runs it, and the CSV it
# writes
STUDY_BASE = "d = 3\nseed = 2\nsamples = 200\n"
STUDIES = {
    "wishart": ("wishart.csv", "n_values = 16,32\np_moment = 2.0\n"),
    "counterexample1": ("heavy_tail.csv", "m_values = 10,100\n"),
    "counterexample2": ("radial_band.csv", "r_values = 2,4\nsamples = 2000\n"),
    "equilibrium-check": ("moments.csv", "n = 128\nsamples = 400\n"),
}


def override(text, extra):
    """The config ``text`` with the keys set in ``extra`` set there instead
    (a key may appear only once in a config file)."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.split("=")[0].strip() not in keys) + extra


def study_config(kind):
    return override(f"kind = {kind}\n" + STUDY_BASE, STUDIES[kind][1])


# a valid config of each kind
KIND_CONFIGS = {"decay": DECAY_CFG, "inequalities": INEQUALITY_CFG,
                **{kind: study_config(kind) for kind in STUDIES}}


def test_load_config_parses_and_overrides(tmp_path):
    path = write_config(tmp_path, DECAY_CFG)
    cfg = cli.load_config(path)
    assert cfg.kind == "decay"
    assert cfg.n == 32
    assert cfg.horizon == 2.0
    cfg = cli.load_config(path, overrides={"seed": 9})
    assert cfg.seed == 9


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, DECAY_CFG + "banana = 1\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)


def test_load_config_rejects_a_repeated_key(tmp_path):
    path = write_config(tmp_path,
                        DECAY_CFG + "initial_law = identical\nn = 16\n")
    with pytest.raises(cli.ConfigError, match=r":14: key 'n' repeats line 4$"):
        cli.load_config(path)


def test_load_config_rejects_bad_value(tmp_path):
    path = write_config(tmp_path, override(DECAY_CFG, "n = many\n"))
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)
    path = write_config(tmp_path, DECAY_CFG + "oops\n", name="b.cfg")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)


def test_validate_config_range_checks(tmp_path):
    path = write_config(tmp_path, override(DECAY_CFG, "d = 2\n"))
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)
    # non-integrable kernel parameters are rejected up front
    path = write_config(tmp_path, override(
        DECAY_CFG, "kernel = power_law\nnu = 0.5\ntheta_min = 0.0\n"),
                        name="k.cfg")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)


def test_resolved_exponents_default_conjugacy(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, DECAY_CFG))
    delta, p = cfg.resolved_exponents()
    assert (delta, p) == (0.5, 2.0 / (1.0 - 0.5))
    q = cli.analysis.holder_constants(delta, p, cfg.d).q
    assert q == p / (p - 1.0)
    np.testing.assert_allclose(1.0 / p + 1.0 / q, 1.0)


@pytest.mark.parametrize("base, extra, message", [
    (INEQUALITY_CFG, "delta = 0.0\n", "need delta > 0, got 0.0"),
    (INEQUALITY_CFG, "p = 0.5\n", "need p > 1, got 0.5"),
    (INEQUALITY_CFG, "delta = 1.5\n", "delta >= 1 requires an explicit p"),
    (DECAY_CFG, "delta = 0.0\n", "need 0 < delta < 1, got 0.0"),
    (DECAY_CFG, "delta = 1.5\np = 3\n", "need 0 < delta < 1, got 1.5"),
    (DECAY_CFG, "p = 1.0\n", "need p > 1, got 1.0"),
], ids=["inequalities_delta_zero", "inequalities_p_below_1",
        "inequalities_delta_above_1_default_p", "decay_delta_zero",
        "decay_delta_above_1", "decay_p_1"])
def test_exponent_rules_name_their_parameter(tmp_path, capsys, base, extra,
                                             message):
    """The weak family's delta and p rules live in analysis; a config that
    breaks one exits 2 with the rule's message."""
    path = write_config(tmp_path, override(base, extra))
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_main_validate_prints_config(tmp_path, capsys):
    path = write_config(tmp_path, DECAY_CFG)
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["kind"] == "decay"
    assert parsed["n"] == 32


def test_main_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli.main(["validate", "--config", str(missing)]) == cli.EXIT_CONFIG
    bad = write_config(tmp_path, override(DECAY_CFG, "kind = sideways\n"))
    assert cli.main(["run", "--config", str(bad)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err


# decay's rules, then one bad value per kind-specific rule of the other
# kinds; the first eight and the empty band passed `kac validate` and then
# failed `kac run` with a traceback
@pytest.mark.parametrize("text", [
    pytest.param(override(DECAY_CFG, extra), id=name) for name, extra in [
        ("m4_init_above_range", "m4_init = 4.0\n"),
        # the decay constants need delta < 1
        ("delta_above_1", "delta = 1.5\np = 3\n"),
        ("n_above_pairing_limit", "n = 5000\n"),
        ("horizon_nan", "horizon = nan\n"),
        ("horizon_inf", "horizon = inf\n"),
        ("sample_dt_nan", "sample_dt = nan\n"),
        ("sample_dt_inf", "sample_dt = inf\n"),
        ("delta_nan", "delta = nan\n"),
        # the exponents need p > 1 (this one raised from analysis)
        ("p_not_above_1", "p = 0.5\n"),
        # q is the conjugate of p, not a key
        ("q_key", "q = 2\n"),
        ("replicas_zero", "replicas = 0\n"),
    ]
] + [
    pytest.param(override(INEQUALITY_CFG, "n_discrete = -1\n"),
                 id="negative_sweep"),
    pytest.param(override(INEQUALITY_CFG, "delta = 0.0\n"), id="delta_zero"),
    pytest.param(override(study_config("wishart"), "p_moment = 0.5\n"),
                 id="p_moment_below_1"),
    pytest.param(override(study_config("wishart"), "n_values = 4,32\n"),
                 id="wishart_n_too_small"),
    pytest.param(override(study_config("counterexample1"), "q_moment = 2.5\n"),
                 id="q_moment_above_2"),
    pytest.param(
        override(study_config("counterexample1"), "m_values = 10,1\n"),
        id="m_value_not_above_1"),
    pytest.param(override(study_config("counterexample2"), "band_eps = 0.0\n"),
                 id="band_eps_zero"),
    pytest.param(
        override(study_config("counterexample2"), "r_values = 2,-1\n"),
        id="r_value_negative"),
    pytest.param(
        override(study_config("counterexample2"), "r_values = 2,4,50\n"),
        id="empty_band"),
] + [pytest.param(override(study_config(kind), "samples = 1\n"),
                  id=f"{kind}_samples_1") for kind in STUDIES] + [
    # a repeated key used to keep its last value silently
    pytest.param(DECAY_CFG + "n = 16\n", id="repeated_key"),
] + [
    # the shape rules hold for every kind
    pytest.param(override(text, extra), id=f"{kind}_{name}")
    for kind, text in KIND_CONFIGS.items()
    for name, extra in (("n_1", "n = 1\n"), ("d_2", "d = 2\n"))
] + [
    pytest.param(override(DECAY_CFG, extra), id=name) for name, extra in [
        ("unknown_kernel", "kernel = sideways\n"),
        ("unknown_initial_law", "initial_law = hot\n"),
        ("constant_samples_1", "constant_samples = 1\n"),
        ("horizon_negative", "horizon = -1\n"),
        ("sample_dt_zero", "sample_dt = 0\n"),
    ]
])
def test_decay_config_rejected_before_running(tmp_path, capsys, text):
    """Both `kac validate` and `kac run` exit 2 on the config, and the run
    makes no output directory."""
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err.count("config error") == 2


@pytest.mark.parametrize("base, extra, owner", [
    (DECAY_CFG, "d = 2\n", lambda: geometry._check_dimension(2)),
    (DECAY_CFG, "n = 1\n", lambda: system._check_particles(1)),
    (DECAY_CFG, "constant_samples = 1\n",
     lambda: analysis._check_samples(1)),
    (study_config("wishart"), "samples = 1\n",
     lambda: analysis._check_samples(1)),
    (DECAY_CFG, "m4_init = 4.0\n", lambda: system._check_m4_target(3, 4.0)),
    (DECAY_CFG, "n = 5000\n", lambda: assignment._check_size(5000)),
    (DECAY_CFG, "horizon = -1\n",
     lambda: system._check_sample_grid(-1.0, 0.5)),
    (DECAY_CFG, "sample_dt = 0\n",
     lambda: system._check_sample_grid(2.0, 0.0)),
    (DECAY_CFG, "kernel = sideways\n",
     lambda: kernels.make_kernel("sideways")),
], ids=["dimension", "particles", "constant_samples", "samples", "m4_range",
        "pairing_size", "horizon", "sample_dt", "kernel_family"])
def test_owned_rules_speak_with_their_owners_message(tmp_path, capsys, base,
                                                     extra, owner):
    """Each rule validate_config asks of the code that enforces it in a run
    exits 2 with that code's own message, so `kac validate` and a run
    refuse a config alike."""
    with pytest.raises(ValueError) as raised:
        owner()
    path = write_config(tmp_path, override(base, extra))
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {raised.value}\n"


def test_unvalidated_config_fails_loudly():
    """A config that skipped validate_config cannot fall through to another
    kernel or another initial law: an unknown name raises."""
    with pytest.raises(kernels.KernelError):
        cli.build_kernel(cli.ExperimentConfig(kernel="sideways"))
    with pytest.raises(KeyError):
        cli._initial_copies(cli.ExperimentConfig(initial_law="hot"),
                            np.random.default_rng(0))


def test_decay_config_default_m4_init_fits_the_dimension(tmp_path):
    """A d = 5 decay config that leaves m4_init unset validates and runs
    (3.0 is out of reach for d >= 4), and report.json records the fourth
    moment the start was built with."""
    path = write_config(tmp_path,
                        override(DECAY_CFG, "d = 5\nreplicas = 1\n"))
    out = tmp_path / "out"
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    lo, hi = system.two_temperature_m4_range(5)
    assert report["config"]["m4_init"] == system.default_m4_init(5)
    assert lo < report["config"]["m4_init"] < hi
    assert cli.load_config(write_config(tmp_path, DECAY_CFG,
                                        name="d3.cfg")).m4_init == 3.0


@pytest.mark.parametrize("d", [3, 4, 5])
def test_direct_decay_config_default_m4_init_validates(d):
    """A config built in code takes the same d-dependent m4_init default
    as one read from a file, and 0 asks for that default explicitly."""
    cfg = cli.ExperimentConfig(kind="decay", d=d)
    cli.validate_config(cfg)
    assert cfg.m4_init == system.default_m4_init(d)
    assert cli.ExperimentConfig(d=d, m4_init=0.0).m4_init == cfg.m4_init
    assert cli.ExperimentConfig(d=d, m4_init=2.5).m4_init == 2.5


def test_decay_run_outputs_and_determinism(tmp_path, capsys):
    path = write_config(tmp_path, DECAY_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out_a)]) == cli.EXIT_OK
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out_b)]) == cli.EXIT_OK

    report = json.loads((out_a / "report.json").read_text())
    assert set(report) == {
        "kind", "stream", "config", "constants", "gamma", "replicas",
        "t_star", "envelope_d0", "initial", "final", "decay_factor",
        "engine_checks", "violations", "pass"}
    assert report["stream"] == system.STREAM_VERSION == 2
    assert set(report["constants"]) == {
        "delta", "p", "q", "k1", "k2", "k_main", "k_main_stderr",
        "c_delta_n", "j_factor", "j_stderr", "j_limit", "moment_blowup"}
    assert report["pass"] is True
    assert report["replicas"] == 3
    assert report["constants"]["k_main"] > 0

    for name in ("trajectory_0.csv", "trajectory_2.csv", "aggregate.csv"):
        assert (out_a / name).is_file()

    # identical config and seed must reproduce every output byte for byte
    for name in ("trajectory_0.csv", "trajectory_1.csv", "aggregate.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    rep_b = json.loads((out_b / "report.json").read_text())
    rep_b["config"]["out"] = report["config"]["out"]
    assert rep_b == {**report, "config": rep_b["config"]}


def test_decay_replica_replays_alone(tmp_path):
    """A replica is recomputed from (config, seed, replica) alone: replica
    2, run without replicas 0 and 1, writes kac run's trajectory_2.csv
    byte for byte."""
    path = write_config(tmp_path, DECAY_CFG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    cfg = cli.load_config(path)
    rows = cli._decay_replica(cfg, cli.build_kernel(cfg), 2)[-1]
    cli._write_csv(tmp_path / "replay.csv", cli.TRAJECTORY_HEADER, rows)
    assert ((tmp_path / "replay.csv").read_bytes()
            == (out / "trajectory_2.csv").read_bytes())


def test_decay_engine_checks_keep_their_types(tmp_path):
    """report.json's engine_checks hold the per-replica checks' maxima with
    the checks' own types: event counts as ints, every maximum as a float,
    also when it reads 0 on every replica (no event increased a pair
    distance)."""
    path = write_config(tmp_path, DECAY_CFG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    checks = json.loads((out / "report.json").read_text())["engine_checks"]
    counts = {"n_events", "antipodal_events"}
    maxima = {"max_residual", "max_delta_pair", "max_conservation_error",
              "max_delta_pair_antipodal"}
    assert set(checks) == counts | maxima
    assert checks["max_delta_pair"] == 0.0
    assert all(type(checks[k]) is int for k in counts)
    assert all(type(checks[k]) is float for k in maxima)


def test_decay_trajectory_columns_monotone(tmp_path):
    path = write_config(tmp_path, DECAY_CFG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    header, *rows = [ln.split(",") for ln in
                     (out / "trajectory_0.csv").read_text().strip().split("\n")]
    msd = [float(r[header.index("mean_sq_distance")]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(msd, msd[1:]))
    subs = {r[header.index("substream")] for r in rows}
    assert len(subs) == 1


def test_decay_identical_initial_law(tmp_path):
    cfgtext = override(DECAY_CFG, "initial_law = identical\nreplicas = 2\n")
    path = write_config(tmp_path, cfgtext)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    header, *rows = [ln.split(",") for ln in
                     (out / "trajectory_0.csv").read_text().strip().split("\n")]
    msd = [float(r[header.index("mean_sq_distance")]) for r in rows]
    assert max(msd) == 0.0


def _matrices(x):
    """Configurations (or second-moment matrices) in ``x``: the leading
    dimension of a stack, else 1."""
    x = np.asarray(x)
    return int(np.prod(x.shape[:-2]))


def test_decay_sample_builds_one_pair_pass(tmp_path, monkeypatch):
    """One fused pair pass per decay sample and per k_main sample, also for
    a negatively correlated state, whose weak report fails and whose
    creation is read from the same pass.  A stacked call counts its
    configurations, and each replica makes exactly one: a stack of its
    sample count."""
    calls = []
    build = cli.analysis._engine.pair_sums

    def counting(u, v, *args):
        calls.append((np.shape(u)[:-2], v is None))
        return build(u, v, *args)

    monkeypatch.setattr(cli.analysis._engine, "pair_sums", counting)
    path = write_config(tmp_path, DECAY_CFG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    per_replica = [len((out / f"trajectory_{r}.csv").read_text().split()) - 1
                   for r in range(3)]
    assert per_replica == [5] * 3
    constant_samples = cli.load_config(path).constant_samples
    assert [shape for shape, single in calls if not single] == [(5,)] * 3
    assert sum(int(np.prod(shape)) for shape, single in calls
               if single) == constant_samples

    calls.clear()
    u = cli.sample_equilibrium(12, 3, np.random.default_rng(8))
    notes = []
    stacks = np.stack([u]), np.stack([-u])
    row = {name: read(*stacks) for name, read in
           cli._decay_observables(0.5, 4.0, notes).items()}
    assert calls == [((1,), False)]
    assert len(notes) == 1 and row["weak_slack"][0] == -np.inf


DEFAULT_SHAPE_DECAY = """
kind = decay
n = 256
d = 3
horizon = 1.0
replicas = 2
constant_samples = 10
seed = 11
"""


def _run_columns(tmp_path, name):
    path = write_config(tmp_path, DEFAULT_SHAPE_DECAY)
    out = tmp_path / name
    code = cli.main(["run", "--config", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    tables = {f.name: np.loadtxt(f, delimiter=",", skiprows=1)
              for f in sorted(out.glob("*.csv"))}
    return code, report, tables


@pytest.mark.skipif(cli.analysis._engine.BACKEND != "c",
                    reason="the C pair pass is not loaded")
def test_decay_pair_pass_never_falls_back_to_numpy(tmp_path, monkeypatch):
    """On the C backend a decay run at the default shape and k_main never
    run the numpy pair pass; with the library forced off, the same run
    (python stepper and pair pass) writes the same CSV files byte for byte
    and the same report, constants included.  So does the blocked
    k_main_estimate alone, whose python backend runs the numpy pass once
    per block of samples."""
    engine = cli.analysis._engine

    def refuse(*args):
        raise AssertionError("numpy pair pass run on the C backend")

    def constants():
        # 100 samples at n = 64, d = 3 come in more than one block
        hc = cli.analysis.k_main_estimate(0.5, 4.0, 64, 3, 100,
                                          np.random.default_rng(1))
        return hc.j_factor, hc.j_stderr, hc.k_main, hc.c_delta_n

    passes = []
    with monkeypatch.context() as mp:
        mp.setattr(engine, "_python_pair_sums", refuse)
        code_c, report_c, _ = _run_columns(tmp_path, "c")
        constants_c = constants()
    with monkeypatch.context() as mp:
        mp.setattr(engine, "_LIB", None)
        mp.setattr(engine, "BACKEND", "python")
        code_py, report_py, _ = _run_columns(tmp_path, "py")
        reference = engine._python_pair_sums

        def counting(*args):
            passes.append(1)
            return reference(*args)
        mp.setattr(engine, "_python_pair_sums", counting)
        constants_py = constants()

    per_block = max(1, system.SAMPLE_BLOCK_VALUES // (64 * 3))
    assert 1 < len(passes) == -(-100 // per_block)
    assert constants_py == constants_c

    assert code_c == code_py == cli.EXIT_OK
    assert report_c["pass"] is report_py["pass"] is True
    csvs = sorted(f.name for f in (tmp_path / "c").glob("*.csv"))
    assert "aggregate.csv" in csvs
    assert csvs == sorted(f.name for f in (tmp_path / "py").glob("*.csv"))
    for name in csvs:
        assert ((tmp_path / "c" / name).read_bytes()
                == (tmp_path / "py" / name).read_bytes()), name
    assert report_c["constants"] == report_py["constants"]
    assert report_c["engine_checks"] == report_py["engine_checks"]


def test_each_sample_builds_one_record(tmp_path, monkeypatch):
    """A default-shape decay sample makes one pair pass and two kappa
    evaluations (one per marginal, shared by the fundamental and weak
    reports); a sweep instance makes one pass and two kappa shared by its
    reports; a k_main_estimate sample makes one pass and one kappa.  The
    counts are of configurations and matrices, so a stacked call counts
    each one it holds."""
    calls = collections.Counter()

    def count(module, name):
        func = getattr(module, name)

        def counted(x, *args):
            calls[name] += _matrices(x)
            return func(x, *args)
        monkeypatch.setattr(module, name, counted)

    count(cli.analysis._engine, "pair_sums")
    count(cli.analysis, "kappa")
    code, report, tables = _run_columns(tmp_path, "decay")
    samples = sum(len(t) for name, t in tables.items()
                  if name.startswith("trajectory_"))
    constants = report["config"]["constant_samples"]
    assert code == cli.EXIT_OK and samples == 2 * 3
    assert calls == {"pair_sums": samples + constants,
                     "kappa": 2 * samples + constants}

    def sweep(n_discrete, n_config):
        calls.clear()
        cfg = cli.ExperimentConfig(kind="inequalities", n=16, seed=3,
                                   n_discrete=n_discrete, n_config=n_config)
        assert cli.run_inequality_sweep(cfg, tmp_path) == cli.EXIT_OK
        return np.array([calls["pair_sums"], calls["kappa"]])

    fixed = sweep(0, 0)     # the equality cases
    assert list(sweep(4, 0) - fixed) == [4, 2 * 4]
    assert list(sweep(0, 3) - fixed) == [3, 2 * 3]

    calls.clear()
    cli.analysis.k_main_estimate(0.5, 4.0, 64, 3, 5,
                                 np.random.default_rng(1))
    assert calls == {"pair_sums": 5, "kappa": 5}


@pytest.mark.parametrize("backend", ["c", "python"])
def test_run_names_the_engine_first(tmp_path, capsys, monkeypatch, backend):
    monkeypatch.setattr(cli._engine, "BACKEND", backend)
    path = write_config(tmp_path, "kind = equilibrium-check\nn = 64\n"
                                  "d = 3\nseed = 4\nsamples = 200\n")
    assert cli.main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"kac run: engine backend {backend}"


def sample_row(u, v, notes, delta=0.5, p=4.0):
    """One decay sample's row from its own record, as the observables
    built it one sample at a time: the oracle of the stacked columns."""
    analysis = cli.analysis
    pairs = analysis.pair_statistics(u, v, *analysis.weak_exponents(delta, p))
    try:
        fund = analysis.fund_inequality_report(pairs)
        fund_lhs, fund_rhs = fund.lhs, fund.rhs
    except analysis.RhsInfinite as exc:
        notes.append(f"fundamental inequality degenerate: {exc}")
        fund_lhs, fund_rhs = 1.0, np.inf
    try:
        weak_slack = analysis.pathwise_weak_inequality(pairs, delta, p).slack
    except analysis.PreconditionFailed as exc:
        notes.append(f"weak inequality precondition failed: {exc}")
        weak_slack = -np.inf
    sq = np.sum(v * v, axis=1)
    return {"mean_sq_distance": pairs.mean_sq_distance,
            "m2": float(np.mean(sq)), "m4": float(np.mean(sq * sq)),
            "creation": pairs.creation(), "fund_lhs": fund_lhs,
            "fund_rhs": fund_rhs, "min_corr": pairs.mean_dot,
            "weak_slack": weak_slack}


def test_decay_observables_ignore_call_order():
    rng = np.random.default_rng(6)
    u = cli.sample_equilibrium(12, 3, rng)
    v, _ = cli.align_configurations(u, cli.sample_equilibrium(12, 3, rng))
    # a repeated state, a coincident pair, and a negatively correlated
    # one (its weak report fails and adds a note), stacked over the
    # samples as the runner hands them over
    states = [(u, v), (u, v), (v, u), (u, u.copy()), (u, -u)]
    stacks = tuple(np.stack(x) for x in zip(*states))

    def table(reverse):
        notes = []
        obs = cli._decay_observables(0.5, 4.0, notes)
        names = list(obs)[::-1] if reverse else list(obs)
        columns = {name: obs[name](*stacks) for name in names}
        return [{name: columns[name][k] for name in obs}
                for k in range(len(states))], notes

    forward, notes = table(False)
    np.testing.assert_equal(table(True), (forward, notes))  # nan == nan here
    assert forward[1] == forward[0]
    assert np.isnan(forward[3]["weak_slack"])
    assert len(notes) == 1 and forward[4]["weak_slack"] == -np.inf
    assert forward[4]["creation"] == cli.analysis.coupling_creation(u, -u)
    # the same values and notes, in the same order, as one sample at a time
    want_notes = []
    want = [sample_row(*state, want_notes) for state in states]
    np.testing.assert_equal((forward, notes), (want, want_notes))


def test_decay_sample_checks_flag_violations():
    times = np.array([0.0, 1.0, 2.0])
    columns = {
        "mean_sq_distance": np.array([1.0, 0.5, 0.9]),
        "min_corr": np.array([0.1, 0.1, -0.5]),
        "weak_slack": np.array([np.nan, 0.2, -1.0]),
    }
    issues = cli._decay_sample_checks(times, columns)
    assert len(issues) == 3
    assert "increased" in issues[0]


def test_inequality_sweep_runs(tmp_path):
    path = write_config(tmp_path, INEQUALITY_CFG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert {"instance", "group", "name", "lhs", "rhs", "slack"} <= set(header)
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"kind", "stream", "config", "min_slack",
                           "max_area_residual", "equality_cases", "checked",
                           "violations", "pass"}
    assert report["pass"] is True
    assert min(report["min_slack"].values()) > -1e-10
    assert report["equality_cases"]


def test_support_studies_run(tmp_path):
    for kind, (csv_name, _) in STUDIES.items():
        path = write_config(tmp_path, study_config(kind), name=f"{kind}.cfg")
        out = tmp_path / kind
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == cli.EXIT_OK, kind
        assert (out / csv_name).is_file()
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"kind", "stream", "config", "results",
                               "violations", "pass"}, kind
        assert report["stream"] == system.STREAM_VERSION, kind
        assert report["pass"] is True, kind


def test_equilibrium_check_allows_the_finite_n_gap(tmp_path):
    """At n = 64, d = 3 the exact m4 = 315/191 sits 1.05% below the
    large-n value 5/3; correct sampling must pass."""
    assert abs(system.equilibrium_m4(64, 3) - 315.0 / 191.0) < 1e-15
    path = write_config(tmp_path, "kind = equilibrium-check\nn = 64\n"
                                  "d = 3\nseed = 4\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path),
                     "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True and not report["violations"]
    res = report["results"]
    assert abs(res["m4_mean"] - res["m4_exact"]) <= 4.0 * res["m4_se"]
    # a flat 1% band around the limit would reject the exact value itself
    assert abs(res["m4_limit"] - res["m4_exact"]) > 0.01 * res["m4_limit"]
