"""Raw Ising problems as ordinary service jobs: spec, key, executor."""

import hashlib
import json

import pytest

from repro.errors import ServiceError
from repro.ising.kernels import ENV_BACKEND
from repro.ising.wire import RESULT_FORMAT, ising_artifact_key
from repro.loadgen.instances import main, separate_mode_instance
from repro.service import DecompositionService
from repro.service.spec import JobSpec, spec_artifact_key, spec_from_stored

#: sha256 of ``python -m repro.loadgen.instances --workload cos
#: --n-inputs 6 --free-size 2``, the document every test here submits
COS6_DOCUMENT_SHA256 = (
    "2e6ee38ef81931dacae9c46f5933223cce4afad3241b8ca397943ff5018599fd"
)
#: artifact keys of two stored artifacts under the service ``fast_config``
#: fixture: the cos n=6 decomposition and the raw Ising solve of the
#: document above.  Changing either orphans every artifact on disk.
COS6_DECOMPOSITION_KEY = (
    "f69fabd5ef17c0d5692b62c8d5f5689f91331e0200c42258e671ae03c958ff94"
)
COS6_ISING_KEY = (
    "84ffae1c03fbba668dbfd5e0bc3fda938bd52a7f6d4756d08e0f4e0a822e034f"
)


@pytest.fixture
def problem():
    return separate_mode_instance(
        workload="cos", n_inputs=6, free_size=2
    )


class TestSpecValidation:
    def test_ising_exclusive_with_other_sources(
        self, fast_config, problem
    ):
        with pytest.raises(ServiceError, match="exactly one problem"):
            JobSpec(config=fast_config, workload="cos", ising=problem)

    def test_describe_names_the_solver_and_width(
        self, fast_config, problem
    ):
        spec = JobSpec(config=fast_config, ising=problem)
        assert spec.describe() == "ising[bsb]/N=24"

    def test_wire_roundtrip_preserves_ising(self, fast_config, problem):
        spec = JobSpec(config=fast_config, ising=problem)
        again = JobSpec.from_wire(spec.to_wire())
        assert again == spec


class TestRetiredPartitionField:
    """Every spec an older build stored or sent carries
    ``"partition": null``; it must keep parsing and keying the same."""

    @pytest.mark.parametrize("kind", ["workload", "ising"])
    def test_null_block_parses_and_keys_identically(
        self, fast_config, problem, kind
    ):
        if kind == "ising":
            spec = JobSpec(config=fast_config, ising=problem)
        else:
            spec = JobSpec(config=fast_config, workload="cos", n_inputs=6)
        legacy = {**spec.to_wire(), "partition": None}
        for parsed in (
            JobSpec.from_wire(legacy),
            spec_from_stored(legacy),
            JobSpec.from_dict(
                {k: v for k, v in legacy.items()
                 if k not in ("format", "schema_version")}
            ),
        ):
            assert parsed == spec
            assert spec_artifact_key(parsed) == spec_artifact_key(spec)

    @pytest.mark.parametrize(
        "block", [{"k": 1}, {"k": 2, "seed": 5}, 2, "k=2"]
    )
    def test_any_block_is_rejected(self, fast_config, problem, block):
        wire = {
            **JobSpec(config=fast_config, ising=problem).to_wire(),
            "partition": block,
        }
        with pytest.raises(ServiceError, match="partition"):
            JobSpec.from_wire(wire)
        legacy = {
            k: v for k, v in wire.items()
            if k not in ("format", "schema_version")
        }
        with pytest.raises(ServiceError, match="partition"):
            spec_from_stored(legacy)


class TestArtifactKeys:
    def test_key_depends_on_solver_and_model(self, fast_config, problem):
        base = ising_artifact_key(problem, fast_config)
        other_solver = dict(problem, solver="sa")
        assert ising_artifact_key(other_solver, fast_config) != base
        other_model = separate_mode_instance(
            workload="exp", n_inputs=6, free_size=2
        )
        assert ising_artifact_key(other_model, fast_config) != base

    def test_keys_of_stored_artifacts_are_stable(
        self, fast_config, problem, monkeypatch
    ):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert spec_artifact_key(
            JobSpec(config=fast_config, workload="cos", n_inputs=6)
        ) == COS6_DECOMPOSITION_KEY
        assert spec_artifact_key(
            JobSpec(config=fast_config, ising=problem)
        ) == COS6_ISING_KEY

    def test_generator_documents_are_stable(self, tmp_path, problem):
        out = tmp_path / "problem.json"
        assert main([
            "--workload", "cos", "--n-inputs", "6", "--free-size", "2",
            "--out", str(out),
        ]) == 0
        text = out.read_bytes()
        assert hashlib.sha256(text).hexdigest() == COS6_DOCUMENT_SHA256
        assert json.loads(text) == problem


class TestIsingExecution:
    def test_executes_and_caches_by_content(
        self, tmp_path, fast_config, problem
    ):
        service = DecompositionService(tmp_path / "svc", n_workers=2)
        job = service.submit(JobSpec(config=fast_config, ising=problem))
        service.run_until_drained()
        record = service.job(job.id)
        assert record.state == "done"
        envelope = service.fetch_envelope(job.id)
        assert envelope["design"]["format"] == RESULT_FORMAT
        assert envelope["design"]["stop_reason"]
        # an identical resubmission resolves from the artifact cache
        twin = service.submit(JobSpec(config=fast_config, ising=problem))
        service.run_until_drained()
        assert service.job(twin.id).cache_hit

    def test_worker_spin_limit_is_enforced(
        self, tmp_path, fast_config, problem, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ISING_MAX_SPINS", "8")
        service = DecompositionService(tmp_path / "svc")
        job = service.submit(
            JobSpec(config=fast_config, ising=problem, max_attempts=1)
        )
        service.run_until_drained()
        record = service.job(job.id)
        assert record.state == "failed"
        assert "REPRO_ISING_MAX_SPINS" in record.error
        assert "24 spins" in record.error
