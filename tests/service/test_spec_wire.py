"""The canonical JobSpecV1 wire format: strict parsing + round trips.

One JSON shape travels everywhere (CLI ``--remote``, gateway POST
bodies, job-store rows); unknown fields and unsupported versions are
rejected up front, while legacy pre-wire store rows still load.
"""

import json

import pytest

from repro.errors import ReproError, ServiceError
from repro.service.jobstore import JobRecord, JobStore
from repro.service.spec import (
    SPEC_FORMAT,
    SPEC_SCHEMA_VERSION,
    JobSpec,
    spec_from_stored,
)


@pytest.fixture
def spec(fast_config):
    return JobSpec(workload="cos", n_inputs=6, config=fast_config,
                   timeout_seconds=12.5, max_attempts=2)


class TestWireRoundTrip:
    def test_to_wire_shape(self, spec):
        wire = spec.to_wire()
        assert wire["format"] == SPEC_FORMAT == "repro-jobspec"
        assert wire["schema_version"] == SPEC_SCHEMA_VERSION == 1
        assert wire["workload"] == "cos"
        assert wire["n_inputs"] == 6
        assert wire["timeout_seconds"] == 12.5
        assert wire["max_attempts"] == 2

    def test_round_trip_is_exact(self, spec):
        rebuilt = JobSpec.from_wire(
            json.loads(json.dumps(spec.to_wire()))
        )
        assert rebuilt == spec
        assert rebuilt.to_wire() == spec.to_wire()

    def test_inline_table_round_trips(self, fast_config):
        from repro.service.spec import table_to_dict
        from repro.workloads import build_workload

        table = build_workload("cos", n_inputs=6).table
        spec = JobSpec(table=table_to_dict(table), config=fast_config)
        rebuilt = JobSpec.from_wire(spec.to_wire())
        assert (rebuilt.build_table().outputs == table.outputs).all()


class TestStrictParsing:
    def test_unknown_field_rejected(self, spec):
        wire = spec.to_wire()
        wire["priority"] = "high"
        with pytest.raises(ServiceError, match="priority"):
            JobSpec.from_wire(wire)

    def test_missing_format_rejected(self, spec):
        wire = spec.to_wire()
        del wire["format"]
        with pytest.raises(ServiceError, match="repro-jobspec"):
            JobSpec.from_wire(wire)

    def test_unsupported_version_rejected(self, spec):
        wire = spec.to_wire()
        wire["schema_version"] = 2
        with pytest.raises(ServiceError, match="schema_version"):
            JobSpec.from_wire(wire)
        del wire["schema_version"]
        with pytest.raises(ServiceError, match="schema_version"):
            JobSpec.from_wire(wire)

    def test_non_mapping_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            JobSpec.from_wire(["not", "a", "spec"])

    def test_missing_config_rejected(self, spec):
        wire = spec.to_wire()
        del wire["config"]
        with pytest.raises(ServiceError, match="config"):
            JobSpec.from_wire(wire)

    @pytest.mark.parametrize("backend", ["numba", "torch", "cupy"])
    def test_removed_backend_is_a_typed_error(self, spec, backend):
        wire = spec.to_wire()
        wire["config"]["solver"]["backend"] = backend
        with pytest.raises(ReproError, match=backend):
            JobSpec.from_wire(wire)


class TestStoredSpecDispatch:
    def test_wire_rows_parse_strictly(self, spec):
        assert spec_from_stored(spec.to_wire()) == spec

    def test_legacy_rows_still_load(self, spec):
        # pre-wire job-store rows carry no "format" key
        assert spec_from_stored(spec.to_dict()) == spec

    def test_store_persists_wire_form(self, tmp_path, spec):
        store = JobStore(tmp_path / "jobs.sqlite3")
        job = store.submit(spec, artifact_key="k")
        assert store.get(job.id).spec == spec

    def test_legacy_store_row_is_readable(self, tmp_path, spec):
        """A database written before the wire format still loads."""
        import sqlite3

        store = JobStore(tmp_path / "jobs.sqlite3")
        conn = sqlite3.connect(store.path)
        conn.execute(
            "INSERT INTO jobs (id, artifact_key, spec, state, "
            "max_attempts, created_at) VALUES (?, ?, ?, 'queued', 3, 0)",
            ("job-legacy", "k", json.dumps(spec.to_dict())),
        )
        conn.commit()
        conn.close()
        assert store.get("job-legacy").spec == spec


class TestJobRecordRoundTrip:
    def test_record_to_dict_round_trips(self, tmp_path, spec):
        store = JobStore(tmp_path / "jobs.sqlite3")
        job = store.submit(spec, artifact_key="key-1")
        assert JobRecord.from_dict(job.to_dict()) == job

    def test_record_dict_survives_json(self, tmp_path, spec):
        store = JobStore(tmp_path / "jobs.sqlite3")
        job = store.submit(spec, artifact_key="key-1")
        claimed = store.claim("w0", lease_seconds=5.0)
        payload = json.loads(json.dumps(claimed.to_dict()))
        rebuilt = JobRecord.from_dict(payload)
        assert rebuilt == claimed
        assert rebuilt.spec.config == spec.config

    def test_malformed_record_rejected(self):
        with pytest.raises(ServiceError, match="malformed job record"):
            JobRecord.from_dict({"id": "job-x"})
