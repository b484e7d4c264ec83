"""Bundled verification scenarios: statuses, schema, determinism and the
byte-identical reports of ``scenario_reports.json``."""

import json
from pathlib import Path

import jsonschema
import pytest

from sgwalk import (
    REPORT_SCHEMA,
    SCENARIO_IDS,
    report_to_dict,
    run_all_scenarios,
    run_scenario,
)

EXPECTED_STATUS = {
    "fig1-cycles": "pass",
    "join-k2-3reg": "pass",
    "join-formula": "pass",
    "join-divisibility": "pass",
    "k6-no-pst": "pass",
    "k8-signed": "discrepancy",
    "cubelike-pst": "pass",
    "cubelike-periodic": "pass",
    "cubelike-signed-remark": "discrepancy",
    "double-cover": "pass",
    "quotient-equiv": "pass",
    "ext-c4": "pass",
    "ext-q3": "pass",
    "sym-vs-ext": "pass",
    "boson-ladder": "discrepancy",
    "balanced-products": "pass",
}


@pytest.fixture(scope="module")
def reports():
    return run_all_scenarios()


def test_scenario_catalog_is_complete():
    assert tuple(EXPECTED_STATUS) == SCENARIO_IDS


def test_all_scenarios_report_expected_statuses(reports):
    assert [r.scenario for r in reports] == list(SCENARIO_IDS)
    for report in reports:
        assert report.status == EXPECTED_STATUS[report.scenario], report.scenario
        assert report.claims
        assert report.runtime_seconds >= 0
        # a discrepancy documents a refuted stated value, never a broken check
        assert all(claim.status != "fail" for claim in report.claims)
        for claim in report.claims:
            if claim.status == "discrepancy":
                assert claim.provenance == "claimed"


def test_reports_validate_against_published_schema(reports):
    for report in reports:
        payload = report_to_dict(report)
        jsonschema.validate(payload, REPORT_SCHEMA)
        # the schema is strict enough to notice a corrupted status
        broken = json.loads(json.dumps(payload))
        broken["claims"][0]["status"] = "maybe"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, REPORT_SCHEMA)


def test_reports_are_deterministic_modulo_runtime(reports):
    def strip(batch):
        out = []
        for report in batch:
            payload = report_to_dict(report)
            payload.pop("runtime_seconds")
            out.append(payload)
        return json.dumps(out, sort_keys=True)

    assert strip(run_all_scenarios()) == strip(reports)


def test_reports_match_the_checked_in_golden(reports):
    # every claim's text and 12-decimal figures, runtimes aside; the golden is
    # written as `sgwalk verify-all --format json` prints, without runtime_seconds
    payload = []
    for report in reports:
        payload.append(report_to_dict(report))
        payload[-1].pop("runtime_seconds")
    golden = Path(__file__).with_name("scenario_reports.json").read_text(encoding="utf-8")
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == golden


def test_unknown_scenario_is_rejected():
    with pytest.raises(KeyError) as err:
        run_scenario("fig2-cycles")
    assert "fig1-cycles" in str(err.value)
