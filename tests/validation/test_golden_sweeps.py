"""Golden digests of every sweep front end's artifacts.

The determinism tests compare two runs of the same code.  This test
compares the artifacts of the sweep front ends -- the validation
matrix, ``certify_tool``, robustness grids, synthesis campaigns,
``run_sweep`` CSVs and the ASCII timelines -- against the sha256 of
their bytes as written by commit bac8e9b, so a refactor of the cell
pipeline, the grading rule or the sweep engine that moves one row,
journal line, manifest record or archived blob fails here.

The probe covers:

* the matrix at size 4, threads 2: plain, under a 0.05 s virtual-time
  budget (24 of 35 rows hang), and archived with a checkpoint journal;
* ``certify_tool`` at the same size;
* a 4-program x 5-magnitude ``rule,similarity`` robustness grid,
  archived and checkpointed (16 of 20 cells salvaged), plus a
  budgeted grid with 6 error cells;
* a 36-scenario noisy grid campaign with its score, archived and
  checkpointed, and a 12-scenario adversarial campaign;
* two ``run_sweep`` CSVs (severity x size, and a parameter grid);
* the timeline of every registered program, and ``render_timeline``
  / ``state_at`` of a trace cut mid-region.

A change that alters these outputs on purpose regenerates the table
and says why in its change notes::

    PYTHONPATH=src python tests/validation/test_golden_sweeps.py

prints the current digests in the layout of ``GOLDEN`` below.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from repro.core import get_property, list_properties
from repro.resilience import Supervisor
from repro.trace import render_timeline, state_at

#: programs of the robustness grids: MPI, OpenMP, positive, negative
ROBUSTNESS_PROGRAMS = (
    "late_sender",
    "imbalance_at_mpi_barrier",
    "imbalance_in_omp_pregion",
    "balanced_sendrecv",
)

GOLDEN = {
    "campaign-adversarial.json": (
        "30ccd85bd7532e7ec583f67c87828da6f4657614c153f16665a677b58ad25b55"
    ),
    "campaign.archive": (
        "8e8cce5b79b132a26d060b17c28ea95ad36e810710671563962bf1372b8769f0"
    ),
    "campaign.journal": (
        "a8486f70c06ecd48ee4e026fdf46f7869ce2988209e54beab4785303d292c098"
    ),
    "campaign.json": (
        "758466923abb5292ec1b248e2b559c085e53081f2745d0639b04b06e88ab6e55"
    ),
    "campaign.score": (
        "d7e1bdc437612b6168184e8d3e0df3b9401a51290c716a6fe9ec1ca5d321d6d9"
    ),
    "campaign.score-table": (
        "876778e35c871de31253c9b6a7e3e500ebb5f9aa5641cbb1d6379479995823d8"
    ),
    "campaign.summary": (
        "39a758f3bc6ce18d0b8940a1d950d5ccc78e9729dc41596d9f296ce6bf2569fc"
    ),
    "certify": (
        "6f2c961a34a242747f7806e03f9f217fd8aeddd0e5c9d2fba8e34087d4564a87"
    ),
    "matrix-archived.archive": (
        "5a18519ce110daa994115c3b125da6891ccb3a90eb81b112450bbedc99b05563"
    ),
    "matrix-archived.journal": (
        "89e6ea2ff6b0a100f79feb6d51dc40aec38c91a14c7876c76a983ccbeeb11bc9"
    ),
    "matrix-archived.rows": (
        "a50438d750a177f11097b5949a2d3969bc453dafaf936b18526603779187efe8"
    ),
    "matrix-budget.failures": (
        "f0cd416e88114516425759508960c1e83b71c1a0651e1c0568acaee63fc8c1ee"
    ),
    "matrix-budget.rows": (
        "274a12debcc5b9cf5867d0f6636a964e85a74f7c26f9025eb59ef95b23a66970"
    ),
    "matrix-budget.table": (
        "c0758abcb5fa7468547a4a8d984a76e07d09c7ea2f6a53cb039d4f29dba2755e"
    ),
    "matrix.rows": (
        "a50438d750a177f11097b5949a2d3969bc453dafaf936b18526603779187efe8"
    ),
    "matrix.table": (
        "ae06d35c17866bfab9f96a1340f4312b039448fa5a9fe502da395bdfc34b7e56"
    ),
    "robustness-budget.json": (
        "5a6d12a604e728a2eb1f908f7fcd52b909e11656333aeaa52b282167b022280f"
    ),
    "robustness-budget.table": (
        "2a5db828f242a0469f731401942f3baa13672663fd913059cd414c921bcce4ae"
    ),
    "robustness.archive": (
        "edefdce4298b308a2556259fbd9f8110ef6ca0063742f30d1122f50968b8a841"
    ),
    "robustness.journal": (
        "3a08c6bcb3f817f5d64cded0ad5783d04d82cdbc1932a94d4047d1c313536167"
    ),
    "robustness.json": (
        "753073d91885b5e67386edd93cc6a4473ebbeb47f795f62fa8a8ed25372375c0"
    ),
    "robustness.table": (
        "df4594ef259dba4619d26a6be63b58ec248977a6f52db1ded7f3107f622fbfdc"
    ),
    "sweep-factors.csv": (
        "eed7fcfb042b59697e81a793ed429dacd7758182e539d5f83fd47084d4a7dad8"
    ),
    "sweep-grid.csv": (
        "154798072a2b6dcf2cde5505c877fcdd00725d0c619e1aa4e54d9f00dd5f4828"
    ),
    "timeline-cut": (
        "6386b118cb702d247723a41277a98a3888b852371133737fc3f00c998117bf28"
    ),
    "timeline.balanced_collectives": (
        "c5948404cc168bbe77ed492b7bd7d9e5c0c4a030614458d0e771afdde397b569"
    ),
    "timeline.balanced_mpi_barrier": (
        "9492eeb7a9b684a2b8f0f7f1aef8c09b58d4b9678a67fd00b3e791a12cf9e6d2"
    ),
    "timeline.balanced_omp_barrier_loop": (
        "6b41f20a141e504edb12ffb2e8ee321cb10cf64b7f0b39eace9f7b51fefc5917"
    ),
    "timeline.balanced_omp_loop": (
        "546a266603b1f36b252dd5037c38cd7e55a710434f0e35ce7105fc2d0f487723"
    ),
    "timeline.balanced_omp_region": (
        "202c21cef22448e7363e10bf12be1738fca88431ef4eaee19e4b67623da520ac"
    ),
    "timeline.balanced_sendrecv": (
        "01c2b95d77c7891745c4681ca4b6cd41a8e817db6e2c450c91001eee74f87e93"
    ),
    "timeline.balanced_shift_ring": (
        "4d0112e06df5021144c3b49439e98c913ec899e17972fbcde98e895c8f2cd485"
    ),
    "timeline.early_gather": (
        "30e614169c0b345cca98c8e0a55ee3782b791265f201bd040aea469ef2c092ba"
    ),
    "timeline.early_gatherv": (
        "30e614169c0b345cca98c8e0a55ee3782b791265f201bd040aea469ef2c092ba"
    ),
    "timeline.early_reduce": (
        "5565a200c8e8cb313745187bf4644a5d468de250933a618e764dafa9ca4b3308"
    ),
    "timeline.growing_imbalance_at_mpi_barrier": (
        "a882b93d303a9102a84046a3055b4eecbdcc17560c786d7aeb305394869bf20b"
    ),
    "timeline.hybrid_alternating_paradigms": (
        "38189401b4c1437e0d983dfdd1b1b625424047185d8f77277e154026be08035e"
    ),
    "timeline.hybrid_imbalance_then_barrier": (
        "5611ca35f2ac12d23e9221f74da7a05473e2f55f1b49dbed86f4dd390e26b712"
    ),
    "timeline.hybrid_late_sender_omp_work": (
        "0d22d0269dc39c3fb72c5868d3ef0b6f5bf13e9b137266df0ac20f3ec93d5f91"
    ),
    "timeline.imbalance_at_mpi_allgather": (
        "97a4a915805280e12f631211e5cda995c5e39d1a13d38c5cf43a102b71be4a4e"
    ),
    "timeline.imbalance_at_mpi_allreduce": (
        "02557552596373f0f4ea0671ef2b9cc97ae63d575786c1b9b75c1caf5783cbb7"
    ),
    "timeline.imbalance_at_mpi_alltoall": (
        "24feebf3229d81710d38c2dca4e92cf179564089d63834d05c3966232ed11d1e"
    ),
    "timeline.imbalance_at_mpi_barrier": (
        "abcdac1a2a01732b174a93fdc83eeb466571a47751f3e43a263ecc239a4d030c"
    ),
    "timeline.imbalance_at_mpi_reduce_scatter": (
        "3dd9fc67dcf6512ff8c1481dab8a43dd366fa3d8139642d923d082bc71822533"
    ),
    "timeline.imbalance_at_omp_barrier": (
        "2e0c1ff4f395787438258896c8faab6ba0f513a75e5c00a647b0b588649d0cc8"
    ),
    "timeline.imbalance_at_omp_reduce": (
        "c92570c554ab0d97541dc4975a70321639f684cae672c0082e43bf7180797c3d"
    ),
    "timeline.imbalance_at_omp_single": (
        "8c53d56925e03c97a010ea5b7e85453565bd261a7bce8bf08a1846ac437d7a11"
    ),
    "timeline.imbalance_in_omp_loop": (
        "2e0c1ff4f395787438258896c8faab6ba0f513a75e5c00a647b0b588649d0cc8"
    ),
    "timeline.imbalance_in_omp_pregion": (
        "a22b550f97e976ffaa8ccf070b97810292822a0dd04b23fe7cadd7cacaf1305f"
    ),
    "timeline.imbalance_in_omp_sections": (
        "a068fa19c3711250ae141e972ed5fa8a2e6231eed982e5ac58e66509a207d737"
    ),
    "timeline.io_bound_phases": (
        "16a51e97b0a66fee27d48b9fccaf51fdea4aa5bd12e76f84981b356cdd36207b"
    ),
    "timeline.late_broadcast": (
        "b58eaa6a2c42c31b8849964f87fc81fd1ba05e68749cd9fadfd0821032a64916"
    ),
    "timeline.late_receiver": (
        "b0c4dc07a13e51d1cf13a8e9472f1cf84cad2a18eaa1ca2368324c11fd4f14dc"
    ),
    "timeline.late_scatter": (
        "49485913e63e16c3d960b2bbd500d931af1237c7c58b18847dc9bb6ee48ab237"
    ),
    "timeline.late_scatterv": (
        "49485913e63e16c3d960b2bbd500d931af1237c7c58b18847dc9bb6ee48ab237"
    ),
    "timeline.late_sender": (
        "0ce1e6808b6320d8f304e2e933c5c5addf089938a4efb97882bdfc51a5d017b2"
    ),
    "timeline.late_sender_bottleneck": (
        "bcdc2fe98b09a864d1408c30f523b384c09e105592b3b35f352a3cd79877f558"
    ),
    "timeline.messages_in_wrong_order": (
        "8b44c0dfd651e678b1388295b1ddc989048c8ee41373dad641ce7a5c214819c1"
    ),
    "timeline.nested_omp_imbalance": (
        "2c540f7f483936e2d797f10638fab0d8cc43b0133b9c38442cb355db8922e977"
    ),
    "timeline.omp_critical_contention": (
        "1b3e71f207203a1511cc5ca014368c084ef1a4d008b108f3cc96eae74336f5a8"
    ),
}


def _tree(root: Path) -> bytes:
    """Every file under ``root``: relative path and bytes, path order."""
    out = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out.append(path.relative_to(root).as_posix().encode() + b"\0")
        out.append(path.read_bytes() + b"\0")
    return b"".join(out)


def _rows(matrix) -> bytes:
    import json

    return json.dumps([row.to_dict() for row in matrix.rows]).encode()


def _matrix_artifacts(root: Path, out: dict) -> None:
    from repro.validation import certify_tool, run_validation_matrix

    plain = run_validation_matrix(size=4, num_threads=2)
    out["matrix.rows"] = _rows(plain)
    out["matrix.table"] = plain.format_table().encode()

    supervisor = Supervisor()
    budgeted = run_validation_matrix(
        size=4, num_threads=2, time_budget=0.05, supervisor=supervisor
    )
    out["matrix-budget.rows"] = _rows(budgeted)
    out["matrix-budget.table"] = budgeted.format_table().encode()
    out["matrix-budget.failures"] = (
        supervisor.failure_report().to_json_str().encode()
    )

    journal = root / "matrix.jsonl"
    supervisor = Supervisor(checkpoint=journal)
    archived = run_validation_matrix(
        size=4, num_threads=2, supervisor=supervisor,
        archive=root / "matrix-archive",
    )
    supervisor.close()
    out["matrix-archived.rows"] = _rows(archived)
    out["matrix-archived.journal"] = journal.read_bytes()
    out["matrix-archived.archive"] = _tree(root / "matrix-archive")

    out["certify"] = certify_tool(size=4, num_threads=2).format().encode()


def _robustness_artifacts(root: Path, out: dict) -> None:
    from repro.validation import run_robustness

    specs = [get_property(name) for name in ROBUSTNESS_PROGRAMS]
    journal = root / "robustness.jsonl"
    supervisor = Supervisor(checkpoint=journal)
    result = run_robustness(
        specs=specs,
        magnitudes=(0.0, 0.35, 0.7, 1.0, 20.0),
        seeds=(0,),
        size=4,
        num_threads=2,
        supervisor=supervisor,
        archive=root / "robustness-archive",
        families=("rule", "similarity"),
    )
    supervisor.close()
    assert sum(c.salvaged for c in result.cells) == 16
    out["robustness.json"] = result.to_json_str().encode()
    out["robustness.table"] = result.format_table().encode()
    out["robustness.journal"] = journal.read_bytes()
    out["robustness.archive"] = _tree(root / "robustness-archive")

    budgeted = run_robustness(
        specs=specs,
        magnitudes=(0.0, 0.7, 1.0),
        seeds=(0,),
        size=4,
        num_threads=2,
        time_budget=0.07,
    )
    assert len(budgeted.errors) == 6
    out["robustness-budget.json"] = budgeted.to_json_str().encode()
    out["robustness-budget.table"] = budgeted.format_table().encode()


def _campaign_artifacts(root: Path, out: dict) -> None:
    from repro.synth import (
        CampaignSpec,
        NoiseConfig,
        run_campaign,
        score_result,
    )

    spec = CampaignSpec(
        name="golden",
        strategy="grid",
        scenarios=36,
        sizes=(4, 8),
        threads=2,
        noise=NoiseConfig.default(),
        seed=3,
    )
    journal = root / "campaign.jsonl"
    supervisor = Supervisor(checkpoint=journal)
    result = run_campaign(
        spec,
        supervisor=supervisor,
        archive=root / "campaign-archive",
        families=("rule", "similarity"),
    )
    supervisor.close()
    score = score_result(result)
    out["campaign.json"] = result.to_json_str().encode()
    out["campaign.summary"] = result.format_summary().encode()
    out["campaign.score"] = score.to_json_str().encode()
    out["campaign.score-table"] = score.format_table().encode()
    out["campaign.journal"] = journal.read_bytes()
    out["campaign.archive"] = _tree(root / "campaign-archive")

    adversarial = CampaignSpec(
        name="golden-adv",
        strategy="adversarial",
        scenarios=12,
        sizes=(4,),
        threads=2,
        noise=NoiseConfig.default(),
        seed=4,
    )
    out["campaign-adversarial.json"] = (
        run_campaign(adversarial).to_json_str().encode()
    )


def _sweep_artifacts(out: dict) -> None:
    from repro.validation import run_sweep

    out["sweep-factors.csv"] = run_sweep(
        "late_sender",
        severity_factors=(0.5, 1.0, 2.0),
        sizes=(4, 8),
        num_threads=2,
    ).to_csv().encode()
    out["sweep-grid.csv"] = run_sweep(
        "late_broadcast",
        sizes=(4,),
        param_grid={"root": [0, 2], "r": [1, 2]},
        num_threads=2,
    ).to_csv().encode()


def _timeline_artifacts(out: dict) -> None:
    for spec in list_properties(negative=None):
        run = spec.run(
            size=max(4, spec.min_size), num_threads=2, seed=1
        )
        out[f"timeline.{spec.name}"] = render_timeline(
            run.events, width=80
        ).encode()
    run = get_property("late_sender").run(size=4, num_threads=2)
    events = sorted(run.events, key=lambda e: e.time)
    cut = events[: len(events) // 2]
    end = cut[-1].time
    states = [
        f"{loc} {i}: {state_at(cut, loc, end * i / 8)}"
        for loc in sorted({e.loc for e in cut})
        for i in range(9)
    ]
    out["timeline-cut"] = (
        render_timeline(cut, width=60) + "\n".join(states)
    ).encode()


def probe(root: Path) -> dict:
    """Name -> bytes of every pinned artifact."""
    out: dict = {}
    _matrix_artifacts(root, out)
    _robustness_artifacts(root, out)
    _campaign_artifacts(root, out)
    _sweep_artifacts(out)
    _timeline_artifacts(out)
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return probe(tmp_path_factory.mktemp("golden-sweeps"))


def test_probe_covers_exactly_the_golden_table(artifacts):
    assert sorted(artifacts) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_sweep_artifact(artifacts, name):
    assert digest(artifacts[name]) == GOLDEN[name], (
        f"{name} changed; if on purpose, regenerate the table "
        "(see the module docstring) and say why"
    )


if __name__ == "__main__":  # pragma: no cover
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = probe(Path(tmp))
    sys.stdout.write("GOLDEN = {\n")
    for name in sorted(table):
        sys.stdout.write(
            f'    "{name}": (\n        "{digest(table[name])}"\n    ),\n'
        )
    sys.stdout.write("}\n")
