"""Golden trace digests: the committed bytes of every registered program.

The determinism tests compare two runs of the same code.  This test
compares a run against the sha256 of its trace text as recorded when
the table was written, so a refactor of the runtimes, the recorder or
the encoder that shifts one event, timestamp or call path by a single
byte fails here.  A change that alters traces on purpose updates the
table and says why.

Every program runs at ``size=max(4, min_size)``, ``num_threads=3``,
``seed=5`` and intrusion 0; the fig. 3.3 chain runs at 16 ranks with
its defaults.
"""

import hashlib

from repro.core import list_properties, run_all_mpi_properties
from repro.trace.io import events_to_jsonl

CHAIN_KEY = "fig3.3 chain, 16 ranks"

GOLDEN = {
    "balanced_collectives": (
        "ed8d6427a072792af298564607df61a88af1b7b04cf2ce40890ff0c23eb65f80"
    ),
    "balanced_mpi_barrier": (
        "047e9dc9d1db55ce2d2417ebc22b4868bd94c62fad92a94e96fe46a81de423d8"
    ),
    "balanced_omp_barrier_loop": (
        "a0200af4caf0eb1958693028514575dc3955ef1f77991e632d8bc320e21b60b3"
    ),
    "balanced_omp_loop": (
        "ace7ac6611c9f97892f95c6bf6d1bc761c21167fbd459d08c0904916545b22e8"
    ),
    "balanced_omp_region": (
        "847456e199d836476b2a9e5cfe4dfba424eb679ccfcd52fa01beb2645dbff3af"
    ),
    "balanced_sendrecv": (
        "acc8d9e5530d4f54011f0bf6ba1388e6740f5aded8e9a228845496bbc4eb582a"
    ),
    "balanced_shift_ring": (
        "53d3fc96fab71b455416ad42e54f10a169fd5aa01f9855e3f73ffd2710a69c94"
    ),
    "early_gather": (
        "a5f522079adc70c4e04c2853d8482f91a80ae34873a46f9cf09be0db458c2195"
    ),
    "early_gatherv": (
        "b789d110c6a8fe87c150e74963ce95292dabce703092e27eb2b917bdaffc4873"
    ),
    "early_reduce": (
        "50047944c10bd67857139a0b95f16aa3e92d3cb9d5f88007907277a39fbc6a09"
    ),
    "growing_imbalance_at_mpi_barrier": (
        "f44738e91c64fc43b41ac4f120cab685c16b3bdd6d323f6c0d660cc6ba19a045"
    ),
    "hybrid_alternating_paradigms": (
        "960cb8c0f8b1cf876501894837e5b5f27dbef2b546dd1df68cff0db90eb51fbf"
    ),
    "hybrid_imbalance_then_barrier": (
        "92091027adb59499b4a7390a6a18992ce50d4e276e6d376e210640fbad48deb4"
    ),
    "hybrid_late_sender_omp_work": (
        "efaab4a9fa25b75623037ba0be4c3387004a4d9c7eadfa6c97b0e72ccb06b9ff"
    ),
    "imbalance_at_mpi_allgather": (
        "389b923eb6232803bb7a96852b51a337034d556a453f2b02071ebc0cc5fd3659"
    ),
    "imbalance_at_mpi_allreduce": (
        "f06f53cbc1f995205ae64ca267b4c87de2ed81294c2503e49f712cc112c503ef"
    ),
    "imbalance_at_mpi_alltoall": (
        "6ffc93574f46e17ba7eb77303720849bca74d9fc7d53ee5f3ef36beb95ba4142"
    ),
    "imbalance_at_mpi_barrier": (
        "9c44cc8d4afdd94f05079559c2f5dd8636f5df37c404b440670db815612fbee5"
    ),
    "imbalance_at_mpi_reduce_scatter": (
        "35405e8d09d842e6df37bd9e4a95bf4b7f7ca5bd0d3dd4128cf272ee3e8526d3"
    ),
    "imbalance_at_omp_barrier": (
        "ed08a6f946ea3d7526d10c98ef0399982aeaf20fac1d05618b345b57ffed9a9f"
    ),
    "imbalance_at_omp_reduce": (
        "7e7bf03a34cd64c2451a808d52a7451a12997fe117e706826e3452a6b65a353b"
    ),
    "imbalance_at_omp_single": (
        "4b7ddc0193e59e2736dfafde617dbdc36c8a39bab3c8cb554cc38a1210991aa1"
    ),
    "imbalance_in_omp_loop": (
        "64eee24cbea2d8f48203e14d69a0be4faeacdbea2fbe50f59b314de7510cd9c0"
    ),
    "imbalance_in_omp_pregion": (
        "86fd767b53d581f120e0376ba272c5e14771e2f45b03388845dedbcb99d126b0"
    ),
    "imbalance_in_omp_sections": (
        "bb2960b5ffc74eab2e8b8bfd558b467666d6e9de41c1ca8838d10442ed855b1a"
    ),
    "io_bound_phases": (
        "bdd7060734903237d711cdf3a1ee3db2fafb7aa6907454cad64b15a70c268ce8"
    ),
    "late_broadcast": (
        "0489cd2ef34dce2afd9bf5198142091d3cdf49358cf1b29236cca50389c8be7f"
    ),
    "late_receiver": (
        "b2d92863f643630b71f84d53e36d9c96bd370abef75350fe9fed7f287f78d8af"
    ),
    "late_scatter": (
        "18e30ebc4884f29d3ac46e9ebf019cfd64ed4f37c652e1bcbda2c0265a9d456a"
    ),
    "late_scatterv": (
        "d8a04fe4683f91be0d6e008436cc30024d657cbc580650b6818ced98d7f53ec1"
    ),
    "late_sender": (
        "b5286f57749448a34973b9b7d0f616ef0506dd03ca82843ed93b831df4e2318a"
    ),
    "late_sender_bottleneck": (
        "eefb168c7538b57447ac2a062b28493f3309bba37b491a9b6d946d50adeb393b"
    ),
    "messages_in_wrong_order": (
        "05bdabb26aac7c7f9e7d62a204e3efaafc963e746471198aebc746006c11335c"
    ),
    "nested_omp_imbalance": (
        "c1584c96e3fda2de1f6f2097bf0ed3448a1a268a81a940424ec2ba398f23b9da"
    ),
    "omp_critical_contention": (
        "929d29aa813f56db1bd1c58a5ed8f4a7700751b10a9b9a12540b5b893484aef6"
    ),
    CHAIN_KEY: (
        "69e15469365a5fc652762651b4e79bdee933d079f2744a9e4fdb8c62a4f564cd"
    ),
}


def _digest(run) -> str:
    return hashlib.sha256(events_to_jsonl(run.events).encode()).hexdigest()


def test_every_registered_trace_matches_its_golden_digest():
    digests = {
        spec.name: _digest(
            spec.run(size=max(4, spec.min_size), num_threads=3, seed=5)
        )
        for spec in list_properties(negative=None)
    }
    digests[CHAIN_KEY] = _digest(run_all_mpi_properties(size=16))
    changed = sorted(
        name for name in GOLDEN.keys() | digests.keys()
        if GOLDEN.get(name) != digests.get(name)
    )
    assert not changed, f"trace bytes changed for {changed}"
