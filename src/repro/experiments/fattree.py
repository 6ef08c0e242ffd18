"""Multi-link fabric: placement and rotation on a fat-tree cluster.

ROADMAP item 1 made the simulation core multi-link; this experiment
drives the new tier end to end on a three-tier fat tree
(:meth:`repro.net.topology.Topology.fat_tree`) and asks the paper's §5
question at fabric scale: *does compatibility still pay when jobs span
racks, aggregation switches and the core?*

Two parts:

* **Placement** — a stream of alternating compute-heavy (type A) and
  comm-heavy (type B) jobs arrives on a ``k=4`` fat tree. Random,
  consolidated and compatibility-aware (cluster-level, i.e. the
  unified-circle audit of :mod:`repro.core.cluster_compat`) policies
  place them; every resulting cluster runs under the adaptive-unfair
  policy and is scored by slowdown. The compatibility-aware column
  should carry fewer A/B-mixed links and a lower mean slowdown.
* **Rotation** — three DCQCN jobs whose routes converge on one pod's
  downlinks run through the multi-link fluid engine twice: once with
  aligned communication phases (the incompatible alignment) and once
  staggered (the compatible rotation). Same fabric, same routes, same
  traffic — only the phase differs, reproducing Figure 4's sliding
  effect across a six-hop path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.report import ascii_table
from ..cc.adaptive import AdaptiveUnfair
from ..cc.dcqcn import DEFAULT_TIMER
from ..core.cluster_compat import ClusterCompatibilityProblem
from ..core.compatibility import CompatibilityChecker
from ..net.routing import Router
from ..net.topology import Topology
from ..runner import RunSpec, ScenarioSpec, SenderSpec, run_many
from ..scheduler.cluster import ClusterState
from ..scheduler.placement import (
    CompatibilityAwarePlacement,
    ConsolidatedPlacement,
    PlacementPolicy,
    RandomPlacement,
)
from ..sim.rng import RandomStreams
from ..telemetry import current
from ..units import gbps, ms
from ..workloads.job import JobSpec
from ..workloads.profiles import EFFECTIVE_BOTTLENECK

#: Fat-tree arity for the placement study (16 hosts, 96 directed links).
FAT_TREE_K = 4

#: Routes of the rotation demo: three jobs from three different pods,
#: all converging on pod 1's core->agg->edge downlinks.
ROTATION_ROUTES: Dict[str, Tuple[str, ...]] = {
    "J1": (
        "h0_0_0->edge0_0", "up_0_0_0", "core_0_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_0",
    ),
    "J2": (
        "h0_0_1->edge0_0", "up_0_0_0", "core_0_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_1",
    ),
    "J3": (
        "h2_0_0->edge2_0", "up_2_0_0", "core_2_0_0",
        "core_1_0_0_rev", "up_1_0_0_rev", "edge1_0->h1_0_0",
    ),
}


def type_a_job(job_id: str, n_workers: int) -> JobSpec:
    """Compute-heavy job: 250 ms compute + 50 ms communication."""
    return JobSpec(
        job_id=job_id,
        model_name="wideresnet",
        batch_size=800,
        compute_time=ms(250),
        comm_bytes=ms(50) * EFFECTIVE_BOTTLENECK,
        n_workers=n_workers,
    )


def type_b_job(job_id: str, n_workers: int) -> JobSpec:
    """Comm-heavier job: 150 ms compute + 110 ms communication."""
    return JobSpec(
        job_id=job_id,
        model_name="vgg19",
        batch_size=1200,
        compute_time=ms(150),
        comm_bytes=ms(110) * EFFECTIVE_BOTTLENECK,
        n_workers=n_workers,
    )


@dataclass
class FabricOutcome:
    """One placement policy's result on the fat-tree cluster."""

    policy_name: str
    placed: int
    mixed_links: int
    cluster_compatible: bool
    mean_slowdown: float
    max_slowdown: float


def _mixed_links(cluster: ClusterState) -> int:
    """Fabric links carrying both a type-A and a type-B job."""
    mixed = 0
    for jobs in cluster.link_sharing().values():
        kinds = {job_id[0] for job_id in jobs}
        if "A" in kinds and "B" in kinds:
            mixed += 1
    return mixed


def _cluster_audit(cluster: ClusterState) -> bool:
    """§5 cluster-wide audit: one rotation per job, every link at once."""
    checker = CompatibilityChecker(capacity=EFFECTIVE_BOTTLENECK)
    network_jobs = [job for job in cluster.jobs if job.uses_network]
    if not network_jobs:
        return True
    circles = [checker.circle(job.spec) for job in network_jobs]
    links_by_job = {
        job.job_id: [link.name for link in job.links]
        for job in network_jobs
    }
    problem = ClusterCompatibilityProblem.from_assignments(
        circles, links_by_job
    )
    return problem.solve().compatible


def run_placement(
    policies: Sequence[PlacementPolicy] | None = None,
    n_jobs: int = 6,
    n_iterations: int = 30,
    seed: int = 0,
) -> List[FabricOutcome]:
    """Place an A/B job stream on the fat tree with each policy.

    GPUs are scarce (2 per host, so a rack holds 4 workers) and jobs
    need 4-8 workers: most must span racks — often pods — and the
    policies differ exactly in *whose* uplinks they spill onto.
    """
    if policies is None:
        policies = [
            RandomPlacement(seed=seed),
            ConsolidatedPlacement(),
            CompatibilityAwarePlacement(cluster_level=True),
        ]
    prepared: List[Tuple[PlacementPolicy, int, int, bool]] = []
    specs: List[RunSpec] = []
    for policy in policies:
        rng = RandomStreams(seed).get("fattree-arrivals")
        topology = Topology.fat_tree(
            FAT_TREE_K, host_capacity=EFFECTIVE_BOTTLENECK
        )
        cluster = ClusterState(
            topology, gpus_per_host=2, router=Router(topology)
        )
        placements: List[Tuple[JobSpec, List[str]]] = []
        for index in range(n_jobs):
            workers = int(rng.choice([4, 6, 8]))
            if index % 2 == 0:
                spec = type_a_job(f"A{index}", workers)
            else:
                spec = type_b_job(f"B{index}", workers)
            try:
                hosts = policy.place(cluster, spec, workers)
            except Exception:
                continue  # all policies see the same arrival sequence
            cluster.place(spec, hosts)
            placements.append((spec, list(hosts)))
        specs.append(
            RunSpec(
                backend="cluster",
                label=f"fattree-{policy.name}",
                seed=seed,
                policy=AdaptiveUnfair(),
                topology=topology,
                n_iterations=n_iterations,
                capacity=EFFECTIVE_BOTTLENECK,
                options=(
                    (
                        "placements",
                        tuple(
                            (spec, tuple(hosts))
                            for spec, hosts in placements
                        ),
                    ),
                    ("gpus_per_host", 2),
                ),
            )
        )
        prepared.append((
            policy,
            len(placements),
            _mixed_links(cluster),
            _cluster_audit(cluster),
        ))
    results = run_many(specs)
    outcomes: List[FabricOutcome] = []
    for (policy, placed, mixed, clean), run_result in zip(
        prepared, results
    ):
        slowdown = {
            job_id: float(value)
            for job_id, value in run_result.data["slowdown"].items()
        }
        outcomes.append(
            FabricOutcome(
                policy_name=policy.name,
                placed=placed,
                mixed_links=mixed,
                cluster_compatible=clean,
                mean_slowdown=(
                    sum(slowdown.values()) / len(slowdown)
                    if slowdown else float("nan")
                ),
                max_slowdown=(
                    max(slowdown.values()) if slowdown else float("nan")
                ),
            )
        )
    return outcomes


@dataclass
class RotationOutcome:
    """Mean iteration time per phase alignment on the fabric."""

    scenario: str
    mean_iteration_ms: float
    worst_queue_kib: float


def rotation_spec(
    duration: float = 0.05,
    compute_time: float = 0.0016,
    comm_seconds: float = 0.0007,
    seed: int = 0,
) -> RunSpec:
    """Aligned vs staggered communication on converging fabric routes.

    One fluid-backend spec, two scenarios: ``aligned`` starts all three
    jobs together (their comm phases collide on the shared pod-1
    downlinks every iteration), ``staggered`` offsets them by a third of
    the solo period each — the compatible rotation. The default comm
    fraction (~30%) keeps three jobs *compatible*: a third-of-period
    stagger removes the overlap entirely, which is the whole effect.
    """
    capacity = gbps(50)
    period = compute_time + comm_seconds

    def senders(staggered: bool) -> Tuple[SenderSpec, ...]:
        return tuple(
            SenderSpec(
                name=name,
                timer=DEFAULT_TIMER,
                compute_time=compute_time,
                comm_bytes=comm_seconds * capacity,
                start_offset=(
                    index * period / len(ROTATION_ROUTES)
                    if staggered else 0.0
                ),
                stream=f"dcqcn:{name}:{'rot' if staggered else 'ali'}",
                route=ROTATION_ROUTES[name],
            )
            for index, name in enumerate(sorted(ROTATION_ROUTES))
        )

    return RunSpec(
        backend="fluid",
        label="fattree-rotation",
        seed=seed,
        capacity=capacity,
        topology=Topology.fat_tree(FAT_TREE_K, host_capacity=capacity),
        duration=duration,
        scenarios=(
            ScenarioSpec(name="aligned", senders=senders(False)),
            ScenarioSpec(name="staggered", senders=senders(True)),
        ),
        options=(("dt", 10e-6),),
    )


def run_rotation(seed: int = 0) -> List[RotationOutcome]:
    """Run the rotation demo and summarize both alignments."""
    [result] = run_many([rotation_spec(seed=seed)])
    outcomes: List[RotationOutcome] = []
    for name in ("aligned", "staggered"):
        scenario = result.scenario(name)
        times: List[float] = []
        for job in sorted(ROTATION_ROUTES):
            times.extend(
                scenario.iteration_times(job, skip=1).tolist()
            )
        worst = max(
            float(series.values.max())
            for series in scenario.trace.link_queue_series.values()
        )
        outcomes.append(
            RotationOutcome(
                scenario=name,
                mean_iteration_ms=1e3 * sum(times) / len(times),
                worst_queue_kib=worst / 1024.0,
            )
        )
    return outcomes


def report(
    placement: Sequence[FabricOutcome],
    rotation: Sequence[RotationOutcome],
) -> str:
    """Render both fat-tree comparisons."""
    placement_table = ascii_table(
        ["placement policy", "jobs placed", "A/B-mixed links",
         "cluster audit", "mean slowdown", "max slowdown"],
        [
            (
                outcome.policy_name,
                str(outcome.placed),
                str(outcome.mixed_links),
                "pass" if outcome.cluster_compatible else "FAIL",
                f"{outcome.mean_slowdown:.3f}",
                f"{outcome.max_slowdown:.3f}",
            )
            for outcome in placement
        ],
        title=(
            f"fat-tree (k={FAT_TREE_K}) placement — "
            "cluster-level compatibility vs locality"
        ),
    )
    rotation_table = ascii_table(
        ["phase alignment", "mean iteration (ms)", "worst queue (KiB)"],
        [
            (
                outcome.scenario,
                f"{outcome.mean_iteration_ms:.3f}",
                f"{outcome.worst_queue_kib:.1f}",
            )
            for outcome in rotation
        ],
        title="fat-tree rotation — aligned vs staggered comm phases",
    )
    return placement_table + "\n\n" + rotation_table


def main() -> None:
    """Print the fat-tree fabric comparisons."""
    with current().span("experiment.fattree"):
        print(report(run_placement(), run_rotation()))


if __name__ == "__main__":
    main()
