"""Open-loop soak harness: drive the serving hot path through saturation.

``python -m repro soak`` ramps an *open-loop* arrival process (seeded
Poisson, per-step rates) over the PR-6 sessions flow — search → get →
attach → touch → detach → release — under an armed :class:`FaultPlan`,
and runs the whole ramp twice: once with overload protection armed
(:func:`repro.xemem.overload.arm_overload`) and once bare. The two runs
land in one ``BENCH_serving.json`` so the graceful-degradation claim is
checkable in a single artifact: past saturation the protected run keeps
goodput near its peak by rejecting the excess cheaply, while the
baseline's unbounded queues push latency past the request deadline and
its retry storm collapses goodput.

Open-loop is the point: a closed-loop driver slows down with the server
and can never push it past saturation; arrivals here keep coming at the
offered rate no matter how the server is doing, exactly like ingress
traffic at a serving stack.

Determinism: arrivals, think-free flows, fault injection, and every
retry-after hint draw from seeded streams consumed in virtual-clock
order — the report and the emitted JSON are byte-identical across
reruns at the same seed and across the fast/detailed fidelity twins.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.faults import reporting
from repro.faults.inject import arm
from repro.faults.plan import FaultPlan
from repro.hw.costs import PAGE_4K
from repro.obs.metrics import Histogram
from repro.obs.tracer import write_text
from repro.workloads.sessions import ATTACH_BOUNDS
from repro.xemem import (
    XememError, XememOverload, XememTimeout, XpmemApi,
)
from repro.xemem.overload import (
    OverloadConfig, admission_totals, arm_overload,
)

#: Offered-load ramp, per virtual millisecond. True flow capacity of the
#: default 2-cokernel rig is ~120-150 flows/ms, so the ramp crosses
#: saturation around the middle and ends ~16x past it.
DEFAULT_RATES_PER_MS = (40, 80, 160, 320, 640, 1280, 2560)

#: The soak's chaos floor: lossy channels + a request deadline, so the
#: baseline's queue delay actually turns into timeouts and retries (an
#: empty plan would let baseline requests park forever and hide the
#: collapse). No scheduled crashes — overload, not failure, is on trial.
DEFAULT_PLAN_SPEC = "drop=0.02,dup=0.01,delay=0.03:20us,timeout=300us,retries=3"

#: Default protection: CoDel shedding on queue delay, two serve slots,
#: and a short queue — a waiter that would sit behind more than ~8
#: forwards is already deadline-dead, so parking it only manufactures
#: orphaned work; rejecting it early is what preserves goodput.
DEFAULT_OVERLOAD_SPEC = (
    "policy=codel,workers=2,qcap=8,codeltarget=40us,codelint=80us,"
    "retryafter=80us,jitter=20us,budget=32,budgetwin=500us,"
    "breaker=8,open=200us"
)

#: Span ring cap for the soak black box (same bound as chaos).
FLIGHTREC_TRACE_CAP = 512


@dataclass
class SoakConfig:
    """Shape of one soak run (all virtual-time deterministic)."""

    seed: int = 0
    cokernels: int = 2          #: exporting co-kernels (one segment each)
    pages: int = 4              #: pages per exported segment
    client_procs: int = 6       #: Linux client processes flows rotate over
    step_ns: int = 300_000      #: virtual duration of each load step
    rates_per_ms: Tuple[int, ...] = DEFAULT_RATES_PER_MS
    plan_spec: str = DEFAULT_PLAN_SPEC
    overload_spec: str = DEFAULT_OVERLOAD_SPEC
    #: discovery scraper period (a kitten-side ``xpmem_list`` loop — the
    #: traffic the degradation ladder sheds first)
    scrape_period_ns: int = 50_000
    # -- SLOs on the *protected* run ----------------------------------
    #: p99 attach latency bound at the final (past-saturation) step; an
    #: admitted attach may ride 1-2 paced retries, so the bound sits at
    #: ~1.5x the request deadline, not at the unloaded latency
    slo_p99_attach_ns: int = 500_000
    #: final-step goodput must stay within this fraction of peak
    slo_goodput_retention: float = 0.8


@dataclass
class StepStats:
    """One step window: ``offered`` counts flows that *arrived* during
    it; every other field counts flows that *settled* (and attaches that
    completed) inside its window, whatever their arrival cohort. Flows
    routinely outlive the step they arrived in once the ramp passes
    saturation, so settle-time attribution is what keeps per-step
    goodput an honest throughput reading — a cohort reading would credit
    the final step with completions that actually happened during the
    post-ramp drain."""

    rate_per_ms: int
    offered: int = 0
    ok: int = 0
    rejected: int = 0    # admission reject / breaker open / budget out
    shed: int = 0        # CoDel or ladder shed
    abandoned: int = 0   # request deadline + retries exhausted
    errors: int = 0
    goodput_per_ms: float = 0.0
    attach_p50_ns: float = 0.0
    attach_p95_ns: float = 0.0
    attach_p99_ns: float = 0.0

    @property
    def settled(self) -> int:
        return (self.ok + self.rejected + self.shed + self.abandoned
                + self.errors)

    def line(self, idx: int) -> str:
        return (
            f"  step {idx}: rate={self.rate_per_ms}/ms offered={self.offered} "
            f"ok={self.ok} rejected={self.rejected} shed={self.shed} "
            f"abandoned={self.abandoned} errors={self.errors} "
            f"goodput={self.goodput_per_ms:.1f}/ms "
            f"p99={self.attach_p99_ns / 1e3:.1f}us"
        )


@dataclass
class SoakReport:
    """One mode's full ramp; derived from sim state only, so a (config,
    mode) pair reproduces it byte-for-byte."""

    config: SoakConfig
    mode: str                  # "protected" | "baseline"
    end_ns: int = 0
    drained: bool = False
    exported: int = 0
    steps: List[StepStats] = field(default_factory=list)
    #: flows that settled after the last step ended (the ramp's wake)
    drain: StepStats = field(
        default_factory=lambda: StepStats(rate_per_ms=0)
    )
    scrape_ok: int = 0
    scrape_shed: int = 0
    scrape_errors: int = 0
    admission: Dict[str, int] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    saturation_step: int = 0
    peak_goodput_per_ms: float = 0.0
    final_goodput_per_ms: float = 0.0
    final_retention: float = 0.0
    final_p99_attach_ns: float = 0.0
    pre_saturation_step: int = 0
    pre_saturation_p99_ns: float = 0.0

    @property
    def offered_total(self) -> int:
        return sum(s.offered for s in self.steps)

    @property
    def ok_total(self) -> int:
        return sum(s.ok for s in self.steps) + self.drain.ok

    def outcome_counts(self) -> Dict[str, int]:
        buckets = list(self.steps) + [self.drain]
        return {
            "ok": sum(s.ok for s in buckets),
            "rejected": sum(s.rejected for s in buckets),
            "shed": sum(s.shed for s in buckets),
            "abandoned": sum(s.abandoned for s in buckets),
            "error": sum(s.errors for s in buckets),
        }

    def lines(self) -> List[str]:
        cfg = self.config
        out = [
            f"soak [{self.mode}] seed={cfg.seed} cokernels={cfg.cokernels} "
            f"pages={cfg.pages} step={cfg.step_ns}ns "
            f"rates={','.join(str(r) for r in cfg.rates_per_ms)}/ms",
            f"  end: {self.end_ns} ns  drained={self.drained}",
            reporting.ops_line(self.outcome_counts(), label="flows"),
        ]
        out.extend(s.line(i) for i, s in enumerate(self.steps))
        if self.drain.settled:
            out.append(
                f"  drain: ok={self.drain.ok} rejected={self.drain.rejected} "
                f"shed={self.drain.shed} abandoned={self.drain.abandoned} "
                f"errors={self.drain.errors}"
            )
        out.append(
            f"  saturation: step {self.saturation_step} "
            f"(peak {self.peak_goodput_per_ms:.1f}/ms); final step: "
            f"{self.final_goodput_per_ms:.1f}/ms "
            f"({self.final_retention * 100:.0f}% of peak), "
            f"p99={self.final_p99_attach_ns / 1e3:.1f}us"
        )
        if self.scrape_ok or self.scrape_shed or self.scrape_errors:
            out.append(
                f"  discovery scraper: {self.scrape_ok} ok, "
                f"{self.scrape_shed} shed, {self.scrape_errors} error"
            )
        out.extend(reporting.admission_lines(self.admission))
        out.extend(reporting.fault_lines(self.fault_counts))
        return out

    def verdicts(self) -> Dict[str, dict]:
        """SLO verdicts — meaningful on the protected run; the baseline
        is *expected* to fail them (that is the experiment)."""
        cfg = self.config
        return {
            "soak.goodput.retention": {
                "ok": self.final_retention >= cfg.slo_goodput_retention,
                "detail": (
                    f"final {self.final_goodput_per_ms:.1f}/ms is "
                    f"{self.final_retention * 100:.0f}% of peak "
                    f"{self.peak_goodput_per_ms:.1f}/ms "
                    f"(floor {cfg.slo_goodput_retention * 100:.0f}%)"
                ),
            },
            "soak.attach.p99": {
                "ok": self.final_p99_attach_ns <= cfg.slo_p99_attach_ns,
                "detail": (
                    f"final-step p99 {self.final_p99_attach_ns / 1e3:.1f}us "
                    f"vs bound {cfg.slo_p99_attach_ns / 1e3:.1f}us"
                ),
            },
        }

    @property
    def slo_ok(self) -> bool:
        return all(v["ok"] for v in self.verdicts().values())


def run_soak(config: Optional[SoakConfig] = None, protected: bool = True,
             **overrides) -> SoakReport:
    """Run one ramp (one rig, one engine); returns a :class:`SoakReport`.

    ``protected=False`` runs the no-protection baseline: same seed, same
    fault plan, same arrivals — only :func:`arm_overload` is skipped.
    """
    from repro.bench.configs import build_cokernel_system

    cfg = config if config is not None else SoakConfig(**overrides)
    mode = "protected" if protected else "baseline"
    report = SoakReport(config=cfg, mode=mode)
    plan = FaultPlan.parse(cfg.plan_spec, seed=cfg.seed)
    rig = build_cokernel_system(num_cokernels=cfg.cokernels, seed=cfg.seed)
    if protected:
        arm_overload(rig, OverloadConfig.parse(cfg.overload_spec,
                                               seed=cfg.seed))

    eng = rig.engine
    linux_kernel = rig.linux.kernel
    steps = [StepStats(rate_per_ms=rate) for rate in cfg.rates_per_ms]
    attach_hists = [
        Histogram(f"soak.attach.step{i}", ATTACH_BOUNDS)
        for i in range(len(steps) + 1)  # +1: the drain bucket
    ]
    scrape = {"ok": 0, "shed": 0, "error": 0}
    stop = {"flag": False}
    ramp = {"start": 0}

    def bucket_index() -> int:
        """Settle-time attribution: which step window is *now* in
        (``len(steps)`` once the ramp has ended — the drain bucket)."""
        idx = (eng.now - ramp["start"]) // cfg.step_ns
        return min(idx, len(steps))

    def settle_stats() -> StepStats:
        idx = bucket_index()
        return report.drain if idx == len(steps) else steps[idx]

    def count_overload(err: XememOverload) -> None:
        step = settle_stats()
        if err.verdict == "shed":
            step.shed += 1
        else:
            step.rejected += 1

    def rollback(api: XpmemApi, att, apid):
        """Best-effort detach/release so failed flows never pin grants
        (release-class traffic always admits, so this converges even
        under full overload — the anti-livelock property)."""
        try:
            if att is not None and not att.detached:
                yield from api.xpmem_detach(att)
            if apid is not None:
                yield from api.xpmem_release(apid)
        except (XememTimeout, XememError):
            pass

    def flow(api: XpmemApi, name: str):
        apid = None
        att = None
        try:
            segid = yield from api.xpmem_search(name)
            if segid is None:
                settle_stats().errors += 1
                return
            apid = yield from api.xpmem_get(segid)
            t0 = eng.now
            att = yield from api.xpmem_attach(apid, 0, cfg.pages * PAGE_4K)
            attach_hists[bucket_index()].observe(eng.now - t0)
            if not att.detached:
                att.read(0, 8)
            yield from api.xpmem_detach(att)
            att = None
            yield from api.xpmem_release(apid)
            settle_stats().ok += 1
        except XememOverload as err:
            count_overload(err)
            yield from rollback(api, att, apid)
        except XememTimeout:
            settle_stats().abandoned += 1
            yield from rollback(api, att, apid)
        except XememError:
            settle_stats().errors += 1
            yield from rollback(api, att, apid)

    def scraper(api: XpmemApi):
        """Discovery load: the traffic the ladder sheds first."""
        while not stop["flag"]:
            try:
                yield from api.xpmem_list("soak/")
                scrape["ok"] += 1
            except XememOverload:
                scrape["shed"] += 1
            except (XememTimeout, XememError):
                scrape["error"] += 1
            yield eng.sleep(cfg.scrape_period_ns)

    def scenario():
        # Export phase (pre-ramp, fault plan already armed).
        names = []
        for enclave in rig.cokernels:
            kernel = enclave.kernel
            if cfg.pages > kernel.heap_pages:
                kernel.heap_pages = cfg.pages
            proc = kernel.create_process(f"svc-{enclave.name}")
            heap = kernel.heap_region(proc)
            api = XpmemApi(proc)
            name = f"soak/{enclave.name}"
            try:
                yield from api.xpmem_make(
                    heap.start, cfg.pages * PAGE_4K, name=name
                )
            except (XememTimeout, XememError):
                continue
            names.append(name)
            report.exported += 1
        if not names:
            return
        # Client pool: flows rotate over a fixed set of processes.
        pool = []
        for i in range(cfg.client_procs):
            proc = linux_kernel.create_process(
                f"soak-{i}", core_id=1 + i % 4
            )
            pool.append(XpmemApi(proc))
        # Discovery scraper on the first co-kernel (remote from the NS,
        # so its list_names rides the protocol and can be shed).
        scraper_proc = rig.cokernels[0].kernel.create_process("scraper")
        eng.spawn(scraper(XpmemApi(scraper_proc)), name="scraper")
        # The ramp: seeded-Poisson open-loop arrivals, per-step rates.
        arrival_rng = random.Random(f"soak-arrivals:{cfg.seed}")
        flows = []
        flow_id = 0
        ramp["start"] = eng.now
        for idx, rate in enumerate(cfg.rates_per_ms):
            step = steps[idx]
            step_end = ramp["start"] + (idx + 1) * cfg.step_ns
            mean_gap_ns = 1e6 / rate
            while True:
                gap = max(1, int(arrival_rng.expovariate(1.0 / mean_gap_ns)))
                if eng.now + gap >= step_end:
                    remaining = step_end - eng.now
                    if remaining > 0:
                        yield eng.sleep(remaining)
                    break
                yield eng.sleep(gap)
                step.offered += 1
                api = pool[flow_id % len(pool)]
                name = names[flow_id % len(names)]
                flows.append(eng.spawn(
                    flow(api, name), name=f"flow:{flow_id}"
                ))
                flow_id += 1
        stop["flag"] = True
        if flows:
            yield eng.all_of(flows)

    injector = arm(rig, plan)
    eng.run_process(scenario(), name="soak")
    eng.run()  # drain stragglers (late responses, retransmit timers)

    report.end_ns = eng.now
    report.drained = eng.queue_len == 0
    report.scrape_ok = scrape["ok"]
    report.scrape_shed = scrape["shed"]
    report.scrape_errors = scrape["error"]
    report.admission = admission_totals(rig)
    report.fault_counts = dict(injector.counts)
    for step, hist in zip(steps, attach_hists):
        step.goodput_per_ms = step.ok * 1e6 / cfg.step_ns
        step.attach_p50_ns = hist.quantile(0.50)
        step.attach_p95_ns = hist.quantile(0.95)
        step.attach_p99_ns = hist.quantile(0.99)
    report.steps = steps
    goodputs = [s.goodput_per_ms for s in steps]
    peak = max(goodputs) if goodputs else 0.0
    report.peak_goodput_per_ms = peak
    report.saturation_step = goodputs.index(peak) if goodputs else 0
    if steps:
        report.final_goodput_per_ms = steps[-1].goodput_per_ms
        report.final_p99_attach_ns = steps[-1].attach_p99_ns
        report.final_retention = (
            report.final_goodput_per_ms / peak if peak else 0.0
        )
        report.pre_saturation_step = max(report.saturation_step - 1, 0)
        report.pre_saturation_p99_ns = (
            steps[report.pre_saturation_step].attach_p99_ns
        )
    return report


# -- the protected/baseline pair and its artifact ---------------------------


def bench_doc(protected: SoakReport, baseline: SoakReport) -> Dict[str, object]:
    """The flat ``BENCH_serving.json`` dict.

    Every value is virtual-time, so the seed-0 artifact is gated by
    equality: it must match ``benchmarks/baselines/BENCH_serving.json``
    byte for byte."""
    cfg = protected.config
    doc: Dict[str, object] = {
        "benchmark": "soak-serving",
        "seed": cfg.seed,
        "cokernels": cfg.cokernels,
        "pages": cfg.pages,
        "step_ns_config": cfg.step_ns,
        "rates_per_ms_spec": ",".join(str(r) for r in cfg.rates_per_ms),
        "plan": cfg.plan_spec,
        "overload": cfg.overload_spec,
        "saturation_step": protected.saturation_step,
        "pre_saturation_p99_attach_latency_ns": round(
            protected.pre_saturation_p99_ns, 3),
        "protected_peak_goodput_rate": round(
            protected.peak_goodput_per_ms, 3),
        "protected_final_goodput_rate": round(
            protected.final_goodput_per_ms, 3),
        "protected_retention_rate": round(protected.final_retention, 4),
        "protected_slo_ok": protected.slo_ok,
        "baseline_peak_goodput_rate": round(baseline.peak_goodput_per_ms, 3),
        "baseline_final_goodput_rate": round(
            baseline.final_goodput_per_ms, 3),
        "baseline_retention": round(baseline.final_retention, 4),
    }
    for mode, report in (("protected", protected), ("baseline", baseline)):
        for i, step in enumerate(report.steps):
            prefix = f"{mode}_step{i}"
            doc[f"{prefix}_offered"] = step.offered
            doc[f"{prefix}_ok"] = step.ok
            doc[f"{prefix}_rejected"] = step.rejected
            doc[f"{prefix}_shed"] = step.shed
            doc[f"{prefix}_abandoned"] = step.abandoned
            doc[f"{prefix}_goodput_rate"] = round(step.goodput_per_ms, 3)
            doc[f"{prefix}_p50_attach_latency_ns"] = round(
                step.attach_p50_ns, 3)
            doc[f"{prefix}_p95_attach_latency_ns"] = round(
                step.attach_p95_ns, 3)
            doc[f"{prefix}_p99_attach_latency_ns"] = round(
                step.attach_p99_ns, 3)
    for key in sorted(protected.admission):
        doc[f"admission_{key}"] = protected.admission[key]
    return doc


def run_soak_pair(config: Optional[SoakConfig] = None,
                  **overrides) -> Tuple[SoakReport, SoakReport]:
    """Run the protected ramp and the no-protection baseline (same seed,
    same plan, same arrivals)."""
    cfg = config if config is not None else SoakConfig(**overrides)
    protected = run_soak(cfg, protected=True)
    baseline = run_soak(cfg, protected=False)
    return protected, baseline


# -- CLI --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro soak",
        description=(
            "Ramp open-loop load over the serving hot path through "
            "saturation, protected and baseline, under an armed fault "
            "plan; emit BENCH_serving.json and SLO verdicts."
        ),
    )
    p.add_argument("--seed", type=int, default=0,
                   help="arrival/fault/overload RNG seed (default 0)")
    p.add_argument("--cokernels", type=int, default=2,
                   help="exporting co-kernels (default 2)")
    p.add_argument("--pages", type=int, default=4,
                   help="pages per exported segment (default 4)")
    p.add_argument("--step-ns", type=int, default=300_000,
                   help="virtual duration of each load step (default 300000)")
    p.add_argument("--rates", default=None, metavar="R1,R2,...",
                   help="arrival rates per virtual ms "
                        f"(default {','.join(str(r) for r in DEFAULT_RATES_PER_MS)})")
    p.add_argument("--plan", default=DEFAULT_PLAN_SPEC, metavar="SPEC",
                   help="fault plan armed for both modes (docs/FAULTS.md)")
    p.add_argument("--overload", default=DEFAULT_OVERLOAD_SPEC, metavar="SPEC",
                   help="overload config for the protected mode "
                        "(docs/OVERLOAD.md)")
    p.add_argument("--slo-p99-ns", type=int, default=None, metavar="NS",
                   help="override the final-step p99 attach latency bound")
    p.add_argument("--slo-retention", type=float, default=None, metavar="F",
                   help="override the goodput retention floor (fraction)")
    p.add_argument("--out", metavar="PATH",
                   help="write the flat BENCH_serving.json here")
    p.add_argument("--bundle-dir", metavar="DIR",
                   help="flight-recorder incident bundle on SLO breach")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rates = (
        tuple(int(r) for r in args.rates.split(","))
        if args.rates else DEFAULT_RATES_PER_MS
    )
    cfg = SoakConfig(
        seed=args.seed, cokernels=args.cokernels, pages=args.pages,
        step_ns=args.step_ns, rates_per_ms=rates,
        plan_spec=args.plan, overload_spec=args.overload,
    )
    if args.slo_p99_ns is not None:
        cfg.slo_p99_attach_ns = args.slo_p99_ns
    if args.slo_retention is not None:
        cfg.slo_goodput_retention = args.slo_retention
    # One observability scope per mode would split the black box; the
    # soak flies both ramps under a single scope so breadcrumbs from the
    # protected run land in the breach bundle.
    with obs.observing(trace=True, metrics=True,
                       max_trace_events=FLIGHTREC_TRACE_CAP,
                       flightrec=True) as ctx:
        protected, baseline = run_soak_pair(cfg)
    verdicts = protected.verdicts()
    breached = [n for n in sorted(verdicts) if not verdicts[n]["ok"]]

    for report in (protected, baseline):
        print("\n".join(report.lines()))
        print()
    print("SLOs (protected):")
    print("\n".join(reporting.slo_lines(verdicts)))

    if args.out:
        doc = bench_doc(protected, baseline)
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        write_text(args.out, text)
        print(f"\n[BENCH_serving.json: {len(text)} bytes -> {args.out}]")

    if breached:
        if args.bundle_dir:
            recorder = ctx.flightrec
            for name in breached:
                recorder.note("slo.violation", protected.end_ns, slo=name,
                              detail=verdicts[name]["detail"])
            recorder.trigger("slo.violation", protected.end_ns,
                             slo=breached[0],
                             detail=verdicts[breached[0]]["detail"])
            bundle_path = recorder.dump(
                os.path.join(args.bundle_dir, "incident-slo"),
                {"command": "soak", "seed": cfg.seed, "plan": cfg.plan_spec,
                 "overload": cfg.overload_spec, "breached": breached},
            )
            print("\n".join(reporting.bundle_line(bundle_path)))
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
