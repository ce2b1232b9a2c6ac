#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sg-tree --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from ``--seed``, warms the code paths
up on a tiny EDB, then runs whole rounds: as many as ``--seconds`` holds at
the workload's nominal round length, and at least two (three when
tracing).
A round is: from-scratch batch evaluations of the full EDB, set-up of a
resident ``ServingEngine`` over the base EDB, insert epochs with a
consistent read after each, then (where the workload has them) retract
epochs, a crash and a recovery.  Every result is checked against the
independent oracles in ``oracles.py``; an operation that raises counts as
failed.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` rounds alternate untraced and traced, the
line carries the per-layer metrics with the tracing overhead, and the
last traced round's spans are written to ``perfbench/out/`` as a Chrome
trace.  The exit code is 0 only when every output was correct and no
operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIB = float(1 << 20)

def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric names and units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    )

#: the worker's coalescing window while a batch is left pending for the crash
CRASH_WINDOW_S = 3600.0


def import_engine():
    """Import ``repro`` from this checkout's ``src/``, and only from there."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no engine sources at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not from {SRC}")


class OperationFailed(Exception):
    """An engine call the benchmark timed raised an exception."""


class Session:
    """Runs rounds of one workload plan and records every measurement."""

    def __init__(self, plan, workdir: str) -> None:
        self.plan = plan
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.perturbation_shown = False

    def timed(self, name: str, operation):
        """``operation()`` and its host seconds, after a full collection."""
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = operation()
        except Exception as error:
            self.failed += 1
            raise OperationFailed(f"{name}: {error!r}") from error
        return value, time.perf_counter() - start

    def check(self, phase: str, relations: dict) -> None:
        """Check one phase's answer; the first check also perturbs it."""
        import numpy as np

        import oracles

        relations = {name: oracles.as_pairs(np.asarray(rows)) for name, rows in relations.items()}
        check = self.plan.checks[phase]
        if not self.perturbation_shown:
            first = self.plan.outputs[0]
            oracles.perturbation_rejected(
                lambda rows: check({**relations, first: rows}), relations[first]
            )
            self.perturbation_shown = True
        check(relations)

    # ------------------------------------------------------------------
    def warm_up(self) -> None:
        """Run every code path once on a tiny EDB so timing starts warm."""
        from repro.datalog.engine import GPULogEngine
        from repro.serving import ServingEngine

        plan = self.plan
        engine = GPULogEngine(device="h100", num_shards=plan.shards, fault_plan="none")
        try:
            for name, rows in plan.warmup.items():
                engine.add_fact_array(name, rows)
            engine.run(plan.source, name=plan.name)
        finally:
            engine.close()
        first, first_rows = next(iter(plan.warmup.items()))
        with ServingEngine(
            plan.source,
            {name: rows[1:] for name, rows in plan.warmup.items()},
            num_shards=plan.shards,
            fault_plan="none",
            name=plan.name,
            **self._protection(os.path.join(self.workdir, "warmup")),
        ) as serving:
            serving.submit(inserts={first: first_rows[:1]}).result()
            serving.query_many(list(plan.outputs))

    def _protection(self, directory: str) -> dict:
        if not self.plan.protected:
            return {}
        from repro.relational import DiskCheckpointStore
        from repro.serving import DiskWal

        return {
            "wal": DiskWal(os.path.join(directory, "wal.jsonl")),
            "checkpoint_store": DiskCheckpointStore(os.path.join(directory, "checkpoints")),
        }

    # ------------------------------------------------------------------
    def run_round(self, index: int) -> dict:
        """One round; returns its samples and per-round counters."""
        from repro.serving import ServingEngine
        from repro.serving.cache import ProgramCache

        plan = self.plan
        samples: dict[str, list[float]] = defaultdict(list)
        counters: dict[str, float] = defaultdict(float)

        def account(devices) -> None:
            for device in devices:
                for phase, summary in device.profiler.phase_summaries().items():
                    counters[f"device.sim.{phase}_ms"] += summary.seconds * 1e3
                    counters["device.launches"] += summary.launches

        # The first batch evaluation opens the round and any others close
        # it, so that their samples fall far apart in time.
        self._batch(samples, counters, account)

        # --- set-up of the resident engine over the base EDB -----------
        round_dir = os.path.join(self.workdir, f"round-{index}")

        def setup():
            return ServingEngine(
                plan.source,
                plan.base,
                num_shards=plan.shards,
                fault_plan="none",
                name=plan.name,
                cache=ProgramCache(),
                **self._protection(round_dir),
            )

        serving, seconds = self.timed("setup", setup)
        samples["setup_s"].append(seconds)
        samples["resident_device_mib"].append(self._device_mib(serving))
        try:
            self.check("bootstrap", self._read(serving))
            epochs = []
            for kind, batches, phase in (
                ("insert", plan.round_inserts(index), "inserted"),
                ("retract", plan.retracts, "retracted"),
            ):
                if not batches:
                    continue
                for batch in batches:
                    mutation = {f"{kind}s": batch}
                    epoch, seconds = self.timed(
                        kind, lambda: serving.submit(**mutation).result()
                    )
                    samples[f"{kind}_ms"].append(seconds * 1e3)
                    samples[f"{kind}_sim_ms"].append(epoch.simulated_seconds * 1e3)
                    epochs.append((kind, seconds, epoch))
                    cut, seconds = self.timed("query", lambda: self._read(serving))
                    if set(plan.outputs) <= set(epoch.changed_relations):
                        # Only a read whose every relation changed is timed:
                        # an unchanged relation is served from the snapshot
                        # cache, and a mix of the two is not one operation.
                        samples["query_ms"].append(seconds * 1e3)
                self.check(phase, cut)
            counters["serving.session_peak_mib"] = self._device_mib(serving)
            account(serving.devices)
            self._count_epochs(epochs, counters, samples)
            if plan.crash_batch is not None:
                counters["serving.wal_fsyncs"] += serving.wal.syncs
                # A long coalescing window keeps the worker from taking the
                # batch: it stays acknowledged (logged) but uncommitted.
                serving.coalesce_window = CRASH_WINDOW_S
                serving.submit(inserts=plan.crash_batch)
                serving.crash()
                self._recover(round_dir, samples, counters, account)
        finally:
            serving.close()
        for _ in range(plan.batch_runs - 1):
            self._batch(samples, counters, account)
        return {"samples": samples, "counters": counters}

    def _batch(self, samples, counters, account) -> None:
        """One from-scratch evaluation of the full EDB, relations decoded."""
        from repro.datalog.engine import GPULogEngine

        plan = self.plan
        engines = []

        def batch():
            # Engine construction is timed: a stateless deployment pays it
            # on every evaluation.
            engine = GPULogEngine(device="h100", num_shards=plan.shards, fault_plan="none")
            engines.append(engine)
            for name, rows in plan.full.items():
                engine.add_fact_array(name, rows)
            result = engine.run(plan.source, name=plan.name)
            return result, {name: result.relation(name) for name in plan.outputs}

        try:
            (result, relations), seconds = self.timed("batch", batch)
            samples["batch_s"].append(seconds)
            samples["batch_sim_ms"].append(result.elapsed_seconds * 1e3)
            samples["batch_device_mib"].append(result.peak_memory_bytes / MIB)
            counters["relational.exchange_bytes"] += result.exchange_bytes
            counters["relational.exchange_tuples"] += result.exchange_tuples
            counters["relational.semijoin_rows_dropped"] += result.semijoin_rows_dropped
            account(engines[0].devices)
        finally:
            for engine in engines:
                engine.close()
        self.check("inserted", relations)

    def _recover(self, round_dir, samples, counters, account) -> None:
        from repro.relational import DiskCheckpointStore
        from repro.serving import DiskWal, ServingEngine
        from repro.serving.cache import ProgramCache

        def recover():
            return ServingEngine.recover(
                DiskCheckpointStore(os.path.join(round_dir, "checkpoints")),
                DiskWal(os.path.join(round_dir, "wal.jsonl")),
                fault_plan="none",
                cache=ProgramCache(),
            )

        recovered, seconds = self.timed("recover", recover)
        samples["recover_s"].append(seconds)
        try:
            self.check("recovered", self._read(recovered))
            account(recovered.devices)
            counters["serving.wal_fsyncs"] += recovered.wal.syncs
        finally:
            recovered.close()

    @staticmethod
    def _device_mib(serving) -> float:
        """Peak device memory so far, summed over the engine's shard devices."""
        return sum(device.peak_memory_bytes for device in serving.devices) / MIB

    def _read(self, serving) -> dict:
        """One consistent cut of every output relation, rows in hand."""
        cut = serving.query_many(list(self.plan.outputs))
        return {name: snapshot.rows for name, snapshot in cut.items()}

    @staticmethod
    def _count_epochs(epochs, counters, samples) -> None:
        for kind, seconds, epoch in epochs:
            counters["serving.epoch_s"] += epoch.host_seconds
            samples["serving.queue_wait_ms"].append((seconds - epoch.host_seconds) * 1e3)
            if kind == "retract":
                counters["serving.retracted_rows"] += sum(epoch.retracted.values())
                counters["serving.rederived_rows"] += sum(epoch.rederived.values())


# ----------------------------------------------------------------------
# Aggregation and reporting
# ----------------------------------------------------------------------
def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(rounds: list[dict], names) -> dict[str, float]:
    """Medians over every sample of every round, plus the process's peak RSS."""
    pooled: dict[str, list[float]] = defaultdict(list)
    for record in rounds:
        for name, values in record["samples"].items():
            pooled[name].extend(values)
    metrics = {name: _median(pooled[name]) for name in names if name != "peak_rss_mib"}
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def untraced_host_times(untraced: list[dict]) -> dict[str, float]:
    """The serving layer's epoch and recovery times over untraced rounds.

    They time whole operations, which the tracer's wrappers would slow.
    Per-epoch and per-recovery samples are pooled over the rounds;
    ``serving.epoch_s``, a per-round total, is the median round.
    """
    pooled: dict[str, list[float]] = defaultdict(list)
    for record in untraced:
        for name, values in record["samples"].items():
            pooled[name].extend(values)
    return {
        "serving.epoch_s": _median([record["counters"]["serving.epoch_s"] for record in untraced]),
        "serving.queue_wait_ms": _median(pooled["serving.queue_wait_ms"]),
        "serving.retract_ms": _median(pooled["retract_ms"]),
        "serving.retract_sim_ms": _median(pooled["retract_sim_ms"]),
        "serving.recover_s": _median(pooled["recover_s"]),
    }


def per_layer(traced: list[dict], untraced: list[dict], walls: dict[bool, list[float]],
              names) -> dict[str, float]:
    """Medians over the traced rounds of every span-derived metric and
    counter; the serving layer's host times come from ``untraced`` rounds."""
    per_round = []
    for record in traced:
        counters = record["counters"]
        values = dict.fromkeys(names, 0.0)
        values.update(record["spans"])
        values.update(counters)
        over_deleted = counters.get("serving.retracted_rows", 0.0)
        values["serving.rederive_share"] = (
            counters.get("serving.rederived_rows", 0.0) / over_deleted if over_deleted else 0.0
        )
        per_round.append(values)
    metrics = {name: _median([values[name] for values in per_round]) for name in names}
    metrics.update(untraced_host_times(untraced))
    untraced_wall = _median(walls[False])
    metrics["trace.overhead_s"] = _median(walls[True]) - untraced_wall
    metrics["trace.overhead_share"] = (
        metrics["trace.overhead_s"] / untraced_wall if untraced_wall else 0.0
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    # Whether the kernel grants transparent huge pages to NumPy's large
    # arrays depends on the host's memory fragmentation, not on the code:
    # with the hint, one CSPA batch evaluation took 4.8-7.2 s in a single
    # process; without it, 6.5-7.2 s.  Set before NumPy is first imported.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    end_to_end_units, per_layer_units = metric_units()
    import_engine()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    plan = workloads.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    session = Session(plan, workdir)
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    rounds: list[dict] = []
    traced_rounds: list[dict] = []
    # Untraced rounds after the first, which also warms up.
    untraced_rounds: list[dict] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    correct, failure = True, None
    try:
        session.warm_up()
        # Whole rounds only, and as many in every run of a workload: the
        # --seconds budget over the workload's nominal round length.
        count = max(3 if tracer else 2, math.ceil(args.seconds / plan.round_seconds))
        for index in range(count):
            # Traced runs go untraced, traced, untraced, ...; the first
            # round is left out of the overhead since it also warms up.
            traced = tracer is not None and index % 2 == 1
            if traced:
                # Keep only this round's spans; the file gets the last one.
                tracer.clear()
                tracer.enabled = True
            start = time.perf_counter()
            record = session.run_round(index)
            if index > 0 or not tracer:
                walls[traced].append(time.perf_counter() - start)
            print(f"round {index} {'traced' if traced else 'untraced'} "
                  f"{time.perf_counter() - start:.3f} s: " + ", ".join(
                      f"{name}=" + "/".join(f"{value:.4g}" for value in values)
                      for name, values in sorted(record["samples"].items())), flush=True)
            if traced:
                tracer.enabled = False
                record["spans"] = layers.span_metrics(tracer)
                traced_rounds.append(record)
            elif index > 0:
                untraced_rounds.append(record)
            rounds.append(record)
    except OperationFailed as error:
        failure = error
        traceback.print_exc()
    except Exception as error:  # an oracle mismatch or a broken invariant
        import oracles

        if not isinstance(error, (oracles.OracleMismatch, AssertionError)):
            raise
        correct = False
        traceback.print_exc()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None and traced_rounds:
        units = per_layer_units
        metrics = per_layer(traced_rounds, untraced_rounds, walls, units)
        path = os.path.join(OUT, f"trace-{plan.name}-seed{args.seed}.json")
        tracer.write_chrome(path)
        print(f"trace: {path}")
    else:
        units = end_to_end_units
        metrics = end_to_end(rounds, units) if rounds else {}
    print(f"{plan.name} seed={args.seed} rounds={len(rounds)} sizes={plan.sizes}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct and failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
