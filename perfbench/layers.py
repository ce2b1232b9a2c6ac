"""Which engine functions the traced run wraps, and what their spans give.

:func:`install` wraps the public functions that bound each layer of the
engine (``datalog``, ``relational``, ``device``, ``backend``, ``serving``)
with a :class:`tracer.Tracer`; :func:`span_metrics` turns one round's
spans into the span-derived per-layer metrics.  The names and units of
every metric are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

from tracer import Tracer


def _rows(value) -> int:
    return int(value.shape[0]) if hasattr(value, "shape") else len(value)


def _result_rows(args, kwargs, result, _probed) -> dict:
    return {"rows": _rows(result)}


def _dedup_rows(args, kwargs, result, _probed) -> dict:
    rows_in = args[1] if len(args) > 1 else kwargs["rows"]
    return {"rows_in": _rows(rows_in), "rows": _rows(result)}


def _merge_rows(args, kwargs, result, _probed) -> dict:
    return {"rows": int(args[1].tuple_count)}


def _host_rows(args, kwargs, result, _probed) -> dict:
    return {"rows": _rows(result), "bytes": int(result.nbytes)}


def _iterations(args, kwargs, result, _probed) -> dict:
    return {"iterations": int(result.total_iterations)}


def _delta_iterations(args, kwargs, result, _probed) -> dict:
    return {"iterations": int(result[0])}


def _checkpoint_bytes(args, kwargs, result, _probed) -> dict:
    # A save can prune the checkpoint it just wrote (see CHANGES.md), so
    # only the files still on disk are counted.
    paths = [os.path.join(args[0].directory, result + suffix) for suffix in (".json", ".npz")]
    return {"bytes": sum(os.path.getsize(path) for path in paths if os.path.exists(path))}


def _wal_size(args, kwargs) -> int:
    path = getattr(args[0], "path", None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _wal_bytes(args, kwargs, result, size_before) -> dict:
    return {"bytes": max(0, _wal_size(args, kwargs) - size_before)}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.backend.numpy_backend import NumpyBackend
    from repro.datalog.analysis import analyze_program
    from repro.datalog.ast import Program
    from repro.datalog.engine import GPULogEngine
    from repro.datalog.planner import plan_program
    from repro.datalog.seminaive import SemiNaiveEvaluator
    from repro.datalog.sharded import ShardedSemiNaiveEvaluator
    from repro.device.device import Device
    from repro.device.kernels import DeviceKernels
    from repro.relational.checkpoint import DiskCheckpointStore
    from repro.relational.hisa import HISA
    from repro.relational.operators import deduplicate, difference, fused_nway_join, hash_join
    from repro.relational.relation import Relation
    from repro.serving import recovery
    from repro.serving.cache import ProgramCache
    from repro.serving.snapshot import canonical_rows
    from repro.serving.wal import WriteAheadLog

    tracer.patch_method(Program, "parse", "datalog.plan:Program.parse")
    tracer.patch_function(analyze_program, "datalog.plan:analyze_program")
    tracer.patch_function(plan_program, "datalog.plan:plan_program")
    tracer.patch_method(ProgramCache, "get", "datalog.plan:ProgramCache.get")
    for evaluator in (SemiNaiveEvaluator, ShardedSemiNaiveEvaluator):
        tracer.patch_method(evaluator, "evaluate", f"datalog.evaluate:{evaluator.__name__}",
                            _iterations)
        tracer.patch_method(evaluator, "delta_fixpoint",
                            f"datalog.delta_fixpoint:{evaluator.__name__}", _delta_iterations)
    tracer.patch_method(GPULogEngine, "run", "datalog.extract:GPULogEngine.run")

    tracer.patch_function(hash_join, "relational.join:hash_join", _result_rows)
    tracer.patch_function(fused_nway_join, "relational.join:fused_nway_join", _result_rows)
    tracer.patch_function(deduplicate, "relational.dedup:deduplicate", _dedup_rows)
    tracer.patch_function(difference, "relational.difference:difference", _result_rows)
    tracer.patch_method(HISA, "merge", "relational.merge:HISA.merge", _merge_rows)
    tracer.patch_method(Relation, "full_rows_host", "relational.d2h:Relation.full_rows_host",
                        _host_rows)
    tracer.patch_method(DiskCheckpointStore, "save", "relational.checkpoint_save:save",
                        _checkpoint_bytes)
    tracer.patch_method(DiskCheckpointStore, "load", "relational.checkpoint_load:load")

    tracer.patch_method(DeviceKernels, "scatter_to", "device.exchange:scatter_to")
    tracer.patch_method(DeviceKernels, "device_to_device", "device.exchange:device_to_device")
    tracer.patch_method(Device, "charge", "device.charge:Device.charge")

    for primitive in ("lexsort", "take", "scatter"):
        tracer.patch_method(NumpyBackend, primitive, f"backend.{primitive}:NumpyBackend.{primitive}")

    tracer.patch_function(canonical_rows, "serving.snapshot:canonical_rows", _result_rows)
    for append in ("append_batch", "append_commit", "append_abort", "append_checkpoint"):
        tracer.patch_method(WriteAheadLog, append, f"serving.wal_append:{append}",
                            _wal_bytes, _wal_size)
    tracer.patch_function(recovery.recover_engine, "serving.recover:recover_engine")


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """The span-derived per-layer metrics of the spans ``tracer`` holds."""
    totals = tracer.totals()

    def get(key: str) -> float:
        return float(totals.get(key, 0.0))

    rows_in = get("relational.dedup.rows_in")
    return {
        "datalog.plan_ms": get("datalog.plan.self_s") * 1e3,
        "datalog.evaluate_s": get("datalog.evaluate.self_s"),
        "datalog.iterations": get("datalog.evaluate.iterations"),
        "datalog.delta_fixpoint_s": get("datalog.delta_fixpoint.self_s"),
        "datalog.extract_s": get("datalog.extract.self_s"),
        "relational.join_s": get("relational.join.self_s"),
        "relational.join_rows": get("relational.join.rows"),
        "relational.dedup_s": get("relational.dedup.self_s"),
        "relational.dedup_rows_in": rows_in,
        "relational.dedup_yield": get("relational.dedup.rows") / rows_in if rows_in else 0.0,
        "relational.difference_s": get("relational.difference.self_s"),
        "relational.merge_s": get("relational.merge.self_s"),
        "relational.merge_rows": get("relational.merge.rows"),
        "relational.d2h_s": get("relational.d2h.self_s"),
        "relational.checkpoint_save_s": get("relational.checkpoint_save.self_s"),
        "relational.checkpoint_bytes": get("relational.checkpoint_save.bytes"),
        "relational.checkpoint_load_s": get("relational.checkpoint_load.self_s"),
        "device.exchange_s": get("device.exchange.self_s"),
        "device.charge_s": get("device.charge.self_s"),
        "backend.lexsort_s": get("backend.lexsort.self_s"),
        "backend.take_s": get("backend.take.self_s"),
        "backend.scatter_s": get("backend.scatter.self_s"),
        "serving.snapshot_s": get("serving.snapshot.self_s"),
        "serving.snapshot_rows": get("serving.snapshot.rows"),
        "serving.wal_append_ms": get("serving.wal_append.self_s") * 1e3,
        "serving.wal_bytes": get("serving.wal_append.bytes"),
        "serving.replay_s": tracer.seconds("serving.recover")
        - tracer.seconds("relational.checkpoint_load", within="serving.recover"),
        "trace.spans": float(len(tracer.spans)),
    }
