(** The metrics of a run: end-to-end ones from the untraced phase, and
    per-layer ones read back from the trace of the traced phase. *)

module J = Wsc_trace.Json

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let all_lats (ps : Harness.pass list) =
  List.concat_map (fun (p : Harness.pass) -> p.lats) ps

(** Median and tail latency in ms, with the tail's percentile. *)
let latency (ps : Harness.pass list) : float * float * float * int =
  let a = Measure.sorted (all_lats ps) in
  let n = Array.length a in
  let p = Measure.tail_percentile n in
  (1e3 *. Measure.percentile a 50.0, 1e3 *. Measure.percentile a p, p, n)

let median_wall (ps : Harness.pass list) =
  Measure.median (List.map (fun (p : Harness.pass) -> p.wall) ps)

let end_to_end (o : Harness.outcome) ~peak_rss_mb : metric list =
  let p50, tail, _, _ = latency o.untraced in
  [
    m "setup_s" "s" o.setup_s;
    m "wall_s" "s" (median_wall o.untraced);
    m "latency_p50_ms" "ms" p50;
    m "latency_tail_ms" "ms" tail;
    m "peak_rss_mb" "MB" peak_rss_mb;
    m "sim_cycles_per_iter" "cycles" o.sim_cycles_per_iter;
  ]

let benches =
  List.map (fun (d : Wsc_benchmarks.Benchmarks.descr) -> d.id) Wsc_benchmarks.Benchmarks.all

(** Layers whose self allocation is reported as [<layer>.alloc_mb]. *)
let alloc_layers =
  [ "frontends"; "pipeline"; "csl_printer"; "ir"; "engine"; "host"; "fabric"; "interp";
    "csl_stencil_interp"; "cosim"; "oracle"; "bench" ]

(** Every per-layer metric.  Times, counts and bytes are per pass of the
    workload's unit of work (see [trace.passes]); a layer the workload
    does not reach reads 0. *)
let per_layer (o : Harness.outcome) (s : Tracer.summary) : metric list =
  let traced_ops =
    List.fold_left (fun n (p : Harness.pass) -> n + p.attempted) 0 o.traced
  in
  let passes = float_of_int traced_ops /. o.ops_per_pass in
  let per_pass x = if passes > 0.0 then x /. passes else 0.0 in
  let self name = per_pass (Tracer.self_s s name) in
  let sum name arg = Tracer.arg_sum s name arg in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let delta name =
    match Tracer.counter s name with
    | [] -> 0.0
    | first :: rest -> List.fold_left (fun _ x -> x) first rest -. first
  in
  let hits = delta "cache.hits" and misses = delta "cache.misses" in
  let fabric = "fabric.run" in
  let wall_u = median_wall o.untraced and wall_t = median_wall o.traced in
  [
    m "interp.reference.s" "s" (self "interp.reference");
    m "interp.alloc_bytes_per_pt" "B/pt"
      (ratio
         (Tracer.self_alloc_of_layer s "interp.reference")
         (sum "interp.reference" "point_steps"));
    m "fabric.run.s" "s" (self fabric);
    m "fabric.ns_per_elem" "ns/elem"
      (ratio (1e9 *. Tracer.self_s s fabric) (sum fabric "elems_sent"));
    m "fabric.elems_sent" "count" (per_pass (sum fabric "elems_sent"));
    m "fabric.task_activations" "count" (per_pass (sum fabric "task_activations"));
    m "fabric.sched.scans" "count" (per_pass (sum fabric "scans"));
    m "fabric.sched.wakeups" "count" (per_pass (sum fabric "wakeups"));
    m "fabric.sched.parks" "count" (per_pass (sum fabric "parks"));
    m "fabric.live_mb" "MB"
      (List.fold_left Float.max 0.0 (Tracer.counter s "fabric.live_mb"));
  ]
  @ List.map
      (fun id ->
        m ("fabric.cycles_per_iter." ^ id) "cycles"
          (ratio (sum fabric ("cycles_per_iter." ^ id)) (sum fabric ("runs." ^ id))))
      benches
  @ [
      m "host.load.s" "s" (self "host.load");
      m "host.read.s" "s" (self "host.read");
      m "frontends.s" "s" (self "frontends");
      m "pipeline.frontend_passes.s" "s" (self "pipeline.frontend_passes");
      m "pipeline.middle_passes.s" "s" (self "pipeline.middle_passes");
      m "pipeline.backend_passes.s" "s" (self "pipeline.backend_passes");
      m "pipeline.ops_out" "count"
        (per_pass (sum "pipeline.backend_passes" "ops_out" +. sum "engine.miss" "ops_out"));
      m "csl_printer.s" "s" (self "csl_printer");
      m "csl_printer.bytes" "B" (per_pass (sum "csl_printer" "bytes"));
      m "ir.roundtrip.s" "s" (self "ir.roundtrip");
      m "ir.canonical_bytes" "B"
        (ratio
           (sum "ir.roundtrip" "bytes" +. sum "engine.key" "bytes")
           (float_of_int (Tracer.calls s "ir.roundtrip" + Tracer.calls s "engine.key")));
      m "engine.key.s" "s" (self "engine.key");
      m "engine.hit.s" "s" (self "engine.hit");
      m "engine.miss.s" "s" (self "engine.miss");
      m "cache.hit_ratio" "ratio" (ratio hits (hits +. misses));
      m "cache.requests" "count" (hits +. misses);
      m "cache.evicted" "count" (per_pass (delta "cache.evictions"));
      m "cache.dedup_hits" "count" (per_pass (delta "cache.dedup_hits"));
      m "cosim.s" "s" (self "cosim");
      m "cosim.domains_spawned" "count" (per_pass (sum "cosim" "domains"));
      m "csl_stencil_interp.s" "s" (self "csl_stencil_interp");
      m "oracle.s" "s" (self "oracle");
      m "bench.s" "s" (self "bench.op" +. self "bench.pass");
    ]
  @ List.map
      (fun l ->
        m (l ^ ".alloc_mb") "MB" (per_pass (Tracer.self_alloc_of_layer s l) /. 1048576.0))
      alloc_layers
  @ [
      m "trace.passes" "count" passes;
      m "trace.wall_untraced_s" "s" wall_u;
      m "trace.wall_traced_s" "s" wall_t;
      m "trace.overhead_s" "s" (wall_t -. wall_u);
    ]

(** The result line: exactly [correct], [attempted], [failed], [metrics]. *)
let result_json ~attempted ~failed (ms : metric list) : J.t =
  J.Obj
    [
      ("correct", J.Bool (failed = 0));
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun x ->
               (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit) ]))
             ms) );
    ]
